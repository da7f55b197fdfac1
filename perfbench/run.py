"""Run one finimg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 25 --trace 0

One process, one caller: each op starts after the previous one ends (a
closed loop), for at least --seconds seconds. BLAS keeps its default
thread count. With --trace 0 the end-to-end metrics are printed; with
--trace 1 the traced run alternates untraced and traced ops and prints
the per-layer metrics and the tracing overhead. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The program is imported from this checkout's src/; without it the run
exits non-zero before printing a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3  # cold set-ups per untraced run; setup_s is their median
EXPECTED = HERE / "expected.json"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up once and exit; used to time cold set-ups")
    return p.parse_args(argv)


def _cold_setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter: start-up, imports,
    data generation and the first fit, as a command-line user pays them."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes

    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Loop:
    """Runs ops, times them, and checks every output against the first."""

    def __init__(self, op, pinned: str | None):
        self.op = op
        self.pinned = pinned
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.rates: list[float] = []
        self.accuracies: list[float] = []

    def run_once(self, tracer=None) -> bool:
        """One op; returns whether it succeeded. Traced when a tracer is given."""
        self.attempted += 1
        try:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            if tracer is None:
                result = self.op()
            else:
                with tracer.installed():
                    result = self.op()
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            problems = result.check()
        except Exception:  # an op that raises or diverges fails alone
            traceback.print_exc()
            self.failed += 1
            return False
        if self.reference is None:
            self.reference = result.digest
            if self.pinned is not None and result.digest != self.pinned:
                problems.append(f"digest {result.digest} differs from the pinned {self.pinned}")
        elif result.digest != self.reference:
            problems.append(f"digest {result.digest} differs from this run's first {self.reference}")
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.rates.append(result.samples / wall)
        self.accuracies = result.accuracies
        if problems:
            for p in problems:
                print(f"output check failed: {p}", file=sys.stderr)
            self.failed += 1
            return False
        return True


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(loop: Loop, seconds: float, setup_times: list[float]) -> dict:
    deadline = time.perf_counter() + seconds
    while True:
        loop.run_once()
        if time.perf_counter() >= deadline:
            break
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(loop.walls) if loop.walls else 0.0,
        "samples_per_s": statistics.median(loop.rates) if loop.rates else 0.0,
        "cpu_s": statistics.median(loop.cpus) if loop.cpus else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _traced(loop: Loop, tracer, seconds: float, setup_layers: dict) -> dict:
    """Alternate untraced and traced ops; per-layer values are medians over
    the traced ops, and counts must repeat exactly from op to op."""
    from tracing import COUNT_METRICS, unit_of

    per_op: list[dict] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        if loop.run_once():
            plain_walls.append(loop.walls[-1])
        tracer.reset()
        if loop.run_once(tracer):
            traced_walls.append(loop.walls[-1])
            per_op.append(tracer.metrics())
        if time.perf_counter() >= deadline:
            break
    tracer.reset()
    if not per_op:
        return {}
    for name in COUNT_METRICS:
        if len({m[name] for m in per_op}) != 1:
            print(f"count {name} differs between ops: {[m[name] for m in per_op]}",
                  file=sys.stderr)
            loop.failed += 1
    out = {}
    for name in per_op[0]:
        unit = unit_of(name)
        value = statistics.median(m[name] for m in per_op)
        if name == "synthetic.generate_s":
            value = setup_layers[name]  # the benchmark generates data only in set-up
        out[name] = _metric(value, unit)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls) \
        if plain_walls and traced_walls else 0.0
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "finimg" / "__init__.py").is_file():
        print(f"perfbench: no finimg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import finimg
    from tracing import Tracer
    from workloads import WORKLOADS
    if Path(finimg.__file__).resolve().parent != SRC / "finimg":
        print(f"perfbench: imported finimg from {finimg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    pinned = expected["digests"].get(args.workload) if args.seed == expected["seed"] else None

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        make = WORKLOADS[args.workload]
        if args.setup_only:
            make(args.seed, workdir)
            return 0
        print("machine " + json.dumps(machine_facts(numpy), sort_keys=True))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                op = make(args.seed, workdir)
            setup_layers = tracer.metrics()
            loop = Loop(op, pinned)
            metrics = _traced(loop, tracer, args.seconds, setup_layers)
        else:
            setup_times = [_cold_setup_seconds(args.workload, args.seed) for _ in range(SETUPS)]
            loop = Loop(make(args.seed, workdir), pinned)
            metrics = _untraced(loop, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"digest {loop.reference}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if loop.accuracies:
        print(f"accuracy_mean {statistics.fmean(loop.accuracies):.6f} fraction (not bounded)")
    print(f"ops {loop.attempted}")
    print(f"ops_failed {loop.failed}")
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
