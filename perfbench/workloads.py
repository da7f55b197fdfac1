"""The benchmark's workloads: untimed set-up, then one repeatable timed op.

Every input is generated from the workload seed; finimg receives only
the generated dataset (or the files written from it). Each op returns a
digest of its report bytes and a check, run after the timed region, that
lists output problems; an op with any problem counts as failed.

Sizes are chosen so that one op takes a few seconds on a 2-CPU machine
and a run of a few tens of seconds holds several ops, whose median is
reported. See README.md for why each workload exists.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from finimg import data, experiment, schema, synthetic
from finimg.nnet import TrainConfig
from finimg.stats import summarize

# Criterion-6 data: 96 CHUNKY features, 6 sections of 16.
CHUNKY = {s: 16 for s in schema.FUNDAMENTAL_SECTIONS}
N_PER_YEAR = 200  # training workloads: 800 training rows, 200 test rows
SCORE_N_PER_YEAR = 200  # score: rows scored in one batch = 5 x this
YEARS = (2012, 2016)
TEST_YEAR = 2016
FACTOR_STRENGTH = 0.9
NOISE = 1.5
EPOCHS = 1
BATCH = 64
RANDOMIZATION_RUNS = 2


@dataclass
class OpResult:
    digest: str
    samples: int  # rows through the network: training rows x epochs, or rows scored
    accuracies: list[float]
    check: Callable[[], list[str]]


Op = Callable[[], OpResult]


def _spec(seed: int, section_counts: dict[str, int] | None,
          n_per_year: int = N_PER_YEAR) -> synthetic.SyntheticSpec:
    return synthetic.SyntheticSpec(
        n_per_year=n_per_year, years=YEARS, section_counts=section_counts,
        factor_strength=FACTOR_STRENGTH, noise=NOISE, seed=seed,
    )


def _config(spec: synthetic.SyntheticSpec, methods: tuple[str, ...],
            seed: int) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig(
        synthetic=spec, test_year=TEST_YEAR, methods=methods,
        randomization_runs=RANDOMIZATION_RUNS,
        train=TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=seed),
    )


def _digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _in_unit(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def check_report(config: experiment.ExperimentConfig,
                 report: experiment.ExperimentReport) -> list[str]:
    """Invariants of a compare report that hold for any seed."""
    problems = []
    if [row.method for row in report.rows] != list(config.methods):
        problems.append("report rows do not follow the configured methods")
    for method in config.methods:
        recs = report.records.get(method, [])
        expected = (config.randomization_runs if method in experiment.RANDOMIZED
                    else config.training_seeds)
        if len(recs) != expected:
            problems.append(f"{method}: {len(recs)} records, expected {expected}")
        for r in recs:
            if not _in_unit(r.accuracy):
                problems.append(f"{method}: accuracy {r.accuracy} outside [0, 1]")
    for row in report.rows:
        if not _in_unit(row.accuracy_mean):
            problems.append(f"{row.method}: mean accuracy {row.accuracy_mean} outside [0, 1]")
        if row.method in experiment.RANDOMIZED:
            accs = [r.accuracy for r in report.records.get(row.method, [])]
            if len(accs) != config.randomization_runs or row.n_runs != len(accs):
                problems.append(f"{row.method}: stderr not over {config.randomization_runs} runs")
            elif row.accuracy_stderr != summarize(accs).stderr:
                problems.append(f"{row.method}: stderr differs from its records")
    return problems


def _compare_workload(seed: int, workdir: Path, methods: tuple[str, ...],
                      section_counts: dict[str, int] | None) -> Op:
    """run_compare + emit_report on one generated dataset."""
    spec = _spec(seed, section_counts)
    ds = synthetic.generate_synthetic(spec)
    config = _config(spec, methods, seed)
    # The first fit in a process pays one-off costs; pay them here.
    experiment.fit_pipeline(config, "mlp", ds, seed)
    out_dir = workdir / "report"
    train_rows = int((ds.years < TEST_YEAR).sum())

    def op() -> OpResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        report = experiment.run_compare(config, ds)
        written = experiment.emit_report(report, out_dir)
        train_calls = sum(len(recs) * (2 if m == "autoencoder_sa" else 1)
                          for m, recs in report.records.items())
        return OpResult(
            digest=_digest_files(written),
            samples=train_rows * EPOCHS * train_calls,
            accuracies=[r.accuracy for recs in report.records.values() for r in recs],
            check=lambda: check_report(config, report),
        )

    return op


def protocol(seed: int, workdir: Path) -> Op:
    return _compare_workload(seed, workdir, experiment.ALL_METHODS, CHUNKY)


def hilbert_wide(seed: int, workdir: Path) -> Op:
    # section_counts None: the canonical 332-feature schema, a 32x32 Hilbert grid.
    return _compare_workload(seed, workdir, ("hva",), None)


def _record_json(record: experiment.RunRecord) -> str:
    return json.dumps(dataclasses.asdict(record), sort_keys=True)


def score(seed: int, workdir: Path) -> Op:
    """The `finimg evaluate` path over every row of a written CSV."""
    spec = _spec(seed, None, SCORE_N_PER_YEAR)
    ds = synthetic.generate_synthetic(spec)
    data_path, schema_path, model_path = (workdir / n for n in ("data.csv", "schema.csv", "model.npz"))
    data.save_csv(ds, data_path)
    schema.save_schema(ds.schema, schema_path)
    config = _config(spec, ("cca",), seed)
    pipe, _, _ = experiment.fit_pipeline(config, "cca", ds, seed)
    experiment.save_pipeline(pipe, model_path)
    expected: list[str] = []

    def check(record: experiment.RunRecord) -> list[str]:
        if not expected:
            # The CSV and the checkpoint round-trip exactly, so scoring them
            # must give what the in-memory pipeline gives on the in-memory rows.
            expected.append(_record_json(experiment.evaluate_pipeline(pipe, ds)))
        problems = []
        if _record_json(record) != expected[0]:
            problems.append("scored record differs from the in-memory pipeline's")
        if record.n_test != len(ds) or not _in_unit(record.accuracy):
            problems.append(f"scored {record.n_test} rows at accuracy {record.accuracy}")
        return problems

    def op() -> OpResult:
        loaded = data.load_dataset(data_path, schema_path)
        record = experiment.evaluate_pipeline(experiment.load_pipeline(model_path), loaded)
        return OpResult(
            digest=hashlib.sha256(_record_json(record).encode()).hexdigest(),
            samples=record.n_test,
            accuracies=[record.accuracy],
            check=lambda: check(record),
        )

    return op


WORKLOADS: dict[str, Callable[[int, Path], Op]] = {
    "protocol": protocol,
    "hilbert_wide": hilbert_wide,
    "score": score,
}
