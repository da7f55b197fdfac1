"""One BLAS thread for every fit and inference, and row lanes for the
layer work that BLAS does not thread, the conv GEMMs included.

OpenBLAS picks its GEMM kernels by thread count, and it starts one thread
per CPU by default, so a fit's bits would depend on the machine. train,
Network.predict and FittedPipeline.transform run inside one_blas_thread():
numpy's bundled OpenBLAS runs at one thread for that span, and its old
count comes back afterwards. Every fit and every inference then gives the
bits of a run under OPENBLAS_NUM_THREADS=1, whatever the CPU count.

The CPUs that BLAS no longer uses run the row-independent layer work
(see layers.py) through by_rows: a batch's rows split into contiguous
ranges, which the lanes take in turn; the lanes are the calling thread
plus helper threads, one lane per usable CPU. Each element is computed by
the same operation whichever lane computes it, so the lane count never
changes a bit. A run_pooled worker runs one lane at one BLAS thread for
its whole life (init_worker), since the pool already runs one worker per
CPU.

matmul splits a GEMM over the lanes by the one rule that kept the whole
GEMM's bits under both the SkylakeX and the Haswell kernels: blocks that
start at multiples of GEMM_ROWS rows, over an output of at least
GEMM_COLUMNS columns, each doing more than GEMM_PRODUCTS multiply-adds.
OpenBLAS picks its kernels by operand shape: arbitrary cuts and narrower
outputs gave other bits, and so did blocks that SkylakeX ran in its
small-matrix kernel (at most 100**3 multiply-adds) while it ran the whole
GEMM in its large one. layers.py runs the dense, softmax and
weight-gradient GEMMs whole. openblas_core names the kernel set, since a
fit's bits follow it.

Fallback: where numpy's BLAS does not export the bundled OpenBLAS's
thread-count functions (another BLAS build), nothing here touches BLAS
and every kernel runs on one lane. A fit's bits then follow that BLAS's
own thread count, which its environment variable sets.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The least elements per lane: below about 2**17 elements a lane, handing
# ReLU's work to a helper thread cost more than it saved (2 shared x86-64
# CPUs, 2 ranges a lane).
LANE_ELEMENTS = 2**17
PIECES = 2  # row ranges per lane
GEMM_ROWS = 64  # matmul's row blocks start at multiples of this
GEMM_COLUMNS = 32  # matmul runs an output with fewer columns whole
GEMM_PRODUCTS = 100**3  # each of matmul's blocks does more multiply-adds

_lanes = 1  # lanes inside the innermost one_blas_thread block; 1 outside any
_one_lane = False  # set in a pool worker by init_worker
_helpers: ThreadPoolExecutor | None = None


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas():
    """(set, get) thread-count functions of numpy's bundled OpenBLAS and its
    core-name function (None where it is not exported), or None."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))  # the library numpy has loaded already
        set_threads = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        get_threads = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            core = getattr(handle, "scipy_openblas_get_corename64_", None)
            if core is not None:
                core.restype = ctypes.c_char_p
            return set_threads, get_threads, core
    return None


def openblas_core() -> str | None:
    """The name of the kernel set OpenBLAS picked for this CPU (such as
    SkylakeX or Haswell), or None where numpy's BLAS does not say."""
    blas = _openblas()
    return None if blas is None or blas[2] is None else blas[2]().decode()


@contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread, with one row lane per usable CPU
    (one in a pool worker); both come back afterwards. Also a decorator."""
    global _lanes
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads, _ = blas
    threads, lanes = get_threads(), _lanes
    set_threads(1)
    _lanes = 1 if _one_lane else usable_cpus()
    try:
        yield
    finally:
        set_threads(threads)
        _lanes = lanes


def init_worker() -> None:
    """Start-up of a run_pooled worker: one BLAS thread and one lane."""
    global _one_lane
    _one_lane = True
    blas = _openblas()
    if blas is not None:
        blas[0](1)


def by_rows(fill, a: np.ndarray, align: int = 1) -> None:
    """fill(lo, hi) over contiguous ranges of a's rows that cover them all.

    a sets the split: at most one lane per LANE_ELEMENTS of it, and
    PIECES ranges per lane; each range starts at a multiple of align and
    holds at least align rows. Each lane takes the next range not yet
    taken, the calling thread too, so a helper that starts late or is
    descheduled leaves its ranges to the others; the call returns when
    every range is filled. fill must only write into buffers the caller
    allocated: a buffer a helper thread allocates lives in that thread's
    malloc arena.
    """
    n = len(a)
    blocks = n // align
    k = min(_lanes, blocks, a.size // LANE_ELEMENTS)
    if k < 2:
        fill(0, n)
        return
    pieces = min(blocks, PIECES * k)
    cuts = [align * (blocks * i // pieces) for i in range(pieces)] + [n]
    taken = itertools.count()  # its next() is atomic under the interpreter lock

    def lane():
        while (i := next(taken)) < pieces:
            fill(cuts[i], cuts[i + 1])

    helpers = [_helper_pool().submit(lane) for _ in range(k - 1)]
    try:
        lane()
    finally:
        for f in helpers:
            f.cancel()  # one that has not started finds nothing left to fill
        wait(helpers)  # no helper may still write when this returns
    for f in helpers:
        if not f.cancelled():
            f.result()


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with its bits, in row blocks over the lanes where the GEMM_
    constants allow, into one buffer the calling thread allocates."""
    inner, cols = b.shape
    if cols < GEMM_COLUMNS:
        return a @ b
    # The fewest rows, a multiple of GEMM_ROWS, past GEMM_PRODUCTS multiply-adds.
    align = GEMM_ROWS * (GEMM_PRODUCTS // (GEMM_ROWS * inner * cols) + 1)
    out = np.empty((len(a), cols), np.result_type(a, b))
    by_rows(lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]), out, align)
    return out


def _helper_pool() -> ThreadPoolExecutor:
    """The helper threads; the executor starts one only when none is idle."""
    global _helpers
    if _helpers is None:
        _helpers = ThreadPoolExecutor(thread_name_prefix="finimg-lane")
    return _helpers


def _forget_helpers() -> None:
    """A forked child has none of its parent's helper threads: a range
    handed to the parent's executor there would wait forever."""
    global _helpers
    _helpers = None


os.register_at_fork(after_in_child=_forget_helpers)
