"""Row lanes give the bits of one lane, split a conv GEMM only where the
split gives the whole GEMM's bits, run no layer off the calling thread,
and fall back to one lane where BLAS cannot be set to one thread."""
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finimg import experiment
from finimg.nnet import Network, TrainConfig, build_cnn2d, lanes, layers
from finimg.nnet.layers import Conv1D, Conv2D, Layer, MaxPool1D, MaxPool2D, ReLU
from finimg.nnet.network import PREDICT_ROWS
from finimg.nnet.train import train
from finimg.schema import FUNDAMENTAL_SECTIONS, N_CLASSES
from finimg.synthetic import SyntheticSpec, generate_synthetic
from support import channels_last, special_values
from test_experiment import _python


@contextmanager
def lanes_at(count):
    """Kernels split over count lanes, however few elements they hold."""
    with mock.patch.object(lanes, "_lanes", count), mock.patch.object(lanes, "LANE_ELEMENTS", 1):
        yield


def assert_same_bits(a, b):
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    else:
        assert a == b


def layer_case(data, rng, kind, n):
    """A fresh-layer factory, an input and an output gradient for one kernel."""
    c = data.draw(st.integers(1, 3))
    one_d = kind.endswith("1d")
    h = 1 if one_d else data.draw(st.integers(1, 7))
    w = data.draw(st.integers(1, 7))
    if kind.startswith("conv"):
        kh = 1 if one_d else data.draw(st.integers(1, h))
        kw = data.draw(st.integers(1, w))
        weight = rng.normal(size=(data.draw(st.integers(1, 3)), c, kh, kw))
        bias = rng.normal(size=weight.shape[0])
        needs_input_grad = data.draw(st.booleans())

        def make():
            layer = (Conv1D(weight[:, :, 0].copy(), bias) if one_d else Conv2D(weight, bias))
            layer.needs_input_grad = needs_input_grad
            return layer

        x = rng.normal(size=(n, c, h, w))
        out_shape = (n, weight.shape[0], h - kh + 1, w - kw + 1)
    elif kind.startswith("maxpool"):
        window = data.draw(st.integers(1, 3))
        h = 1 if one_d else data.draw(st.integers(window, 7))
        w = data.draw(st.integers(window, 8))  # ragged edges past the last window
        make = lambda: MaxPool1D(window) if one_d else MaxPool2D(window)
        x = special_values(rng, (n, c, h, w))
        out_shape = (n, c, h // (1 if one_d else window), w // window)
    else:
        make = ReLU
        x = special_values(rng, (n, c, h, w))
        out_shape = x.shape
    g = rng.normal(size=out_shape) if kind.startswith("conv") else special_values(rng, out_shape)
    x, g = channels_last(x), channels_last(g)
    if one_d:
        x, g = x[:, :, 0], g[:, :, 0]
    return make, x, g


def run_kernel(make, x, g):
    """Output, saved state, input gradient and parameter gradients of one step."""
    layer = make()
    out = layer.forward(x, train=True)
    saved = layer._saved
    dx = layer.backward(g)
    return [out, saved, dx, *layer.grads()]


KINDS = ("conv1d", "conv2d", "maxpool1d", "maxpool2d", "relu")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), n=st.integers(1, 70))
def test_every_lane_kernel_gives_the_bits_of_one_lane(data, kind, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    make, x, g = layer_case(data, rng, kind, n)
    with lanes_at(1):
        one = run_kernel(make, x, g)
    with lanes_at(2):
        two = run_kernel(make, x, g)
    assert_same_bits(one, two)
    # The one-pass select writes np.where's bits, signed zeros and NaNs too.
    if kind == "relu":
        assert_same_bits(one[0], np.where(x > 0, x, 0.0))
        assert_same_bits(one[2], np.where(x > 0, g, 0.0))
    if kind.startswith("maxpool"):
        assert_same_bits(one[2], pool_dx_by_where(make().window, x, g, one[1][0]))


def pool_dx_by_where(window, x, g, masks):
    """A max pool's dx as zeros with np.where(mask, g, 0.0) in each window position."""
    one_d = x.ndim == 3
    wh = 1 if one_d else window
    x4, g4 = (x[:, :, None, :], g[:, :, None, :]) if one_d else (x, g)
    _, _, oh, ow = g4.shape
    dx = np.zeros(x4.shape)
    for (i, j), m in zip(np.ndindex(wh, window), masks):
        dx[:, :, i : oh * wh : wh, j : ow * window : window] = np.where(m, g4, 0.0)
    return dx[:, :, 0] if one_d else dx


def test_more_lanes_than_cpus_fill_every_row_once():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with lanes_at(4):
            for n in (1, 2, 3, 7, 64, 257):
                rows = np.zeros((n, 4), dtype=int)

                def fill(lo, hi):
                    rows[lo:hi] += 1

                lanes.by_rows(fill, rows)
                assert (rows == 1).all(), n
    finally:
        sys.setswitchinterval(interval)


def filled_ranges(n, align, count):
    """The (lo, hi) ranges by_rows fills over n rows at count lanes, in
    order, and the threads that filled them."""
    ranges, threads = [], set()

    def fill(lo, hi):
        ranges.append((lo, hi))
        threads.add(threading.get_ident())

    with lanes_at(count):
        lanes.by_rows(fill, np.zeros((n, 1)), align)
    return sorted(ranges), threads


@pytest.mark.parametrize("align", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_by_rows_cuts_at_multiples_of_align_into_blocks_of_at_least_align(align, count):
    for n in range(0, 4 * align + 5):
        ranges, threads = filled_ranges(n, align, count)
        # The ranges cover 0..n once each, in contiguous order.
        assert ranges[0][0] == 0 and ranges[-1][1] == n, (n, ranges)
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), (n, ranges)
        assert all(lo % align == 0 for lo, _ in ranges), (n, ranges)
        if count == 1 or n < 2 * align:
            assert ranges == [(0, n)] and threads == {threading.get_ident()}, n
        else:
            assert all(hi - lo >= align for lo, hi in ranges), (n, ranges)
        if align == 1:  # the cuts before align existed
            k = min(count, n)
            pieces = min(n, lanes.PIECES * k)
            cuts = [n * i // pieces for i in range(pieces + 1)] if k >= 2 else [0, n]
            assert ranges == list(zip(cuts, cuts[1:])), n


# The canonical schemas, the 96-feature one of criterion 6 and the
# 66-feature one of the CI run; (kind, section counts).
SCHEMAS = [("fundamental", None), ("ratio", None),
           ("fundamental", {s: 16 for s in FUNDAMENTAL_SECTIONS}),
           ("fundamental", {s: 11 for s in FUNDAMENTAL_SECTIONS})]


def conv_inputs():
    """The input shape (no batch axis) of every conv classifier that a
    method builds on these schemas: cnn1d's vector and every method's grid."""
    shapes = set()
    for kind, counts in SCHEMAS:
        spec = SyntheticSpec(n_per_year=N_CLASSES, years=(2016, 2016), kind=kind,
                             section_counts=counts)
        ds, config = generate_synthetic(spec), experiment.ExperimentConfig(synthetic=spec)
        for method in experiment.ALL_METHODS:
            shape = experiment._layout(config, method, ds, 0)[0].input_shape
            if len(shape) > 1:
                shapes.add(shape)
    return sorted(shapes)


def conv_gemms_match_the_whole_gemm(shape, filters, n, seed):
    """Run each conv of the classifier for shape forward and backward on n
    rows at two lanes, and check every lanes.matmul call against the whole
    np.matmul; the (rows, inner, columns, blocks) of the calls, with 0
    blocks for a GEMM that did not reach by_rows."""
    if lanes._openblas() is None:
        pytest.skip("no bundled OpenBLAS: no GEMM is split")
    spec = experiment.classifier_spec(shape, filters1=filters[0], filters2=filters[1])
    net, rng, seen, blocks = Network(spec, seed), np.random.default_rng(seed), [], []
    real_by_rows = lanes.by_rows

    def counted(fill, a, align):
        real_by_rows(lambda lo, hi: (fill(lo, hi), blocks.append(lo)), a, align)

    def checked(a, b):
        blocks.clear()
        split = lanes.matmul(a, b)
        assert_same_bits(split, np.matmul(a, b))
        seen.append((*a.shape, b.shape[1], len(blocks)))
        return split

    shapes = (spec.input_shape, *spec.layer_shapes())
    with (lanes.one_blas_thread(), lanes_at(2), mock.patch.object(lanes, "by_rows", counted),
          mock.patch.object(layers, "matmul", checked)):
        for layer, before, after in zip(net.layers, shapes, shapes[1:]):
            if isinstance(layer, (Conv1D, Conv2D)):
                layer.forward(rng.normal(size=(n, *before)), train=True)
                layer.backward(rng.normal(size=(n, *after)))
    return seen


# Output widths: grid-search takes any positive filter count, so widths
# on both sides of GEMM_COLUMNS. Rows: 64-row batches and PREDICT_ROWS
# chunks, and every shorter tail batch or chunk.
@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(conv_inputs()),
       filters=st.tuples(st.integers(1, 128), st.integers(1, 128)),
       n=st.integers(1, PREDICT_ROWS), seed=st.integers(0, 2**32 - 1))
# SkylakeX ran the 675 x 27 x 57 input-gradient GEMM whole in its large
# kernel, and 64-aligned blocks of it in its small-matrix kernel.
@example(shape=(1, 32, 32), filters=(57, 3), n=3, seed=0)
def test_conv_gemms_split_over_the_lanes_give_the_bits_of_the_whole(shape, filters, n, seed):
    assert conv_gemms_match_the_whole_gemm(shape, filters, n, seed)


def test_the_default_conv_gemms_split_and_give_the_bits_of_the_whole():
    # The canonical hva grid at a full batch and a tail batch: the split
    # runs on both of conv2's GEMMs and on conv1's forward GEMM.
    for n in (64, 56):
        seen = conv_gemms_match_the_whole_gemm((1, 32, 32), (64, 32), n, 0)
        assert [(m, cols, blocks > 1) for m, _, cols, blocks in seen] == [
            (n * 30 * 30, 64, True), (n * 13 * 13, 32, True), (n * 15 * 15, 64, True)]


def test_on_haswell_kernels_the_conv_gemms_split_and_give_the_bits_of_the_whole():
    # OpenBLAS's kernels for AVX2 CPUs without AVX-512, which every x86-64
    # runner with AVX2 can run; the name check keeps this from testing the
    # kernels OpenBLAS picks here a second time.
    if lanes.openblas_core() is None:
        pytest.skip("numpy's BLAS does not name its core")
    script = """
from finimg.nnet import lanes
import test_nnet_lanes as t
print(lanes.openblas_core())
t.test_the_default_conv_gemms_split_and_give_the_bits_of_the_whole()
t.test_conv_gemms_split_over_the_lanes_give_the_bits_of_the_whole()
"""
    assert _python(script, "2", "Haswell").split() == ["Haswell"]


def test_openblas_core_is_none_without_the_symbol(monkeypatch):
    blas = lanes._openblas()
    if blas is not None:
        assert isinstance(lanes.openblas_core(), str) == (blas[2] is not None)
        monkeypatch.setattr(lanes, "_openblas", lambda: (*blas[:2], None))
        assert lanes.openblas_core() is None
    monkeypatch.setattr(lanes, "_openblas", lambda: None)
    assert lanes.openblas_core() is None


def test_a_forked_child_runs_lanes_after_its_parent_did():
    # The child inherits the parent's executor but none of its threads.
    script = """
import os
import numpy as np
from finimg.nnet import lanes
lanes._lanes, lanes.LANE_ELEMENTS = 2, 1
rows = np.zeros((64, 4))
def fill(lo, hi):
    rows[lo:hi] += 1
lanes.by_rows(fill, rows)
pid = os.fork()
if pid == 0:
    for _ in range(20):
        lanes.by_rows(fill, rows)
    os._exit(0 if (rows == 21).all() else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def calling_threads():
    """Patches of every Layer and Network entry point that record the
    thread each call runs on, and the set they record into."""
    seen = set()
    patches = []
    entries = [(Network, name) for name in ("forward", "predict", "loss_and_grad")]
    entries += [(cls, name) for cls in subclasses(Layer)
                for name in ("forward", "backward", "backward_from_labels") if name in vars(cls)]
    for cls, name in entries:
        original = vars(cls)[name]

        def record(*args, _original=original, **kwargs):
            seen.add(threading.get_ident())
            return _original(*args, **kwargs)

        patches.append(mock.patch.object(cls, name, record))
    return seen, patches


def test_with_two_lanes_every_layer_and_network_call_runs_on_the_calling_thread(monkeypatch):
    if lanes._openblas() is None:
        pytest.skip("no bundled OpenBLAS: every kernel runs on one lane")
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    handed = []
    real_pool = lanes._helper_pool
    monkeypatch.setattr(lanes, "_helper_pool", lambda: handed.append(1) or real_pool())
    seen, patches = calling_threads()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(70, 1, 12, 12))
    y = rng.integers(0, 12, size=70)
    for p in patches:
        p.start()
    try:
        net = train(build_cnn2d(12, 12), x, y, TrainConfig(epochs=1, batch_size=64))
        net.predict(x)
    finally:
        for p in reversed(patches):
            p.stop()
    assert handed  # the helpers were handed rows
    assert seen == {threading.get_ident()}


def test_without_the_openblas_symbols_a_fit_runs_on_one_lane_and_leaves_blas_alone(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    blas = lanes._openblas()
    monkeypatch.setattr(lanes, "_openblas", lambda: None)
    during = []
    real_forward = ReLU.forward

    def forward(self, x, train, rng=None):
        during.append((lanes._lanes, blas[1]() if blas else None))
        return real_forward(self, x, train, rng)

    monkeypatch.setattr(ReLU, "forward", forward)
    before = blas[1]() if blas else None
    rng = np.random.default_rng(0)
    x = rng.normal(size=(70, 1, 12, 12))
    y = rng.integers(0, 12, size=70)
    start = Network(build_cnn2d(12, 12), seed=0).parameters()
    net = train(build_cnn2d(12, 12), x, y, TrainConfig(epochs=2, batch_size=64))
    assert during and set(during) == {(1, before)}
    assert all(np.isfinite(loss) for loss in net.history)
    assert any(not np.array_equal(a, b) for a, b in zip(start, net.parameters()))


def test_the_blas_scope_restores_the_thread_count_and_the_lanes(monkeypatch):
    blas = lanes._openblas()
    if blas is None:
        pytest.skip("no bundled OpenBLAS to set")
    set_threads, get_threads, _ = blas
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
    before = get_threads()
    set_threads(2)
    try:
        with lanes.one_blas_thread():
            assert (get_threads(), lanes._lanes) == (1, 3)
            with lanes.one_blas_thread():
                assert (get_threads(), lanes._lanes) == (1, 3)
            assert (get_threads(), lanes._lanes) == (1, 3)
        assert (get_threads(), lanes._lanes) == (2, 1)
    finally:
        set_threads(before)
