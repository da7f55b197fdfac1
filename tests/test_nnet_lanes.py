"""Row lanes give the bits of one lane, run no layer off the calling
thread, and fall back to one lane where BLAS cannot be set to one thread."""
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg.nnet import Network, TrainConfig, build_cnn2d, lanes
from finimg.nnet.layers import Conv1D, Conv2D, Layer, MaxPool1D, MaxPool2D, ReLU
from finimg.nnet.train import train
from support import channels_last, special_values


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
    set_threads, get_threads = blas
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
