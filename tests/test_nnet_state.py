"""A layer's saved state lives from its forward to its backward.

A backward consumes what its training forward saved, and inference keeps
nothing: each layer's forward(train=False) gives the bits of its training
forward (dropout aside) and leaves no state, and predict gives the bits of
64-row inference forward passes. One training step through the 32x32
network and one 1000-row prediction through the 18x27 network stay within
fixed memory budgets.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg.nnet import Network, build_autoencoder, build_cnn1d, build_cnn2d, build_mlp
from finimg.nnet.layers import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    SoftmaxOutput,
)
from finimg.nnet.network import PREDICT_ROWS
from support import channels_last, special_values

SPECS = {
    "mlp": build_mlp(6),
    "cnn1d": build_cnn1d(12),
    "cnn2d": build_cnn2d(8, 9),
    "autoencoder": build_autoencoder(6, 3),
}


def one_batch(net, rows=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, *net.spec.input_shape))
    if net.spec.loss == "mse":
        return x, x
    return x, rng.integers(0, net.layers[-1].weight.shape[1], size=rows)


def backward_again(layer, grad_shape):
    if isinstance(layer, SoftmaxOutput):
        return layer.backward_from_labels(np.zeros(grad_shape[0], dtype=int))
    return layer.backward(np.ones(grad_shape))


def saved_state(net):
    return [layer.name for layer in net.layers if layer._saved is not None]


@pytest.mark.parametrize("kind", SPECS)
def test_a_step_and_a_prediction_leave_no_saved_state(kind):
    net = Network(SPECS[kind], seed=0)
    x, y = one_batch(net)
    net.loss_and_grad(x, y, rng=np.random.default_rng(1))
    assert saved_state(net) == []
    net.predict(x)
    assert saved_state(net) == []


@pytest.mark.parametrize("kind", SPECS)
def test_a_second_backward_or_one_after_predict_names_the_layer(kind):
    net = Network(SPECS[kind], seed=0)
    x, y = one_batch(net)
    shapes = [(len(x), *s) for s in net.spec.layer_shapes()]
    net.loss_and_grad(x, y, rng=np.random.default_rng(1))
    for after in ("backward", "predict"):
        if after == "predict":
            net.predict(x)
        for layer, shape in zip(net.layers, shapes):
            with pytest.raises(ValueError, match=f"^{layer.name}: backward without a forward$"):
                backward_again(layer, shape)


def test_a_backward_after_an_inference_forward_names_the_layer():
    layer = Dense(np.ones((3, 2)), np.zeros(2))
    layer.forward(np.ones((4, 3)), train=True)
    layer.forward(np.ones((4, 3)), train=False)  # drops the training forward's state
    with pytest.raises(ValueError, match="^dense: backward without a forward$"):
        layer.backward(np.ones((4, 2)))


@pytest.mark.parametrize("layer", [Conv2D(np.ones((2, 1, 2, 2)), np.zeros(2)), MaxPool2D(2),
                                   ReLU(), Flatten()], ids=lambda layer: layer.name)
def test_a_fresh_layer_has_nothing_to_backward(layer):
    with pytest.raises(ValueError, match=f"^{layer.name}: backward without a forward$"):
        layer.backward(np.ones((1, 2, 2, 2)))


def test_one_step_through_the_32x32_network_stays_within_its_memory_budget():
    # The conv's im2col columns (50 MB for 64 rows in the second conv) are
    # freed in its backward before the input gradient's columns (33 MB) are
    # gathered, and nothing but the gradients outlives the step.
    net = Network(build_cnn2d(32, 32), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1, 32, 32))
    y = rng.integers(0, 12, size=64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net.loss_and_grad(x, y, rng=np.random.default_rng(1))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / 1e6 <= 75
    gradients = sum(g.nbytes for g in net.gradients())
    assert saved_state(net) == []
    assert after - before <= gradients + 64 * 1024


def test_predicting_1000_rows_through_the_18x27_network_stays_within_its_memory_budget():
    # No layer keeps a chunk's masks or columns for a backward: an inference
    # max pool makes no masks, and a conv's columns die with its forward.
    net = Network(build_cnn2d(18, 27), seed=0)
    x = np.random.default_rng(0).normal(size=(1000, 1, 18, 27))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probs = net.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (1000, 12)
    assert (peak - before) / 1e6 <= 28
    assert saved_state(net) == []


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


KINDS = ("dense", "softmax_output", "relu", "dropout", "flatten", "conv1d", "conv2d",
         "maxpool1d", "maxpool2d")


def layer_and_input(data, rng, kind):
    """A layer of the kind and a batch for it, with NaN, infinities, signed
    zeros and ties among its values."""
    n, c = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 3))
    if kind in ("dense", "softmax_output"):
        d, u = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        make = Dense if kind == "dense" else SoftmaxOutput
        return make(rng.normal(size=(d, u)), rng.normal(size=u)), special_values(rng, (n, d))
    one_d = kind.endswith("1d")
    window = data.draw(st.integers(1, 3))
    h = 1 if one_d else data.draw(st.integers(window, 7))
    w = data.draw(st.integers(window, 8))
    x = special_values(rng, (n, c, h, w))
    if data.draw(st.booleans()):
        x = channels_last(x)
    if kind.startswith("conv"):
        kh = 1 if one_d else data.draw(st.integers(1, h))
        kw = data.draw(st.integers(1, w))
        weight, bias = rng.normal(size=(2, c, kh, kw)), rng.normal(size=2)
        layer = Conv1D(weight[:, :, 0].copy(), bias) if one_d else Conv2D(weight, bias)
    elif kind.startswith("maxpool"):
        layer = MaxPool1D(window) if one_d else MaxPool2D(window)
    else:
        layer = {"relu": ReLU(), "flatten": Flatten(),
                 "dropout": Dropout(data.draw(st.sampled_from((0.0, 0.5))))}[kind]
    return layer, (x[:, :, 0] if one_d else x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and infinities on purpose
@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_an_inference_forward_gives_the_training_bits_and_keeps_nothing(data, kind):
    # A max pool's inference forward folds without masks; inference dropout
    # is the identity.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    layer, x = layer_and_input(data, rng, kind)
    want = x if kind == "dropout" else layer.forward(x, train=True)
    assert kind == "dropout" or layer._saved is not None  # a backward could follow it
    got = layer.forward(x, train=False)
    assert layer._saved is None
    assert same_bits(got, want)
    with pytest.raises(ValueError, match=f"^{layer.name}: backward without a forward$"):
        backward_again(layer, got.shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(tuple(SPECS)), rows=st.sampled_from((0, 1, 63, 64, 65, 1000)),
       seed=st.integers(0, 2**32 - 1))
def test_predict_gives_the_bits_of_64_row_inference_forwards(kind, rows, seed):
    net = Network(SPECS[kind], seed=0)
    x = special_values(np.random.default_rng(seed), (rows, *net.spec.input_shape))
    want = np.concatenate([net.forward(x[i : i + PREDICT_ROWS], train=False)
                           for i in range(0, max(rows, 1), PREDICT_ROWS)])
    assert same_bits(net.predict(x), want)
    assert saved_state(net) == []
