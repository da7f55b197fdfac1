"""A layer's saved state lives from its forward to its backward.

A backward consumes what its forward saved, inference keeps nothing, and
one training step through the 32x32 network stays within a fixed memory
budget.
"""
import tracemalloc

import numpy as np
import pytest

from finimg.nnet import Network, build_autoencoder, build_cnn1d, build_cnn2d, build_mlp
from finimg.nnet.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, SoftmaxOutput

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


def test_a_forward_in_inference_mode_still_saves_for_backward():
    # Finite-difference checks run backward after a train=False forward.
    layer = Dense(np.ones((3, 2)), np.zeros(2))
    layer.forward(np.ones((4, 3)), train=False)
    assert layer.backward(np.ones((4, 2))).shape == (4, 3)
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
