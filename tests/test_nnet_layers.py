import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finimg.nnet import (
    MIN_SIDE,
    Network,
    NetworkSpec,
    build_autoencoder,
    build_cnn1d,
    build_cnn2d,
    build_mlp,
    loss_crossentropy,
    softmax,
)
from finimg.nnet.layers import (
    Conv1D,
    Conv2D,
    Dropout,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    ShapeMismatchError,
)
from finimg.nnet.network import (
    PREDICT_ROWS,
    SpecError,
    activation,
    conv1d,
    conv2d,
    dense,
    flatten,
    maxpool,
    softmax_output,
)
from support import gradient_check


def test_conv1d_hand_example():
    # kernel (1,1,1), bias 0 on (1,2,3,4,5) gives running window sums
    layer = Conv1D(np.ones((1, 1, 3)), np.zeros(1))
    out = layer.forward(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]), train=False)
    assert out.tolist() == [[[6.0, 9.0, 12.0]]]


def test_conv1d_kernel_equals_length():
    layer = Conv1D(np.ones((1, 1, 3)), np.zeros(1))
    out = layer.forward(np.array([[[1.0, 2.0, 3.0]]]), train=False)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 6.0


def test_conv2d_hand_example():
    w = np.zeros((1, 1, 2, 2))
    w[0, 0] = [[1.0, 0.0], [0.0, 1.0]]  # picks main diagonal of each window
    layer = Conv2D(w, np.array([0.5]))
    x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
    out = layer.forward(x, train=False)
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0].tolist() == [[4.5, 6.5], [10.5, 12.5]]


def test_maxpool_hand_example():
    layer = MaxPool1D(2)
    out = layer.forward(np.array([[[1.0, 3.0, 2.0, 5.0]]]), train=False)
    assert out.tolist() == [[[3.0, 5.0]]]


def test_maxpool_floor_truncation():
    layer = MaxPool1D(2)
    out = layer.forward(np.array([[[1.0, 3.0, 2.0, 5.0, 9.0]]]), train=False)
    assert out.tolist() == [[[3.0, 5.0]]]  # trailing 9 dropped


def test_softmax_uniform_on_zeros():
    probs = softmax(np.zeros((1, 3)))
    assert probs[0].tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 10, size=(5, 12))
    p = softmax(logits)
    q = softmax(logits + 123.456)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(p, q, atol=1e-9)


def test_loss_crossentropy_examples():
    assert loss_crossentropy(np.array([[0.0, 1.0]]), 1) == pytest.approx(0.0)
    assert loss_crossentropy(np.array([[0.5, 0.5]]), 0) == pytest.approx(np.log(2))
    uniform = np.full((1, 12), 1 / 12)
    assert loss_crossentropy(uniform, 3) == pytest.approx(np.log(12))


def test_loss_crossentropy_epsilon_clamp():
    loss = loss_crossentropy(np.array([[1.0, 0.0]]), 1)
    assert loss == pytest.approx(-np.log(1e-12))


def test_dropout_inference_is_identity():
    layer = Dropout(0.4)
    x = np.random.default_rng(0).normal(size=(8, 5))
    assert np.array_equal(layer.forward(x, train=False), x)


def test_dropout_train_scales_survivors():
    rng = np.random.default_rng(1)
    layer = Dropout(0.5)
    x = np.ones((2000, 10))
    out = layer.forward(x, train=True, rng=rng)
    kept = out[out != 0.0]
    assert np.allclose(kept, 2.0)  # 1 / (1 - 0.5)
    assert abs((out != 0).mean() - 0.5) < 0.05


def test_dropout_needs_rng_in_train_mode():
    with pytest.raises(ValueError):
        Dropout(0.3).forward(np.ones((1, 2)), train=True)


def test_shape_mismatch_names_layer():
    net = Network(NetworkSpec((4,), (dense(3), softmax_output(2))), seed=0)
    with pytest.raises(ShapeMismatchError):
        net.forward(np.zeros((1, 5)))


@pytest.mark.parametrize("input_shape, first, message", [
    ((1, 3, 3), maxpool(4), "layer 0 (maxpool): pool window 4 empties 3x3"),
    ((1, 2, 5), conv2d(4, 3, 3), "layer 0 (conv2d): kernel 3 does not fit input of length 2"),
], ids=["pool", "conv"])
def test_spec_errors_keep_their_own_message(input_shape, first, message):
    with pytest.raises(SpecError) as info:
        NetworkSpec(input_shape, (first, flatten(), softmax_output(2)))
    assert str(info.value) == message


GRADIENT_CASES = {
    "dense_relu": NetworkSpec((6,), (dense(5), activation(), softmax_output(3))),
    "dense_deep": NetworkSpec((4,), (dense(8), activation(), dense(8), activation(),
                                     softmax_output(12))),
    "conv1d_pool": NetworkSpec((2, 11), (conv1d(4, 3), activation(), maxpool(2),
                                         flatten(), softmax_output(3))),
    "conv2d_pool": NetworkSpec((2, 8, 9), (conv2d(4, 3, 3), activation(), maxpool(2),
                                           flatten(), softmax_output(3))),
    "mse_autoenc": NetworkSpec((5,), (dense(7), activation(), dense(3), dense(7),
                                      activation(), dense(5)), loss="mse"),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_gradients_match_finite_differences(name):
    spec = GRADIENT_CASES[name]
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3,) + spec.input_shape)
    if spec.loss == "cross_entropy":
        y = rng.integers(0, spec.layer_shapes()[-1][0], size=3)
    else:
        y = rng.normal(size=(3,) + spec.layer_shapes()[-1])
    err = gradient_check(spec, x, y, epsilon=1e-5, max_checks_per_param=None, seed=1)
    assert err < 1e-4


def test_gradient_check_linear_net_bias_exact():
    # with zero input, the output-layer bias gradient is exact to rounding
    spec = NetworkSpec((3,), (dense(2), softmax_output(2)))
    x = np.zeros((1, 3))
    y = np.array([1])
    err = gradient_check(spec, x, y, epsilon=1e-5, max_checks_per_param=None, seed=0)
    assert err < 1e-7


# Direct loop references for the property tests below. They work on
# (N, C, H, W); the 1D layers are checked on one-row inputs.


def reference_conv(x, w, b, g):
    """Output and the gradients of sum(output * g) by explicit windows."""
    f, c, kh, kw = w.shape
    n, _, h, wid = x.shape
    oh, ow = h - kh + 1, wid - kw + 1
    out = np.zeros((n, f, oh, ow))
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i : i + kh, j : j + kw]
            for fi in range(f):
                out[:, fi, i, j] = (patch * w[fi]).sum(axis=(1, 2, 3)) + b[fi]
                dw[fi] += (g[:, fi, i, j][:, None, None, None] * patch).sum(axis=0)
                dx[:, :, i : i + kh, j : j + kw] += g[:, fi, i, j][:, None, None, None] * w[fi]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def reference_maxpool(x, wh, ww, g):
    """Pooled output, and g routed to the first maximum of each window."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // wh, w // ww))
    dx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // wh):
                for j in range(w // ww):
                    cells = [(i * wh + a, j * ww + bb) for a in range(wh) for bb in range(ww)]
                    best = cells[0]
                    for cell in cells[1:]:
                        if x[ni, ci][cell] > x[ni, ci][best]:
                            best = cell
                    out[ni, ci, i, j] = x[ni, ci][best]
                    dx[ni, ci][best] = g[ni, ci, i, j]
    return out, dx


CONV_RTOL, CONV_ATOL = 1e-10, 1e-12  # float64; summation order differs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), one_d=st.booleans())
def test_conv_matches_loop_reference(data, one_d):
    n, c, f = (data.draw(st.integers(1, 3)) for _ in range(3))
    h = 1 if one_d else data.draw(st.integers(1, 6))
    w = data.draw(st.integers(1, 7))
    kh = 1 if one_d else data.draw(st.integers(1, h))
    kw = data.draw(st.integers(1, w))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, c, h, w))
    weight = rng.normal(size=(f, c, kh, kw))
    bias = rng.normal(size=f)
    g = rng.normal(size=(n, f, h - kh + 1, w - kw + 1))
    out_ref, dx_ref, dw_ref, db_ref = reference_conv(x, weight, bias, g)
    if one_d:
        layer = Conv1D(weight[:, :, 0, :].copy(), bias)
        out = layer.forward(x[:, :, 0, :], train=False)[:, :, None, :]
        dx = layer.backward(g[:, :, 0, :])[:, :, None, :]
        dw = layer._dw[:, :, None, :]
        assert layer._dw.shape == (f, c, kw)
    else:
        layer = Conv2D(weight, bias)
        out = layer.forward(x, train=False)
        dx = layer.backward(g)
        dw = layer._dw
    for got, want in ((out, out_ref), (dx, dx_ref), (dw, dw_ref), (layer._db, db_ref)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=CONV_RTOL, atol=CONV_ATOL)


def with_layout(x, layout):
    """An array equal to x (N, C, H, W) whose memory is laid out as named."""
    if layout == "channels_last":  # how a convolution returns its output
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
    if layout == "strided":  # every other element of a larger array
        big = np.zeros(tuple(2 * n for n in x.shape))
        view = big[::2, ::2, ::2, ::2]
        view[...] = x
        return view
    if layout == "reversed":  # negative strides on the last axis
        return x[..., ::-1].copy()[..., ::-1]
    return x


LAYOUTS = ("contiguous", "channels_last", "strided", "reversed")


@settings(max_examples=80, deadline=None)
@given(data=st.data(), one_d=st.booleans(), layout=st.sampled_from(LAYOUTS))
def test_maxpool_matches_loop_reference_with_ties(data, one_d, layout):
    n, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    window = data.draw(st.integers(1, 3))
    h = 1 if one_d else data.draw(st.integers(window, 7))
    w = data.draw(st.integers(window, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 3, size=(n, c, h, w)).astype(float)  # few values: windows tie
    wh = 1 if one_d else window
    g = rng.normal(size=(n, c, h // wh, w // window))
    out_ref, dx_ref = reference_maxpool(x, wh, window, g)
    x, g = with_layout(x, layout), with_layout(g, layout)
    if one_d:
        layer = MaxPool1D(window)
        out = layer.forward(x[:, :, 0, :], train=False)[:, :, None, :]
        dx = layer.backward(g[:, :, 0, :])[:, :, None, :]
    else:
        layer = MaxPool2D(window)
        out = layer.forward(x, train=False)
        dx = layer.backward(g)
    assert np.array_equal(out, out_ref)
    assert np.array_equal(dx, dx_ref)


def kink_margin(net, x):
    """How near x comes to a ReLU kink or a max-pool tie inside net.

    The smallest |ReLU input| and the smallest gap between the two largest
    values of a pool window; finite differences are exact only away from both.
    """
    margin = np.inf
    for layer in net.layers:
        if isinstance(layer, ReLU):
            margin = min(margin, np.abs(x).min())
        if isinstance(layer, (MaxPool1D, MaxPool2D)):
            grid = x if isinstance(layer, MaxPool2D) else x[:, :, None, :]
            wh = layer.window if isinstance(layer, MaxPool2D) else 1
            n, c, h, w = grid.shape
            oh, ow = h // wh, w // layer.window
            windows = grid[:, :, : oh * wh, : ow * layer.window].reshape(
                n, c, oh, wh, ow, layer.window).transpose(0, 1, 2, 4, 3, 5)
            top = np.sort(windows.reshape(n, c, oh, ow, -1), axis=-1)
            margin = min(margin, (top[..., -1] - top[..., -2]).min())
        x = layer.forward(x, train=False)
    return margin


@settings(max_examples=60, deadline=None)
@given(data=st.data(), one_d=st.booleans())
def test_conv_pool_stack_gradients_match_finite_differences(data, one_d):
    # Blocks of conv, max pool and ReLU. Pooling before the
    # ReLU keeps its zeros out of the windows; inputs that still come near
    # a tie or a kink are drawn away, and ties are left to the loop reference.
    channels = data.draw(st.integers(1, 3))
    shape = [data.draw(st.integers(4, 8)) for _ in range(1 if one_d else 2)]
    input_shape = (channels, *shape)
    layers = []
    for _ in range(data.draw(st.integers(1, 2))):
        kernel = [data.draw(st.integers(1, min(n, 3))) for n in shape]
        filters = data.draw(st.integers(1, 3))
        layers.append(conv1d(filters, *kernel) if one_d else conv2d(filters, *kernel))
        shape = [n - k + 1 for n, k in zip(shape, kernel)]
        if min(shape) >= 2:
            window = data.draw(st.integers(2, min(shape + [3])))
            layers.append(maxpool(window))
            shape = [n // window for n in shape]
        layers.append(activation())
    spec = NetworkSpec(input_shape, tuple(layers) + (flatten(), softmax_output(3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(2,) + input_shape)
    y = rng.integers(0, 3, size=2)
    assume(kink_margin(Network(spec, seed=1), x) > 1e-4)
    err = gradient_check(spec, x, y, epsilon=1e-5, max_checks_per_param=None, seed=1)
    assert err < 1e-4


@settings(max_examples=60, deadline=None)
@given(data=st.data(), one_d=st.booleans())
def test_relu_pool_swap_is_exact(data, one_d):
    # conv -> ReLU -> pool blocks against their conv -> pool -> ReLU twins,
    # some with the pool left out as the builders leave it out on small maps.
    # Integer inputs and weights make windows tie and put values on the
    # ReLU kink at 0.
    shape = [data.draw(st.integers(3, 9)) for _ in range(1 if one_d else 2)]
    input_shape = (data.draw(st.integers(1, 2)), *shape)
    relu_first, pool_first = [], []
    for _ in range(data.draw(st.integers(1, 2))):
        kernel = [data.draw(st.integers(1, min(n, 3))) for n in shape]
        filters = data.draw(st.integers(1, 3))
        conv = conv1d(filters, *kernel) if one_d else conv2d(filters, *kernel)
        shape = [n - k + 1 for n, k in zip(shape, kernel)]
        window = data.draw(st.integers(1, 3))
        pool = [maxpool(window)] if min(shape) >= window and data.draw(st.booleans()) else []
        shape = [n // window for n in shape] if pool else shape
        relu_first += [conv, activation(), *pool]
        pool_first += [conv, *pool, activation()]
    head = (flatten(), dense(4), activation(), softmax_output(3))
    nets = [Network(NetworkSpec(input_shape, tuple(layers) + head), seed=0)
            for layers in (relu_first, pool_first)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for p, twin in zip(*(net.parameters() for net in nets), strict=True):
        p[...] = twin[...] = rng.integers(-2, 3, size=p.shape)
    x = rng.integers(-2, 3, size=(3,) + input_shape).astype(float)
    y = rng.integers(0, 3, size=3)

    outs, grads = [], []
    for net in nets:
        outs.append(net.forward(x))
        net.loss_and_grad(x, y, train=False)
        grads.append(net.gradients())
    assert np.array_equal(*outs)
    for got, want in zip(*grads, strict=True):
        assert np.array_equal(got, want)


def test_network_runs_pool_before_relu_without_touching_the_spec():
    spec = build_cnn2d(8, 16)  # the second pool is skipped on the 1x5 map
    before = spec.to_json()
    net = Network(spec, seed=0)
    assert spec.to_json() == before
    assert [l.kind for l in spec.layers] == [
        "conv2d", "maxpool", "activation", "conv2d", "activation", "flatten",
        "dense", "activation", "dense", "activation", "softmax_output"]
    assert [l.name for l in net.layers] == [
        "conv2d", "maxpool2d", "relu", "conv2d", "relu", "flatten",
        "dense", "relu", "dense", "relu", "softmax_output"]


def channels_last(x):
    """x with the same values, its channel axis (axis 1) innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)


def is_channels_last(x):
    return np.moveaxis(x, 1, -1).flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(data=st.data(), one_d=st.booleans(), pool=st.booleans(),
       x_last=st.booleans(), g_last=st.booleans())
def test_layers_give_the_same_bits_in_either_memory_order(data, one_d, pool, x_last, g_last):
    # The layers hand each other arrays in the order their GEMMs wrote them;
    # the values, and so every bit of the results, must not depend on it.
    n, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    spatial = (data.draw(st.integers(3, 7)),) if one_d else (
        data.draw(st.integers(3, 7)), data.draw(st.integers(3, 7)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(n, c, *spatial)).astype(float)  # ties in pool windows
    if pool:
        window = data.draw(st.integers(1, 3))
        make = lambda: MaxPool1D(window) if one_d else MaxPool2D(window)
        out_shape = (n, c, *(s // window for s in spatial))
    else:
        kernel = tuple(data.draw(st.integers(1, s)) for s in spatial)
        weight = rng.normal(size=(data.draw(st.integers(1, 3)), c, *kernel))
        bias = rng.normal(size=weight.shape[0])
        make = lambda: (Conv1D if one_d else Conv2D)(weight.copy(), bias.copy())
        out_shape = (n, weight.shape[0], *(s - k + 1 for s, k in zip(spatial, kernel)))
    g = rng.normal(size=out_shape)

    def run(x, g):
        layer = make()
        out = layer.forward(x, train=False).copy()
        return [out, layer.backward(g), *layer.grads()]

    want = run(x, g)
    got = run(channels_last(x) if x_last else x, channels_last(g) if g_last else g)
    assert len(got) == len(want) == (2 if pool else 4)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("one_d", [False, True])
def test_pool_after_conv_returns_dx_in_the_conv_output_order(one_d):
    # A conv writes its output channels-last; the pool's dx must come back in
    # that order, so the conv's backward reads it without a copy.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 9) if one_d else (2, 3, 9, 8))
    conv = (Conv1D if one_d else Conv2D)(rng.normal(size=(4, 3, 2) if one_d else (4, 3, 2, 2)),
                                         np.zeros(4))
    pool = (MaxPool1D if one_d else MaxPool2D)(2)
    fmap = conv.forward(x, train=False)
    pooled = pool.forward(fmap, train=False)
    dx = pool.backward(rng.normal(size=pooled.shape))
    assert is_channels_last(fmap) and not fmap.flags.c_contiguous
    assert is_channels_last(dx) and dx.shape == fmap.shape
    pool.forward(fmap, train=False)  # a backward consumes its forward's state
    assert pool.backward(np.ascontiguousarray(rng.normal(size=pooled.shape))).strides == dx.strides


@st.composite
def built_specs(draw):
    """A network of each builder, on a drawn input size."""
    kind = draw(st.sampled_from(("mlp", "cnn1d", "cnn2d", "autoencoder")))
    if kind == "mlp":
        return build_mlp(draw(st.integers(1, 40)))
    if kind == "cnn1d":
        return build_cnn1d(draw(st.integers(MIN_SIDE, 60)))
    if kind == "cnn2d":
        return build_cnn2d(draw(st.integers(MIN_SIDE, 24)), draw(st.integers(MIN_SIDE, 24)))
    d = draw(st.integers(2, 40))
    return build_autoencoder(d, draw(st.integers(1, d - 1)))


@settings(max_examples=40, deadline=None)
@given(spec=built_specs(), rows=st.integers(1, 2 * PREDICT_ROWS + 2), train=st.booleans())
def test_the_spec_walk_gives_every_layer_output_shape(spec, rows, train):
    # The layers check no shapes, so the walk's shapes must be theirs.
    net = Network(spec, seed=0)
    shapes = spec.layer_shapes()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(rows, *spec.input_shape))
    out = x
    for layer, shape in zip(net.layers, shapes, strict=True):
        out = layer.forward(out, train, rng)
        assert out.shape == (rows, *shape), layer.name
    assert net.predict(x).shape == (rows, *shapes[-1])
