import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg.nnet import (
    ENCODER_LAYERS,
    DivergenceError,
    InputTooSmallError,
    Network,
    NetworkSpec,
    TrainConfig,
    backward_and_step,
    build_autoencoder,
    build_cnn1d,
    build_cnn2d,
    build_mlp,
    classification_accuracy,
    grid_search,
    make_optimizer,
    network_arrays,
    network_from_arrays,
    save_arrays,
)
from finimg.nnet.network import PREDICT_ROWS, SpecError, dense, softmax_output
from finimg.nnet.train import train


def separable_toy(n=200, seed=0):
    """Two well-separated Gaussian blobs in 2D, labels 0 and 1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([
        rng.normal(-2.0, 0.4, size=(half, 2)),
        rng.normal(2.0, 0.4, size=(n - half, 2)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    perm = rng.permutation(n)
    return x[perm], y[perm]


def test_builder_shapes_match_arithmetic():
    shapes = build_cnn1d(332).layer_shapes()
    lengths = [s[1] for s in shapes if len(s) == 2]
    assert lengths[:6] == [330, 165, 165, 163, 81, 81]
    shapes = build_cnn1d(69).layer_shapes()
    lengths = [s[1] for s in shapes if len(s) == 2]
    assert lengths[:6] == [67, 33, 33, 31, 15, 15]


def test_builder_cnn2d_feature_maps():
    shapes = build_cnn2d(18, 27).layer_shapes()
    spatial = [s[1:] for s in shapes if len(s) == 3]
    assert spatial[:6] == [(16, 25), (8, 12), (8, 12), (6, 10), (3, 5), (3, 5)]
    shapes = build_cnn2d(32, 32).layer_shapes()
    spatial = [s[1:] for s in shapes if len(s) == 3]
    assert spatial[:6] == [(30, 30), (15, 15), (15, 15), (13, 13), (6, 6), (6, 6)]


def test_builder_cnn2d_skips_degenerate_pool():
    spec = build_cnn2d(8, 16)
    spatial = [s[1:] for s in spec.layer_shapes() if len(s) == 3]
    # 6x14 -> pool 3x7 -> conv 1x5, second pool skipped (would floor to 0)
    assert spatial == [(6, 14), (3, 7), (3, 7), (1, 5), (1, 5)]
    kinds = [l.kind for l in spec.layers]
    assert kinds.count("maxpool") == 1


def test_builder_input_guards():
    with pytest.raises(InputTooSmallError):
        build_cnn1d(6)
    with pytest.raises(InputTooSmallError):
        build_cnn2d(6, 30)
    with pytest.raises(InputTooSmallError):
        build_cnn2d(7, 7)  # second conv has no room after pooling
    # 7 -> conv 5 -> pool 2 leaves no room for the second kernel-3 conv; 8 is the minimum.
    with pytest.raises(InputTooSmallError, match="input 7 too small"):
        build_cnn1d(7)
    with pytest.raises(InputTooSmallError, match="input 8x7 too small"):
        build_cnn2d(8, 7)
    assert build_cnn1d(8).input_shape == (1, 8)
    assert build_cnn2d(8, 8).input_shape == (1, 8, 8)


def test_mlp_parameter_count_by_shape_arithmetic():
    def expected(d):
        return (d * 128 + 128) + (128 * 128 + 128) + (128 * 12 + 12)

    assert build_mlp(332).parameter_count() == expected(332)
    assert build_mlp(69).parameter_count() == expected(69)


@st.composite
def builder_specs(draw):
    kind = draw(st.sampled_from(["mlp", "cnn1d", "cnn2d", "autoencoder"]))
    if kind == "mlp":
        return build_mlp(draw(st.integers(1, 40)))
    if kind == "autoencoder":
        d = draw(st.integers(2, 40))
        return build_autoencoder(d, draw(st.integers(1, d - 1)), hidden=draw(st.integers(1, 32)))
    filters = {"filters1": draw(st.integers(1, 8)), "filters2": draw(st.integers(1, 8))}
    if kind == "cnn1d":
        return build_cnn1d(draw(st.integers(8, 40)), **filters)
    return build_cnn2d(draw(st.integers(8, 20)), draw(st.integers(8, 20)), **filters)


@settings(max_examples=40, deadline=None)
@given(builder_specs())
def test_parameter_count_matches_initialized_network(spec):
    # The counting walk and the initialization walk see the same layer shapes.
    assert spec.parameter_count() == sum(p.size for p in Network(spec, seed=0).parameters())


def test_mlp_inference_repeatable_despite_dropout():
    net = Network(build_mlp(10), seed=0)
    x = np.random.default_rng(1).normal(size=(4, 10))
    assert np.array_equal(net.predict(x), net.predict(x))


def test_train_zero_epochs_returns_initialization():
    x, y = separable_toy(40)
    spec = build_mlp(2)
    cfg = TrainConfig(epochs=0, seed=3)
    net = train(spec, x, y, cfg)
    fresh = Network(spec, seed=3)
    for a, b in zip(net.parameters(), fresh.parameters()):
        assert np.array_equal(a, b)
    assert net.history == []


def test_sgd_step_matches_hand_gradient():
    # dense(2->2 softmax output) on one sample; dW = x^T (p - onehot)
    spec = NetworkSpec((2,), (softmax_output(2),))
    net = Network(spec, seed=5)
    x = np.array([[1.0, 2.0]])
    y = np.array([1])
    w_before = net.parameters()[0].copy()
    b_before = net.parameters()[1].copy()
    probs = net.predict(x)[0]
    expected_dlogits = probs - np.array([0.0, 1.0])
    opt = make_optimizer(TrainConfig(learning_rate=0.1, optimizer="sgd"), net.parameters())
    backward_and_step(net, x, y, opt, rng=np.random.default_rng(0))
    dw = np.outer(x[0], expected_dlogits)
    assert np.allclose(net.parameters()[0], w_before - 0.1 * dw, atol=1e-12)
    assert np.allclose(net.parameters()[1], b_before - 0.1 * expected_dlogits, atol=1e-12)


def test_zero_learning_rate_keeps_parameters():
    x, y = separable_toy(30)
    spec = build_mlp(2)
    net = train(spec, x, y, TrainConfig(learning_rate=0.0, epochs=2, seed=1, optimizer="sgd"))
    fresh = Network(spec, seed=1)
    for a, b in zip(net.parameters(), fresh.parameters()):
        assert np.array_equal(a, b)


def test_training_is_deterministic():
    x, y = separable_toy(60)
    cfg = TrainConfig(epochs=5, seed=9)
    a = train(build_mlp(2), x, y, cfg)
    b = train(build_mlp(2), x, y, cfg)
    assert a.history == b.history
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.tobytes() == pb.tobytes()


def test_different_seed_changes_parameters():
    x, y = separable_toy(60)
    a = train(build_mlp(2), x, y, TrainConfig(epochs=2, seed=1))
    b = train(build_mlp(2), x, y, TrainConfig(epochs=2, seed=2))
    assert any(pa.tobytes() != pb.tobytes() for pa, pb in zip(a.parameters(), b.parameters()))


def test_separable_toy_reaches_full_accuracy():
    x, y = separable_toy(200)
    net = train(build_mlp(2, classes=2), x, y, TrainConfig(epochs=100, seed=0))
    assert classification_accuracy(net, x, y) == 1.0
    # a training point classifies to its own label
    assert net.predict_classes(x[:1])[0] == y[0]


def test_training_loss_decreases_on_toy():
    x, y = separable_toy(100)
    net = train(build_mlp(2, classes=2), x, y, TrainConfig(epochs=30, seed=0))
    assert net.history[-1] < net.history[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_on_huge_lr():
    x, y = separable_toy(50)
    with pytest.raises(DivergenceError):
        train(build_mlp(2, classes=2), x * 1e150, y,
              TrainConfig(learning_rate=1e200, epochs=5, seed=0, optimizer="sgd"))


def test_predict_probabilities_sum_to_one():
    net = Network(build_cnn2d(8, 8), seed=0)
    x = np.random.default_rng(0).normal(size=(3, 1, 8, 8))
    probs = net.predict(x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert probs.shape == (3, 12)


@pytest.mark.parametrize("spec", [build_mlp(10), build_cnn1d(12), build_cnn2d(8, 9)],
                         ids=["mlp", "cnn1d", "cnn2d"])
def test_predict_in_chunks_matches_one_forward_pass(spec):
    net = Network(spec, seed=0)
    rng = np.random.default_rng(1)
    forward, sizes = net.forward, []

    def counted(x, **kw):
        sizes.append(len(x))
        return forward(x, **kw)

    net.forward = counted
    for rows in (0, 1, 63, 64, 65, 1000):
        x = rng.normal(size=(rows, *spec.input_shape))
        sizes.clear()
        probs = net.predict(x)
        assert sizes == [PREDICT_ROWS] * (rows // PREDICT_ROWS) + (
            [rows % PREDICT_ROWS] if rows % PREDICT_ROWS or not rows else [])
        whole = forward(x, train=False)
        assert probs.shape == whole.shape == (rows, 12)
        assert np.array_equal(probs.argmax(axis=1), whole.argmax(axis=1))
        np.testing.assert_allclose(probs, whole, rtol=0, atol=1e-12)
        assert np.array_equal(net.predict_classes(x), whole.argmax(axis=1))
    assert PREDICT_ROWS == 64


def test_zero_weight_net_is_uniform():
    net = Network(NetworkSpec((4,), (softmax_output(3),)), seed=0)
    for p in net.parameters():
        p[...] = 0.0
    probs = net.predict(np.random.default_rng(2).normal(size=(2, 4)))
    assert np.allclose(probs, 1 / 3, atol=1e-12)


def test_autoencoder_shapes_and_training():
    spec = build_autoencoder(332, 69)
    assert spec.loss == "mse"
    assert spec.layer_shapes()[-1] == (332,)
    net = Network(spec, seed=0)
    x = np.random.default_rng(0).normal(size=(4, 332))
    codes = x
    for layer in net.layers[:ENCODER_LAYERS]:
        codes = layer.forward(codes, train=False)
    assert codes.shape == (4, 69)


def test_autoencoder_training_reduces_reconstruction_error():
    rng = np.random.default_rng(0)
    # rank-2 data in 6 dims is compressible through a 2-wide bottleneck
    basis = rng.normal(size=(2, 6))
    x = rng.normal(size=(300, 2)) @ basis
    spec = build_autoencoder(6, 2, hidden=32)
    untrained = Network(spec, seed=1)
    before = float(((untrained.predict(x) - x) ** 2).mean())
    net = train(spec, x, x, TrainConfig(epochs=200, seed=1, learning_rate=3e-3))
    after = float(((net.predict(x) - x) ** 2).mean())
    assert after < before
    assert after < 0.05 * float((x**2).mean())


def test_autoencoder_code_dim_guard():
    with pytest.raises(SpecError):
        build_autoencoder(10, 10)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    x, y = separable_toy(40)
    net = train(build_mlp(2, classes=2), x, y, TrainConfig(epochs=3, seed=4))
    path = tmp_path / "model.npz"
    save_arrays(path, network_arrays(net))
    with np.load(path, allow_pickle=False) as data:
        back = network_from_arrays(data)
    assert back.spec == net.spec
    for a, b in zip(net.parameters(), back.parameters()):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(back.predict(x), net.predict(x))


CNN1D_12_JSON = (
    '{"input_shape": [1, 12], "layers": ['
    '{"args": {"filters": 64, "kernel": 3, "padding": "valid"}, "kind": "conv1d"}, '
    '{"args": {"window": 2}, "kind": "maxpool"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"filters": 32, "kernel": 3, "padding": "valid"}, "kind": "conv1d"}, '
    '{"args": {"window": 2}, "kind": "maxpool"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {}, "kind": "flatten"}, '
    '{"args": {"units": 128}, "kind": "dense"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"units": 128}, "kind": "dense"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"classes": 12}, "kind": "softmax_output"}], "loss": "cross_entropy"}'
)
CNN2D_8_16_JSON = (
    '{"input_shape": [1, 8, 16], "layers": ['
    '{"args": {"filters": 64, "kernel_h": 3, "kernel_w": 3, "padding": "valid"}, "kind": "conv2d"}, '
    '{"args": {"window": 2}, "kind": "maxpool"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"filters": 32, "kernel_h": 3, "kernel_w": 3, "padding": "valid"}, "kind": "conv2d"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {}, "kind": "flatten"}, '
    '{"args": {"units": 128}, "kind": "dense"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"units": 128}, "kind": "dense"}, '
    '{"args": {"kind": "relu"}, "kind": "activation"}, '
    '{"args": {"classes": 12}, "kind": "softmax_output"}], "loss": "cross_entropy"}'
)


def test_builder_spec_json_is_pinned():
    # Stored checkpoints hold this JSON; its keys and layer order must not drift.
    assert build_cnn1d(12).to_json() == CNN1D_12_JSON
    assert build_cnn2d(8, 16).to_json() == CNN2D_8_16_JSON


@pytest.mark.parametrize("spec", [build_mlp(10), build_cnn1d(12), build_cnn2d(8, 16),
                                  build_autoencoder(10, 4)], ids=["mlp", "cnn1d", "cnn2d", "ae"])
def test_network_arrays_roundtrip(spec):
    net = Network(spec, seed=3)
    rng = np.random.default_rng(0)
    for p in net.parameters():  # not the seed's initialization
        p[...] = rng.normal(size=p.shape)
    back = network_from_arrays(network_arrays(net, "net_"), "net_")
    assert back.spec == net.spec
    for a, b in zip(net.parameters(), back.parameters(), strict=True):
        assert a.tobytes() == b.tobytes()
    x = rng.normal(size=(4,) + spec.input_shape)
    assert np.array_equal(back.predict(x), net.predict(x))


def test_grid_search_full_table():
    x, y = separable_toy(60)
    vx, vy = separable_toy(30, seed=5)

    def builder(n1, n2):
        return NetworkSpec((2,), (dense(n1), softmax_output(2)))

    cfg = TrainConfig(epochs=3, seed=0)
    best, rows = grid_search(builder, [16, 32, 64, 128], (x, y), (vx, vy), cfg)
    assert len(rows) == 16
    assert [(r.neurons1, r.neurons2) for r in rows[:4]] == [
        (16, 16), (16, 32), (16, 64), (16, 128)
    ]
    assert all(r.error is None for r in rows)
    best_row = max(
        (r for r in rows), key=lambda r: (r.val_accuracy, -r.parameter_count)
    )
    assert best == (best_row.neurons1, best_row.neurons2)


def test_grid_search_single_cell():
    x, y = separable_toy(40)

    def builder(n1, n2):
        return build_mlp(2, classes=2)

    best, rows = grid_search(builder, [64], (x, y), (x, y), TrainConfig(epochs=2, seed=0))
    assert best == (64, 64)
    assert len(rows) == 1


def test_grid_search_tie_breaks_by_parameter_count():
    x, y = separable_toy(40)

    def builder(n1, n2):
        return NetworkSpec((2,), (dense(n1), softmax_output(2)))

    # zero epochs: every cell has identical (initial) accuracy
    best, rows = grid_search(builder, [64, 16], (x, y), (x, y),
                             TrainConfig(epochs=0, seed=0))
    accs = {r.val_accuracy for r in rows}
    if len(accs) == 1:
        assert best == (16, 16)


def test_grid_search_records_cell_errors():
    x, y = separable_toy(40)

    def builder(n1, n2):
        if n1 == 64:
            raise ValueError("planted failure")
        return NetworkSpec((2,), (dense(n1), softmax_output(2)))

    best, rows = grid_search(builder, [16, 64], (x, y), (x, y),
                             TrainConfig(epochs=1, seed=0))
    failed = [r for r in rows if r.error is not None]
    assert len(failed) == 2
    assert best[0] == 16
