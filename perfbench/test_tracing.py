"""The tracer's exact counts against hand-computed values.

    python3 -m pytest perfbench
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from finimg import experiment  # noqa: E402
from finimg.nnet import Network, TrainConfig, build_cnn2d  # noqa: E402
from finimg.schema import FUNDAMENTAL_SECTIONS  # noqa: E402
from finimg.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402
from tracing import Tracer  # noqa: E402

N = 4  # batch rows


def _gemm(m, k, n):
    return 2 * m * k * n


def _one_step(tracer):
    """Forward and backward of build_cnn2d(8, 8) on one batch.

    Shapes: 1x8x8 -conv 64@3x3-> 64x6x6 -relu, pool 2-> 64x3x3 -conv 32@3x3->
    32x1x1 -relu (no pool: 1x1 cannot halve) -> flatten 32 -dense 128, relu->
    -dense 128, relu-> softmax 12.
    """
    net = Network(build_cnn2d(8, 8), seed=0)
    x = np.random.default_rng(0).normal(size=(N, 1, 8, 8))
    y = np.arange(N)
    with tracer.installed():
        net.loss_and_grad(x, y, train=True, rng=np.random.default_rng(1))


def test_layer_counts_of_one_step_match_hand_computed_values():
    tracer = Tracer()
    _one_step(tracer)
    m = tracer.metrics()
    assert m["nnet.conv2d.elements"] == N * 1 * 8 * 8 + N * 64 * 3 * 3
    assert m["nnet.relu.elements"] == N * 64 * 6 * 6 + N * 32 + N * 128 + N * 128
    assert m["nnet.maxpool2d.elements"] == N * 64 * 6 * 6
    assert m["nnet.dense.elements"] == N * 32 + N * 128
    assert m["nnet.softmax_output.elements"] == N * 128
    assert m["nnet.conv1d.elements"] == m["nnet.dropout.elements"] == 0

    conv1 = _gemm(N * 6 * 6, 1 * 3 * 3, 64)
    conv2 = _gemm(N * 1 * 1, 64 * 3 * 3, 32)
    conv2_dx = _gemm(N * 3 * 3, 32 * 3 * 3, 64)  # the first conv needs no input gradient
    assert m["nnet.conv2d.gflop"] == (2 * conv1 + 2 * conv2 + conv2_dx) / 1e9
    dense = _gemm(N, 32, 128) + _gemm(N, 128, 128)
    assert m["nnet.dense.gflop"] == 3 * dense / 1e9  # forward, weight and input gradients
    assert m["nnet.conv1d.gflop"] == 0


def test_training_counts_and_unchanged_results():
    x = np.random.default_rng(2).normal(size=(10, 1, 8, 8))
    y = np.arange(10) % 12
    config = TrainConfig(epochs=2, batch_size=4, seed=3)
    plain = experiment.train(build_cnn2d(8, 8), x, y, config)
    tracer = Tracer()
    with tracer.installed():
        traced = experiment.train(build_cnn2d(8, 8), x, y, config)
    m = tracer.metrics()
    assert m["nnet.batches"] == 2 * 3  # batches of 4, 4, 2 per epoch
    assert m["nnet.samples"] == 2 * 10
    assert m["nnet.train_s"] > 0 and m["nnet.optimizer_s"] > 0
    for a, b in zip(plain.parameters(), traced.parameters()):
        assert np.array_equal(a, b)


def test_fit_counts_and_wrappers_removed():
    spec = SyntheticSpec(n_per_year=24, years=(2015, 2016),
                         section_counts={s: 8 for s in FUNDAMENTAL_SECTIONS}, seed=1)
    ds = generate_synthetic(spec)
    config = experiment.ExperimentConfig(synthetic=spec, methods=("sa",),
                                         train=TrainConfig(epochs=1, batch_size=64))
    before = {(t.owner, t.attr): vars(t.owner)[t.attr] for t in Tracer().targets}
    tracer = Tracer()
    with tracer.installed():
        experiment.fit_pipeline(config, "sa", ds, 0)
    m = tracer.metrics()
    assert m["experiment.fits"] == 1
    assert m["experiment.fit_s.sa"] > 0 and m["experiment.fit_s.hva"] == 0
    assert m["nnet.batches"] == 1 and m["nnet.samples"] == 24
    assert {(t.owner, t.attr): vars(t.owner)[t.attr] for t in tracer.targets} == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["data.split", 0.0, 10.0, -1, None],
        ["data.standardize", 1.0, 4.0, 0, None],
        ["encoding.arrange", 2.0, 3.0, 1, None],
        ["data.standardize", 5.0, 6.0, 0, None],
    ]
    selfs = tracer.self_times()
    assert selfs["data.split"] == 10.0 - 3.0 - 1.0
    assert selfs["data.standardize"] == 2.0 + 1.0
    assert selfs["encoding.arrange"] == 1.0
