"""Helpers that only the tests use: observation fixtures, the
finite-difference gradient check, the generator's oracle, a fit that
reports a hash of its parameters (importable by name, so a pool worker
can run it), and layer inputs: channels-last copies, and values with NaN,
infinities, signed zeros and ties.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from finimg.data import Dataset, DatasetError
from finimg.experiment import ExperimentConfig, fit_pipeline
from finimg.nnet import Network, NetworkSpec, TrainConfig
from finimg.schema import FUNDAMENTAL_SECTIONS, N_CLASSES, FeatureSchema
from finimg.synthetic import SyntheticSpec, generate_synthetic, loading_signs, yearly_quantile_labels


@dataclass(frozen=True)
class Observation:
    entity_id: str
    year: int
    quarter: int
    values: np.ndarray
    label: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise DatasetError(f"quarter {self.quarter} outside 1..4")
        if not 0 <= self.label < N_CLASSES:
            raise DatasetError(f"label {self.label} outside 0..{N_CLASSES - 1}")


def dataset_from_observations(schema: FeatureSchema, obs: list[Observation]) -> Dataset:
    values = np.array([o.values for o in obs], dtype=float) if obs else np.empty((0, len(schema)))
    return Dataset(
        schema=schema,
        entity_ids=tuple(o.entity_id for o in obs),
        years=np.array([o.year for o in obs], dtype=int),
        quarters=np.array([o.quarter for o in obs], dtype=int),
        values=values,
        labels=np.array([o.label for o in obs], dtype=int),
    )


def gradient_check(spec: NetworkSpec, inputs: np.ndarray, targets: np.ndarray,
                   epsilon: float = 1e-5, max_checks_per_param: int | None = 60,
                   seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every pass runs in training mode with a fresh generator of one seed, so
    each draws the same dropout masks: the loss is deterministic, and
    dropout's backward is checked too. Large parameter tensors are
    spot-checked at seeded coordinates.
    """
    net = Network(spec, seed=seed)
    net.loss_and_grad(inputs, targets, train=True, rng=np.random.default_rng(seed))
    analytic = [g.copy() for g in net.gradients()]

    def loss() -> float:
        out = net.forward(inputs, train=True, rng=np.random.default_rng(seed))
        return net._loss(out, targets)

    rng = np.random.default_rng(seed + 12345)
    worst = 0.0
    for p, g in zip(net.parameters(), analytic):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        size = flat_p.shape[0]
        if max_checks_per_param is None or size <= max_checks_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_checks_per_param, replace=False)
        for i in coords:
            orig = flat_p[i]
            flat_p[i] = orig + epsilon
            up = loss()
            flat_p[i] = orig - epsilon
            down = loss()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * epsilon)
            denom = max(abs(fd), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


def oracle_accuracy(ds: Dataset) -> float:
    """Accuracy of the section-score oracle that mirrors the generator.

    Estimates each section factor as the sign-weighted section mean,
    sums them, and rebins by per-year quantiles. Reaches 1.0 when noise
    is 0 and factor_strength is positive.
    """
    signs = loading_signs(ds.schema)
    est = np.zeros(len(ds))
    for sl in ds.schema.section_slices().values():
        est += (ds.values[:, sl] * signs[sl]).mean(axis=1)
    predicted = yearly_quantile_labels(est, ds.years)
    return float((predicted == ds.labels).mean())


def tail_batch_case() -> tuple[ExperimentConfig, Dataset]:
    """96 CHUNKY features, 150 rows a year over 2012-2016, batch 64 and 2
    epochs: 600 training rows end each epoch on a 24-row batch, whose
    conv weight-gradient GEMM gives other bits at 2 BLAS threads than at 1."""
    spec = SyntheticSpec(n_per_year=150, years=(2012, 2016),
                         section_counts={s: 16 for s in FUNDAMENTAL_SECTIONS},
                         factor_strength=0.9, noise=1.5, seed=7)
    config = ExperimentConfig(synthetic=spec, test_year=2016, methods=("hva",),
                              train=TrainConfig(epochs=2, batch_size=64, seed=7))
    return config, generate_synthetic(spec)


def parameter_hash(config: ExperimentConfig, ds: Dataset, method: str, train_seed: int) -> str:
    """sha256 of one fit's classifier parameters, concatenated in layer order."""
    pipe, _, _ = fit_pipeline(config, method, ds, train_seed)
    return hashlib.sha256(b"".join(p.tobytes() for p in pipe.network.parameters())).hexdigest()


def channels_last(x: np.ndarray) -> np.ndarray:
    """x with the same values, its channel axis innermost, as a conv hands it on."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)


def special_values(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draws with NaN, infinities, zeros of both signs and ties mixed in."""
    x = rng.normal(size=shape)
    picks = rng.integers(0, 8, size=shape)
    for k, value in enumerate((np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0)):
        x[picks == k] = value
    return x
