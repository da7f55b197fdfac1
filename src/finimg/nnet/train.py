"""Training loop, optimizers, and grid search.

Everything is driven by one seeded generator per run: initialization,
batch shuffling, and dropout all consume the same stream, so a (spec,
data, config) triple reproduces parameters bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lanes import one_blas_thread
from .network import Network, NetworkSpec


class DivergenceError(ArithmeticError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch size >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


class _Adam:
    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class _SGD:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads):
            p -= self.lr * g


def make_optimizer(config: TrainConfig, params: list[np.ndarray]):
    if config.optimizer == "adam":
        return _Adam(params, config.learning_rate)
    return _SGD(params, config.learning_rate)


def backward_and_step(net: Network, inputs: np.ndarray, targets: np.ndarray,
                      optimizer, rng: np.random.Generator) -> float:
    """One gradient step on a batch; returns the batch loss."""
    loss = net.loss_and_grad(inputs, targets, train=True, rng=rng)
    grads = net.gradients()
    if not math.isfinite(loss) or any(not np.isfinite(g).all() for g in grads):
        raise DivergenceError("non-finite loss or gradient")
    optimizer.step(net.parameters(), grads)
    return loss


@one_blas_thread()
def train(spec: NetworkSpec, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> Network:
    """Train a fresh network; history holds the mean loss per epoch."""
    net = Network(spec, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    optimizer = make_optimizer(config, net.parameters())
    n = inputs.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss = backward_and_step(net, inputs[idx], targets[idx], optimizer, rng)
            total += loss * idx.shape[0]
        net.history.append(total / n)
    return net


def classification_accuracy(net: Network, inputs: np.ndarray, labels: np.ndarray) -> float:
    return float((net.predict_classes(inputs) == np.asarray(labels)).mean())


@dataclass(frozen=True)
class GridSearchRow:
    neurons1: int
    neurons2: int
    train_accuracy: float | None
    val_accuracy: float | None
    parameter_count: int
    error: str | None = None


def grid_search(builder, neuron_grid, train_xy, val_xy, config: TrainConfig):
    """Train one model per (neurons1, neurons2) pair of the grid.

    builder(neurons1, neurons2) must return a NetworkSpec. Returns the
    best (neurons1, neurons2) by validation accuracy (ties prefer fewer
    parameters, then grid order) and the full table of rows.
    """
    neuron_grid = list(neuron_grid)
    if not neuron_grid:
        raise ValueError("neuron grid is empty")
    train_x, train_y = train_xy
    val_x, val_y = val_xy
    rows: list[GridSearchRow] = []
    for n1 in neuron_grid:
        for n2 in neuron_grid:
            try:
                spec = builder(n1, n2)
                net = train(spec, train_x, train_y, config)
                rows.append(GridSearchRow(n1, n2, classification_accuracy(net, train_x, train_y),
                                          classification_accuracy(net, val_x, val_y),
                                          spec.parameter_count()))
            except (DivergenceError, ValueError) as exc:
                rows.append(GridSearchRow(n1, n2, None, None, 0, str(exc)))
    scored = [r for r in rows if r.error is None]
    if not scored:
        raise DivergenceError("every grid cell failed to train")
    best = max(scored, key=lambda r: (r.val_accuracy, -r.parameter_count))
    return (best.neurons1, best.neurons2), rows
