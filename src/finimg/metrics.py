"""Accuracy, notch-distance metrics, and binary precision/recall/F1.

A notch is the signed difference between predicted and true rating class.
The expected absolute notch weights each notch by its frequency; the
conditional variant averages only over wrong predictions, so it reads as
"how far off, given that we are off".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import N_CLASSES


class EmptyPredictionsError(ValueError):
    """Raised when a metric is asked about zero predictions."""


class AllCorrectError(ValueError):
    """Conditional notch distance is undefined with no wrong predictions."""


@dataclass(frozen=True)
class PredictionSet:
    y_true: np.ndarray
    y_pred: np.ndarray

    def __post_init__(self):
        if self.y_true.shape != self.y_pred.shape or self.y_true.ndim != 1:
            raise ValueError("y_true and y_pred must be equal-length vectors")
        for arr in (self.y_true, self.y_pred):
            if arr.size and (arr.min() < 0 or arr.max() >= N_CLASSES):
                raise ValueError(f"classes outside 0..{N_CLASSES - 1}")

    def __len__(self) -> int:
        return self.y_true.shape[0]


@dataclass(frozen=True)
class NotchDistribution:
    """Frequency of each signed notch; frequencies sum to 1."""

    freq: dict[int, float]

    def __post_init__(self):
        total = sum(self.freq.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"notch frequencies sum to {total}, not 1")


def _require_nonempty(p: PredictionSet) -> None:
    if len(p) == 0:
        raise EmptyPredictionsError("no predictions")


def accuracy(p: PredictionSet) -> float:
    _require_nonempty(p)
    return float((p.y_true == p.y_pred).mean())


def notch_frequency(p: PredictionSet) -> NotchDistribution:
    """F(i) = fraction of observations with predicted - true == i."""
    _require_nonempty(p)
    diffs = p.y_pred - p.y_true
    notches, counts = np.unique(diffs, return_counts=True)
    n = len(p)
    return NotchDistribution({int(i): int(c) / n for i, c in zip(notches, counts)})


def expected_abs_notch(d: NotchDistribution) -> float:
    """Expected absolute notch, sum of |i| * F(i)."""
    return float(sum(abs(i) * f for i, f in d.freq.items()))


def conditional_notch(d: NotchDistribution) -> float:
    """Expected absolute notch over wrong predictions only."""
    wrong = {i: f for i, f in d.freq.items() if i != 0}
    mass = sum(wrong.values())
    if mass <= 0.0:
        raise AllCorrectError("all predictions correct; conditional notch undefined")
    return float(sum(abs(i) * f for i, f in wrong.items()) / mass)


class UndefinedRateError(ValueError):
    """Raised when precision or recall has a zero denominator."""


def precision_recall_f1_binary(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp + fp == 0:
        raise UndefinedRateError("precision undefined: no positive predictions")
    if tp + fn == 0:
        raise UndefinedRateError("recall undefined: no positive truths")
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0.0:
        return 0.0, 0.0, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1
