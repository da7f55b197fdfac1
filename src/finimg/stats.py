"""Sample summaries, one-sided t-tests, and Bonferroni-corrected rankings.

The Student t CDF is computed from the regularized incomplete beta
function (continued fraction, Lentz's method), accurate to well below
1e-8 against reference tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# The level of every test: the one-sided verdicts and the pairwise Bonferroni family.
SIGNIFICANCE = 0.05


class InsufficientSamplesError(ValueError):
    """Raised when a statistic needs more samples than were given."""


class ZeroVarianceError(ValueError):
    """Raised when a t statistic divides by a zero standard error."""


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    stderr: float


def summarize(samples) -> SampleSummary:
    """Mean and standard error (sample stddev over sqrt(n))."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {x.size}")
    sd = float(x.std(ddof=1))
    return SampleSummary(n=int(x.size), mean=float(x.mean()), stderr=sd / math.sqrt(x.size))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300

    def clamp(v: float) -> float:  # NaN passes through
        return tiny if abs(v) < tiny else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / clamp(1.0 + aa * d)
            c = clamp(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def one_sample_t_greater(samples, reference: float) -> tuple[float, float]:
    """One-sided test that the reference value exceeds the sample mean.

    t = (reference - mean) / stderr, p = 1 - T_cdf(t, n - 1). Small p
    means the reference is significantly above the samples.
    """
    x = np.asarray(samples, dtype=float)
    s = summarize(x)
    if s.stderr == 0.0 or x.min() == x.max():
        raise ZeroVarianceError("samples have zero variance")
    t = (reference - s.mean) / s.stderr
    return t, 1.0 - t_cdf(t, s.n - 1)


def welch_t_test(a, b) -> tuple[float, float]:
    """Two-sided Welch t-test; returns (t, p)."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size < 2 or xb.size < 2:
        raise InsufficientSamplesError("each group needs at least 2 samples")
    va = xa.var(ddof=1) / xa.size
    vb = xb.var(ddof=1) / xb.size
    if va + vb == 0.0:
        return 0.0, 1.0
    t = (xa.mean() - xb.mean()) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (xa.size - 1) + vb**2 / (xb.size - 1))
    p = 2.0 * (1.0 - t_cdf(abs(t), df))
    return float(t), float(p)


@dataclass(frozen=True)
class RankGrouping:
    """Methods ranked by mean (best first) with non-significance groups.

    Groups are contiguous index ranges over the ranking; two methods that
    are not significantly different always share at least one group.
    """

    ranking: tuple[str, ...]
    groups: tuple[tuple[int, int], ...]

    def as_text(self) -> str:
        return " ".join(f"[{' '.join(self.ranking[start : stop + 1])}]"
                        for start, stop in self.groups)


def pairwise_t_bonferroni(groups: dict[str, list[float]],
                          ) -> tuple[dict[tuple[str, str], float], RankGrouping]:
    """Welch tests on every pair at the Bonferroni-adjusted SIGNIFICANCE.

    Methods are ranked by mean, best first. Every non-significant pair is
    covered by a contiguous group spanning the two methods; maximal such
    ranges are reported, so groups may overlap like the circled runs in a
    ranking diagram.
    """
    if len(groups) < 2:
        raise InsufficientSamplesError("need at least 2 groups")
    labels = sorted(groups, key=lambda k: -float(np.mean(groups[k])))
    k = len(labels)
    threshold = SIGNIFICANCE / math.comb(k, 2)
    p_matrix: dict[tuple[str, str], float] = {}
    for a, b in combinations(labels, 2):
        _, p = welch_t_test(groups[a], groups[b])
        p_matrix[(a, b)] = p_matrix[(b, a)] = p
    ranges = [(i, j) for i, j in combinations(range(k), 2)
              if p_matrix[(labels[i], labels[j])] >= threshold]
    maximal = [
        (i, j)
        for i, j in ranges
        if not any((i2 <= i and j <= j2) and (i2, j2) != (i, j) for i2, j2 in ranges)
    ]
    covered = {x for i, j in maximal for x in range(i, j + 1)}
    singletons = [(i, i) for i in range(k) if i not in covered]
    all_groups = tuple(sorted(maximal + singletons))
    return p_matrix, RankGrouping(ranking=tuple(labels), groups=all_groups)
