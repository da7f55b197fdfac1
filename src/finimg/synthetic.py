"""Planted-factor synthetic data standing in for the proprietary panels.

Each observation draws one latent factor per section. Every feature in a
section loads on that section's factor, scaled by factor_strength, with
a sign profile that is +1 on the first half of the section and -1 on the
second half; independent Gaussian noise is added per feature. The label
is the 12-quantile bin of the summed section factors, binned within each
year, so every year's class distribution is uniform and all 12 classes
occur.

The half/half sign profile makes the within-section feature order carry
signal: local averages of a section block estimate its factor cleanly,
while shuffling features within a section interleaves the signs so local
averages cancel. Chunked encodings therefore have a real advantage over
their within-chunk randomizations on this data.

With factor_strength 0 the features are pure noise and labels are
unpredictable; with noise 0 the labels are an exact function of the
features and a section-aware oracle reaches accuracy 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .schema import N_CLASSES, FeatureSchema, build_schema


@dataclass(frozen=True)
class SyntheticSpec:
    n_per_year: int = 800
    years: tuple[int, int] = (2012, 2016)
    kind: str = "fundamental"
    section_counts: dict[str, int] | None = None
    factor_strength: float = 0.9
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_per_year < N_CLASSES:
            raise ValueError(f"need at least {N_CLASSES} observations per year")
        if self.years[0] > self.years[1]:
            raise ValueError("years range is reversed")
        if not 0.0 <= self.factor_strength <= 1.0:
            raise ValueError("factor_strength must be in [0, 1]")
        if self.noise < 0.0:
            raise ValueError("noise must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        self.schema()  # a bad section count fails here, not when generating

    def schema(self) -> FeatureSchema:
        return build_schema(self.kind, self.section_counts)

    def total_observations(self) -> int:
        return self.n_per_year * (self.years[1] - self.years[0] + 1)


def loading_signs(schema: FeatureSchema) -> np.ndarray:
    """Per-feature sign profile: +1 first half of each section, -1 after."""
    signs = np.empty(len(schema))
    for sl in schema.section_slices().values():
        count = sl.stop - sl.start
        half = (count + 1) // 2
        signs[sl] = [1.0] * half + [-1.0] * (count - half)
    return signs


def quantile_labels(scores: np.ndarray) -> np.ndarray:
    """Bin scores into 12 near-equal classes by empirical quantiles."""
    edges = np.quantile(scores, [k / N_CLASSES for k in range(1, N_CLASSES)])
    return np.searchsorted(edges, scores, side="right").astype(int)


def yearly_quantile_labels(scores: np.ndarray, years: np.ndarray) -> np.ndarray:
    """Quantile-bin scores within each year separately.

    Per-year binning keeps every year's class distribution uniform, so a
    degenerate classifier cannot drift away from 1/12 accuracy on the
    held-out year through year-composition artifacts.
    """
    labels = np.empty(scores.shape[0], dtype=int)
    for year in np.unique(years):
        mask = years == year
        labels[mask] = quantile_labels(scores[mask])
    return labels


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic per seed; identical spec gives identical datasets."""
    schema = spec.schema()
    rng = np.random.default_rng(spec.seed)
    n = spec.total_observations()
    slices = schema.section_slices()
    factors = rng.normal(size=(n, len(slices)))
    noise = rng.normal(size=(n, len(schema)))
    signs = loading_signs(schema)
    values = spec.noise * noise
    for k, sl in enumerate(slices.values()):
        values[:, sl] += spec.factor_strength * factors[:, [k]] * signs[sl]

    years_lo, years_hi = spec.years
    n_years = years_hi - years_lo + 1
    years = np.repeat(np.arange(years_lo, years_lo + n_years), spec.n_per_year)
    within = np.tile(np.arange(spec.n_per_year), n_years)
    quarters = within % 4 + 1
    entity_ids = tuple(f"c{j // 4:04d}" for j in within)
    labels = yearly_quantile_labels(factors.sum(axis=1), years)
    return Dataset(
        schema=schema,
        entity_ids=entity_ids,
        years=years,
        quarters=quarters,
        values=values,
        labels=labels,
    )


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
