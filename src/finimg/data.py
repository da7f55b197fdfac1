"""Datasets of labelled quarterly observations and their preprocessing.

Values are stored as a float matrix with NaN marking missing entries.
Standardization is fit on training data only; missing entries become 0
after standardization, which is the training-set feature mean.
"""
from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .schema import (
    CLASS_TO_RATING,
    N_CLASSES,
    FeatureSchema,
    UnknownRatingError,
    load_schema,
    map_rating,
)


class DatasetError(ValueError):
    """Raised for malformed dataset files or mismatched schemas."""


@dataclass(frozen=True)
class Dataset:
    """A schema plus aligned arrays of observations (NaN = missing)."""

    schema: FeatureSchema
    entity_ids: tuple[str, ...]
    years: np.ndarray
    quarters: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        n = len(self.entity_ids)
        if self.values.shape != (n, len(self.schema)):
            raise DatasetError(
                f"values shape {self.values.shape} does not match "
                f"{n} observations x {len(self.schema)} features"
            )
        if self.years.shape != (n,) or self.quarters.shape != (n,) or self.labels.shape != (n,):
            raise DatasetError("metadata arrays do not match observation count")
        if n and (self.labels.min() < 0 or self.labels.max() >= N_CLASSES):
            raise DatasetError(f"labels outside 0..{N_CLASSES - 1}")

    def __len__(self) -> int:
        return len(self.entity_ids)

    def take(self, index: np.ndarray) -> Dataset:
        return Dataset(
            schema=self.schema,
            entity_ids=tuple(self.entity_ids[i] for i in np.flatnonzero(index)),
            years=self.years[index],
            quarters=self.quarters[index],
            values=self.values[index],
            labels=self.labels[index],
        )


def out_of_time_split(ds: Dataset, test_year: int) -> tuple[Dataset, Dataset]:
    """Train on years strictly before test_year, test on test_year only.

    Observations after the test year are discarded.
    """
    if len(ds) == 0:
        raise DatasetError("cannot split an empty dataset")
    test_mask = ds.years == test_year
    if not test_mask.any():
        raise DatasetError(f"no observations in test year {test_year}")
    return ds.take(ds.years < test_year), ds.take(test_mask)


@dataclass(frozen=True)
class StandardizationParams:
    mean: np.ndarray
    stddev: np.ndarray


def fit_standardizer(train: Dataset) -> StandardizationParams:
    """Per-feature mean and population stddev over non-missing train values.

    Degenerate features (constant or all missing) get stddev 1; an
    all-missing feature gets mean 0.
    """
    if len(train) == 0:
        raise DatasetError("cannot fit standardizer on an empty dataset")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(train.values, axis=0)
        std = np.nanstd(train.values, axis=0)
    mean = np.where(np.isnan(mean), 0.0, mean)
    std = np.where(np.isnan(std) | (std == 0.0), 1.0, std)
    return StandardizationParams(mean=mean, stddev=std)


def apply_standardizer(ds: Dataset, params: StandardizationParams) -> Dataset:
    """Z-score every value; missing entries become 0 afterwards."""
    if params.mean.shape != (len(ds.schema),):
        raise DatasetError(
            f"standardizer for {params.mean.shape[0]} features applied to "
            f"{len(ds.schema)}-feature dataset"
        )
    return replace(ds, values=standardize(ds.values, params))


def standardize(values: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """Z-score a value matrix; missing entries become 0 afterwards."""
    values = (values - params.mean) / params.stddev
    return np.where(np.isnan(values), 0.0, values)


_META_COLUMNS = ["id", "year", "quarter", "rating"]
# An empty cell parses to a NaN whose payload no text parses to, so one
# vectorized pass over the parsed values tells missing cells from text
# that parsed to nan or inf.
_EMPTY_BITS = 0x7FF8_0000_0000_0001
_EMPTY = struct.unpack("<d", struct.pack("<Q", _EMPTY_BITS))[0]


def load_csv(path: str | Path, schema: FeatureSchema) -> Dataset:
    """Load a data CSV with header ``id,year,quarter,rating,<features...>``.

    Empty feature cells are missing (NaN); any other cell must be a finite
    number, the quarter must be 1..4 and the rating a known one.
    """
    expected = _META_COLUMNS + list(schema.names)
    ids, years, quarters, labels, rows, linenos = [], [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise DatasetError(f"{path}: header does not match schema feature order")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DatasetError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}")
            ids.append(row[0])
            try:
                years.append(int(row[1]))
                quarters.append(int(row[2]))
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: bad period field: {exc}") from None
            try:
                labels.append(map_rating(row[3]))
            except UnknownRatingError as exc:
                raise DatasetError(f"{path}:{lineno}: column 4: {exc}") from None
            linenos.append(lineno)
            parsed = []
            for j, cell in enumerate(row[4:], start=5):
                if cell == "":
                    parsed.append(_EMPTY)
                else:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DatasetError(
                            f"{path}:{lineno}: column {j}: not a number: {cell!r}"
                        ) from None
            rows.append(parsed)
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(schema)))
    empty = values.view(np.uint64) == _EMPTY_BITS
    bad = np.flatnonzero(~(np.isfinite(values) | empty))
    if bad.size:
        i, j = divmod(int(bad[0]), len(schema))
        raise DatasetError(f"{path}:{linenos[i]}: column {j + 5}: "
                           f"value {float(values[i, j])} is not finite")
    values[empty] = math.nan
    quarters = np.array(quarters, dtype=int)
    bad = np.flatnonzero((quarters < 1) | (quarters > 4))
    if bad.size:
        i = int(bad[0])
        raise DatasetError(f"{path}:{linenos[i]}: column 3: quarter {quarters[i]} outside 1..4")
    return Dataset(
        schema=schema,
        entity_ids=tuple(ids),
        years=np.array(years, dtype=int),
        quarters=quarters,
        values=values,
        labels=np.array(labels, dtype=int),
    )


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back out; load_csv on the result round-trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_META_COLUMNS + list(ds.schema.names))
        for i in range(len(ds)):
            row = [
                ds.entity_ids[i],
                int(ds.years[i]),
                int(ds.quarters[i]),
                CLASS_TO_RATING[int(ds.labels[i])],
            ]
            for v in ds.values[i]:
                row.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(row)


def load_dataset(data_path: str | Path, schema_path: str | Path) -> Dataset:
    """Convenience loader: schema CSV plus data CSV."""
    return load_csv(data_path, load_schema(schema_path))
