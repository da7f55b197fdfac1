"""Datasets of labelled quarterly observations and their preprocessing.

Values are stored as a float matrix with NaN marking missing entries.
Standardization is fit on training data only; missing entries become 0
after standardization, which is the training-set feature mean.
"""
from __future__ import annotations

import math
import struct
import warnings
from array import array
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
    read_rows,
    write_rows,
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

    There must be at least one row. Empty feature cells are missing (NaN);
    any other cell must be a finite number, the quarter must be 1..4 and
    the rating a known one. Each row's feature cells parse straight into
    one float64 buffer, so no Python float outlives its row. The parse
    stops at an empty cell or at text that is no number; array.extend keeps
    the cells it parsed before it, so that cell is the next one. An empty
    cell is marked missing and the parse goes on from the cell after it.
    """
    expected = _META_COLUMNS + list(schema.names)
    ids, years, quarters, labels, linenos = [], array("q"), [], [], []
    cells = array("d")  # the feature cells, row after row
    with read_rows(path, DatasetError) as rows:
        _, header = next(rows, (0, None))
        if header != expected:
            raise DatasetError(f"{path}: header does not match schema feature order")
        for lineno, row in rows:
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
            except OverflowError:  # array("q") holds the years as numpy's 64-bit int
                raise DatasetError(f"{path}:{lineno}: column 2: year {row[1]} is outside "
                                   "the 64-bit integers") from None
            if not 1 <= quarters[-1] <= 4:
                raise DatasetError(f"{path}:{lineno}: column 3: quarter {quarters[-1]} outside 1..4")
            try:
                labels.append(map_rating(row[3]))
            except UnknownRatingError as exc:
                raise DatasetError(f"{path}:{lineno}: column 4: {exc}") from None
            linenos.append(lineno)
            start, feats = len(cells), iter(row[4:])
            while True:
                try:
                    cells.extend(map(float, feats))
                    break
                except ValueError:  # an empty cell, or text that is no number
                    j = len(cells) - start  # extend kept the cells before it
                    if row[4 + j]:
                        raise DatasetError(f"{path}:{lineno}: column {j + 5}: "
                                           f"not a number: {row[4 + j]!r}") from None
                    cells.append(_EMPTY)  # and parse on from the next cell
    if not linenos:
        raise DatasetError(f"{path}: no data rows after the header")
    values = np.frombuffer(cells, dtype=float).reshape(len(linenos), len(schema))
    empty = values.view(np.uint64) == _EMPTY_BITS
    bad = np.flatnonzero(~(np.isfinite(values) | empty))
    if bad.size:
        i, j = divmod(int(bad[0]), len(schema))
        raise DatasetError(f"{path}:{linenos[i]}: column {j + 5}: "
                           f"value {float(values[i, j])} is not finite")
    values[empty] = math.nan
    return Dataset(
        schema=schema,
        entity_ids=tuple(ids),
        years=np.array(years, dtype=int),
        quarters=np.array(quarters, dtype=int),
        values=values,
        labels=np.array(labels, dtype=int),
    )


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back out; load_csv on the result round-trips."""
    def rows():  # one at a time: no list of every row is built
        yield _META_COLUMNS + list(ds.schema.names)
        for i in range(len(ds)):
            row = [
                ds.entity_ids[i],
                int(ds.years[i]),
                int(ds.quarters[i]),
                CLASS_TO_RATING[int(ds.labels[i])],
            ]
            for v in ds.values[i]:
                row.append("" if math.isnan(v) else repr(float(v)))
            yield row

    write_rows(path, rows())


def load_dataset(data_path: str | Path, schema_path: str | Path) -> Dataset:
    """Convenience loader: schema CSV plus data CSV."""
    return load_csv(data_path, load_schema(schema_path))
