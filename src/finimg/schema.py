"""Feature schemas and the 12-class rating scale.

A schema is an ordered list of features, each tagged with the accounting
section (fundamental data) or ratio category (ratio data) it belongs to.
Section-aware encodings rely on the features of one section being stored
contiguously and the sections appearing in their fixed statement order.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path

# Each kind's sections in canonical statement order, one row per section:
# (label, feature-name prefix, feature count of the canonical schema). The
# published fundamental counts add to 330 while the feature total is 332
# everywhere else; core_earnings absorbs the 2-feature difference.
SECTION_TABLE = {
    "fundamental": (
        ("balance_sheet", "bs", 78),
        ("balance_sheet_supplemental", "bss", 45),
        ("income_statement", "is", 75),
        ("income_statement_supplemental", "iss", 33),
        ("special_items", "spi", 49),
        ("core_earnings", "ce", 52),
    ),
    "ratio": (
        ("valuation", "val", 13),
        ("profitability", "prof", 15),
        ("capitalization", "cap", 4),
        ("financial_soundness", "fs", 16),
        ("solvency", "solv", 6),
        ("liquidity", "liq", 4),
        ("efficiency", "eff", 7),
        ("other", "oth", 4),
    ),
}
SECTION_LABELS = {kind: tuple(row[0] for row in rows) for kind, rows in SECTION_TABLE.items()}
CANONICAL_COUNTS = {kind: tuple(row[2] for row in rows) for kind, rows in SECTION_TABLE.items()}
FUNDAMENTAL_SECTIONS = SECTION_LABELS["fundamental"]
RATIO_CATEGORIES = SECTION_LABELS["ratio"]


class SchemaError(ValueError):
    """Raised when a feature schema violates its structural rules."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names with section labels, for one dataset kind."""

    features: tuple[tuple[str, str], ...]
    dataset_kind: str
    _slices: dict[str, slice] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dataset_kind not in SECTION_LABELS:
            raise SchemaError(f"unknown dataset kind {self.dataset_kind!r}")
        labels = SECTION_LABELS[self.dataset_kind]
        if not self.features:
            raise SchemaError("schema has no features")
        if len(set(self.names)) != len(self.features):
            raise SchemaError("feature names are not unique")
        runs, start = [], 0  # one pass over the runs of equal labels: checks and slices
        for section, group in groupby(self.features, key=itemgetter(1)):
            run = list(group)
            if section not in labels:
                raise SchemaError(
                    f"feature {run[0][0]!r} has unknown section {section!r} for "
                    f"{self.dataset_kind} data"
                )
            runs.append((section, slice(start, start + len(run))))
            start += len(run)
        slices = dict(runs)
        if len(slices) != len(runs):
            raise SchemaError("features of one section must be contiguous")
        # Sections may be a subset of the canonical list (feature reduction
        # can empty one out) but must keep the canonical statement order.
        positions = [labels.index(s) for s in slices]
        if positions != sorted(positions):
            raise SchemaError(
                f"sections must follow the canonical order {labels}, got {tuple(slices)}"
            )
        object.__setattr__(self, "_slices", slices)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    @property
    def section_order(self) -> tuple[str, ...]:
        """Sections present in this schema, in canonical statement order."""
        return tuple(self._slices)

    def section_slices(self) -> dict[str, slice]:
        """Index range of each present section within the feature order."""
        return dict(self._slices)


def build_schema(kind: str, counts: dict[str, int] | None = None) -> FeatureSchema:
    """Build a schema with generated feature names.

    counts maps every section label of kind, and nothing else, to a
    non-negative feature count; it defaults to the canonical 332-feature
    fundamental or 69-feature ratio layout.
    """
    if kind not in SECTION_TABLE:
        raise SchemaError(f"unknown dataset kind {kind!r}")
    rows = SECTION_TABLE[kind]
    if counts is None:
        counts = {label: count for label, _, count in rows}
    for label in counts:
        if label not in SECTION_LABELS[kind]:
            raise SchemaError(f"{label!r} is not a section of {kind} data")
    features = []
    for label, prefix, _ in rows:
        if label not in counts:
            raise SchemaError(f"no feature count for section {label!r}")
        if counts[label] < 0:
            raise SchemaError(f"section {label!r} has negative feature count {counts[label]}")
        features += [(f"{prefix}_{i + 1:03d}", label) for i in range(counts[label])]
    return FeatureSchema(tuple(features), kind)


def save_schema(schema: FeatureSchema, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "section"])
        for name, section in schema.features:
            writer.writerow([name, section])


def load_schema(path: str | Path) -> FeatureSchema:
    """Load a schema CSV (header ``name,section``), inferring the kind.

    Errors name the file, and the line for a row without exactly 2 fields.
    """
    features = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["name", "section"]:
            raise SchemaError(f"{path}: expected header 'name,section'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise SchemaError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
            features.append((row[0], row[1]))
    sections = {section for _, section in features}
    for kind, labels in SECTION_LABELS.items():
        if sections <= set(labels):
            try:
                return FeatureSchema(tuple(features), kind)
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from None
    raise SchemaError(f"{path}: section labels match no known dataset kind")


class UnknownRatingError(ValueError):
    """Raised for rating strings outside the 24-entry mapping."""


# The 12 risk classes, 0 best .. 11 worst, each with its agency rating
# strings; the first string of a class is the one written to CSV files.
RATING_CLASSES = (
    ("AAA", "AA+"),
    ("AA", "AA-"),
    ("A+",),
    ("A",),
    ("A-",),
    ("BBB+",),
    ("BBB",),
    ("BBB-",),
    ("BB+",),
    ("BB", "BB-"),
    ("B", "B+", "B-"),
    ("CCC", "CCC+", "CCC-", "CC", "C", "D", "SD", "N.M."),
)
RATING_TO_CLASS = {rating: k for k, ratings in enumerate(RATING_CLASSES) for rating in ratings}
CLASS_TO_RATING = tuple(ratings[0] for ratings in RATING_CLASSES)
N_CLASSES = len(RATING_CLASSES)


def map_rating(raw: str) -> int:
    """Map a rating string to its class index (0 best .. 11 worst)."""
    try:
        return RATING_TO_CLASS[raw.strip()]
    except KeyError:
        raise UnknownRatingError(f"unknown rating {raw!r}") from None
