"""Arrangements of a 1D feature vector into a 2D image grid.

Seven methods: sequential (SA), category chunks (CCA), Hilbert curve (HVA),
and their randomized controls (RA, WCR, BCR, HVR); CONTROLS relates each
deterministic method to its controls. Every arrange function returns an
index map (the provenance), the one record of a grid: the source feature
index of every cell, with ZERO_PAD marking padding cells. A map depends on
the schema and the seed, never on values. grid_tensor is the one gather
that images values through a map, and image() one row; pads hold exactly 0.

Randomized methods draw all randomness from an explicit seed through
numpy's default PCG64 generator, so a published seed reproduces a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .hilbert import hilbert_d2xy, min_order
from .schema import FeatureSchema, write_rows

ZERO_PAD = -1

# Each deterministic arrangement and its randomized controls.
CONTROLS = {"sa": ("ra",), "cca": ("wcr", "bcr"), "hva": ("hvr",)}
DETERMINISTIC_METHODS = tuple(CONTROLS)
RANDOMIZED_METHODS = tuple(m for controls in CONTROLS.values() for m in controls)
ARRANGEMENTS = DETERMINISTIC_METHODS + RANDOMIZED_METHODS


class CapacityError(ValueError):
    """Raised when the features do not fit the requested grid."""


class ChunkOverflowError(CapacityError):
    """Raised when a section has more features than its chunk holds."""


def grid_tensor(values: np.ndarray, provenance: np.ndarray) -> np.ndarray:
    """The one gather: image every row of values through an index map.

    Returns an (n, 1, rows, cols) tensor; ZERO_PAD cells hold exactly 0.
    """
    images = np.zeros((values.shape[0], 1) + provenance.shape)
    mask = provenance >= 0
    images[:, 0, mask] = values[:, provenance[mask]]
    return images


def image(v: np.ndarray, provenance: np.ndarray) -> np.ndarray:
    """The cells of one row of values imaged through an index map."""
    return grid_tensor(np.asarray(v, dtype=float)[None, :], provenance)[0, 0]


def sequential_arrange(d: int, rows: int, cols: int) -> np.ndarray:
    """Row-major packing of d features into rows x cols, padded at the end."""
    if d > rows * cols:
        raise CapacityError(f"{d} features exceed {rows}x{cols} grid")
    prov = np.full(rows * cols, ZERO_PAD, dtype=int)
    prov[:d] = np.arange(d)
    return prov.reshape(rows, cols)


def category_chunk_arrange(schema: FeatureSchema, chunk_dims: tuple[int, int],
                           chunk_layout: tuple[int, int],
                           slots: np.ndarray | None = None) -> np.ndarray:
    """One padded chunk per section in row-major chunk slots: section k
    fills slot slots[k], by default slot k."""
    h, w = chunk_dims
    grid_rows, grid_cols = chunk_layout
    sections = schema.section_order
    if len(sections) > grid_rows * grid_cols:
        raise CapacityError(
            f"{len(sections)} sections exceed the {grid_rows}x{grid_cols} chunk layout"
        )
    slices = schema.section_slices()
    prov = np.full((grid_rows * h, grid_cols * w), ZERO_PAD, dtype=int)
    for k, label in enumerate(sections):
        sl = slices[label]
        count = sl.stop - sl.start
        if count > h * w:
            raise ChunkOverflowError(
                f"section {label!r} has {count} features, chunk holds {h * w}"
            )
        chunk = np.full(h * w, ZERO_PAD, dtype=int)
        chunk[:count] = np.arange(sl.start, sl.stop)
        slot = k if slots is None else int(slots[k])
        r0, c0 = (slot // grid_cols) * h, (slot % grid_cols) * w
        prov[r0 : r0 + h, c0 : c0 + w] = chunk.reshape(h, w)
    return prov


def hilbert_arrange(d: int) -> np.ndarray:
    """Place d features along the minimal-order Hilbert curve, padding the tail."""
    order = min_order(d)
    side = order.side
    prov = np.full((side, side), ZERO_PAD, dtype=int)
    for i in range(d):
        x, y = hilbert_d2xy(order, i)
        prov[side - 1 - y, x] = i
    return prov


@dataclass(frozen=True)
class ArrangementSpec:
    """Which index map to build: method plus shape parameters.

    The chunked methods place chunk_dims chunks in chunk_layout; sa and ra
    pack the same canvas row by row; Hilbert methods take their side from
    the feature count. Deterministic methods ignore the seed, which must
    not be negative.
    """

    method: str
    chunk_dims: tuple[int, int] = (0, 0)
    chunk_layout: tuple[int, int] = (0, 0)
    seed: int = 0

    def __post_init__(self):
        if self.method not in ARRANGEMENTS:
            raise ValueError(f"unknown arrangement method {self.method!r}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def default_spec(method: str, schema: FeatureSchema, seed: int = 0) -> ArrangementSpec:
    """Canvas defaults: chunk side covers the largest section, the chunk
    layout is two rows, and sa/ra reuse the chunked canvas so rectangular
    methods share one image size (18x27 for the 332-feature schema,
    8x16 for the 69-ratio schema)."""
    largest = max(sl.stop - sl.start for sl in schema.section_slices().values())
    side = max(4, math.isqrt(largest - 1) + 1)
    n_sections = len(schema.section_order)
    layout = (2, (n_sections + 1) // 2) if n_sections > 1 else (1, 1)
    return ArrangementSpec(
        method=method,
        chunk_dims=(side, side),
        chunk_layout=layout,
        seed=seed,
    )


def arrange(schema: FeatureSchema, spec: ArrangementSpec) -> np.ndarray:
    """The index map of spec.method; randomized methods draw from spec.seed.

    ra:  one uniform permutation of all features, then sequential packing.
    wcr: an independent uniform permutation inside each section chunk.
    bcr: a uniform permutation of the chunk positions, contents fixed.
    hvr: one uniform permutation of all features, then Hilbert packing.
    """
    rng = np.random.default_rng(spec.seed)
    d = len(schema)
    if spec.method in ("sa", "ra"):
        (h, w), (grid_rows, grid_cols) = spec.chunk_dims, spec.chunk_layout
        prov = sequential_arrange(d, grid_rows * h, grid_cols * w)
    elif spec.method in ("hva", "hvr"):
        prov = hilbert_arrange(d)
    else:
        slots = rng.permutation(len(schema.section_order)) if spec.method == "bcr" else None
        prov = category_chunk_arrange(schema, spec.chunk_dims, spec.chunk_layout, slots)
    if spec.method in ("ra", "hvr"):
        return _permute_features(prov, rng.permutation(d))
    if spec.method == "wcr":
        perm = np.arange(d)
        for sl in schema.section_slices().values():
            perm[sl] = rng.permutation(np.arange(sl.start, sl.stop))
        return _permute_features(prov, perm)
    return prov


def _permute_features(prov: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Placement slot that held feature i now holds feature perm[i]."""
    occupied = prov >= 0
    prov[occupied] = perm[prov[occupied]]
    return prov


def reduce_features(ds: Dataset, target: int) -> np.ndarray:
    """The ascending positions of the target features kept when the ones
    with the most missing values are dropped; ties keep the earlier one."""
    count = len(ds.schema)
    if target > count:
        raise CapacityError(f"target {target} exceeds feature count {count}")
    missing = np.isnan(ds.values).sum(axis=0)
    # Drop candidates ordered by (missing desc, schema position desc).
    order = np.lexsort((-np.arange(count), -missing))
    return np.sort(order[count - target :])


def save_grid(cells: np.ndarray, provenance: np.ndarray, cells_path: str | Path,
              provenance_path: str | Path) -> None:
    """Write cell values and the provenance sidecar as CSV."""
    write_rows(cells_path, ([repr(float(x)) for x in row] for row in cells))
    write_rows(provenance_path, ([int(x) for x in row] for row in provenance))


def render_pgm(cells: np.ndarray, path: str | Path) -> None:
    """Render cell values as an ASCII PGM image (min-max scaled to 0..255)."""
    lo = float(cells.min())
    hi = float(cells.max())
    if hi > lo:
        # A span past the float range is scaled by halves, which are exact there.
        h = 0.5 if math.isinf(hi - lo) else 1.0
        scaled = np.rint((cells * h - lo * h) / (hi * h - lo * h) * 255).astype(int)
    else:
        scaled = np.zeros_like(cells, dtype=int)
    lines = ["P2", f"{cells.shape[1]} {cells.shape[0]}", "255"]
    for row in scaled:
        lines.append(" ".join(str(int(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
