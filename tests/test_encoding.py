import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg.encoding import (
    ZERO_PAD,
    ArrangementSpec,
    CapacityError,
    ChunkOverflowError,
    arrange,
    category_chunk_arrange,
    default_spec,
    grid_tensor,
    hilbert_arrange,
    image,
    reduce_features,
    render_pgm,
    save_grid,
    sequential_arrange,
)
from finimg.hilbert import HilbertOrder, hilbert_d2xy
from finimg.schema import (
    FUNDAMENTAL_SECTIONS,
    SECTION_LABELS,
    build_schema,
)
from support import Observation, dataset_from_observations


def pad_count(prov):
    return int((prov == ZERO_PAD).sum())


def check_provenance(cells, prov, d):
    occupied = prov[prov != ZERO_PAD]
    assert sorted(occupied.tolist()) == list(range(d))
    assert pad_count(prov) == cells.size - d
    # padded cells hold exactly zero, occupied cells the source value
    assert (cells[prov == ZERO_PAD] == 0.0).all()


def test_sequential_two_by_two():
    prov = sequential_arrange(4, 2, 2)
    cells = image(np.array([1.0, 2.0, 3.0, 4.0]), prov)
    assert cells.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert prov.tolist() == [[0, 1], [2, 3]]


def test_sequential_canonical_padding():
    prov = sequential_arrange(332, 18, 27)
    assert pad_count(prov) == 154
    check_provenance(image(np.arange(332, dtype=float), prov), prov, 332)


def test_sequential_empty_vector():
    prov = sequential_arrange(0, 2, 3)
    assert pad_count(prov) == 6
    assert (image(np.array([]), prov) == 0.0).all()


def test_sequential_capacity_error():
    with pytest.raises(CapacityError):
        sequential_arrange(5, 2, 2)


def test_cca_fundamental_layout():
    schema = build_schema("fundamental")
    v = np.arange(332, dtype=float)
    prov = category_chunk_arrange(schema, (9, 9), (2, 3))
    cells = image(v, prov)
    assert cells.shape == (18, 27)
    check_provenance(cells, prov, 332)
    # balance sheet chunk (78 features in 81 cells) has 3 pads
    chunk = prov[0:9, 0:9]
    assert (chunk == ZERO_PAD).sum() == 3
    assert chunk[0, 0] == 0


def test_cca_ratio_layout_59_zeros():
    schema = build_schema("ratio")
    prov = category_chunk_arrange(schema, (4, 4), (2, 4))
    cells = image(np.arange(69, dtype=float), prov)
    assert cells.shape == (8, 16)
    assert pad_count(prov) == 128 - 69
    check_provenance(cells, prov, 69)


def test_cca_exact_fit_chunk_has_no_pad():
    schema = build_schema("fundamental", {s: 9 for s in FUNDAMENTAL_SECTIONS})
    prov = category_chunk_arrange(schema, (3, 3), (2, 3))
    for k in range(6):
        r0, c0 = (k // 3) * 3, (k % 3) * 3
        chunk = prov[r0 : r0 + 3, c0 : c0 + 3]
        assert (chunk != ZERO_PAD).all()


def test_cca_chunk_overflow_names_section():
    schema = build_schema("fundamental")
    with pytest.raises(ChunkOverflowError, match="balance_sheet"):
        category_chunk_arrange(schema, (8, 8), (2, 3))


def test_hilbert_arrange_canonical_sizes():
    for d, side in ((332, 32), (69, 16)):
        prov = hilbert_arrange(d)
        cells = image(np.arange(d, dtype=float), prov)
        assert cells.shape == (side, side)
        check_provenance(cells, prov, d)


def test_hilbert_arrange_exact_capacity():
    prov = hilbert_arrange(4)
    cells = image(np.array([1.0, 2.0, 3.0, 4.0]), prov)
    assert cells.shape == (2, 2)
    assert pad_count(prov) == 0
    # order-1 curve from the lower-left corner
    assert cells[1, 0] == 1.0
    assert cells[0, 0] == 2.0
    assert cells[0, 1] == 3.0
    assert cells[1, 1] == 4.0


def test_hilbert_arrange_follows_curve():
    prov = hilbert_arrange(37)
    order = HilbertOrder(3)
    for i in range(37):
        x, y = hilbert_d2xy(order, i)
        assert prov[prov.shape[0] - 1 - y, x] == i


def fundamental_probe(per_section=4):
    schema = build_schema("fundamental", {s: per_section for s in FUNDAMENTAL_SECTIONS})
    rng = np.random.default_rng(5)
    return schema, rng.normal(size=len(schema))


@pytest.mark.parametrize("method", ["ra", "wcr", "bcr", "hvr"])
def test_randomized_methods_preserve_values(method):
    schema, v = fundamental_probe()
    prov = arrange(schema, default_spec(method, schema, seed=11))
    cells = image(v, prov)
    check_provenance(cells, prov, len(v))
    occupied = cells[prov != ZERO_PAD]
    assert sorted(occupied.tolist()) == sorted(v.tolist())


@pytest.mark.parametrize("method", ["ra", "wcr", "bcr", "hvr"])
def test_randomized_methods_deterministic_per_seed(method):
    schema, v = fundamental_probe()
    spec = default_spec(method, schema, seed=123)
    a, b = arrange(schema, spec), arrange(schema, spec)
    assert np.array_equal(image(v, a), image(v, b))
    assert np.array_equal(a, b)
    other = arrange(schema, default_spec(method, schema, seed=124))
    assert not np.array_equal(a, other)


def test_wcr_with_single_feature_chunks_equals_cca():
    schema = build_schema("fundamental", {s: 1 for s in FUNDAMENTAL_SECTIONS})
    spec = ArrangementSpec("wcr", chunk_dims=(1, 1), chunk_layout=(2, 3), seed=9)
    wcr = arrange(schema, spec)
    cca = category_chunk_arrange(schema, (1, 1), (2, 3))
    assert np.array_equal(wcr, cca)


def test_wcr_keeps_sections_in_their_chunks():
    schema, _ = fundamental_probe()
    spec = default_spec("wcr", schema, seed=3)
    wcr = arrange(schema, spec)
    cca = arrange(schema, default_spec("cca", schema))
    slices = schema.section_slices()
    h, w = spec.chunk_dims
    for k, label in enumerate(schema.section_order):
        r0 = (k // spec.chunk_layout[1]) * h
        c0 = (k % spec.chunk_layout[1]) * w
        block = wcr[r0 : r0 + h, c0 : c0 + w]
        got = sorted(block[block != ZERO_PAD].tolist())
        sl = slices[label]
        assert got == list(range(sl.start, sl.stop))
        # pad cells stay in place, only features move
        base = cca[r0 : r0 + h, c0 : c0 + w]
        assert np.array_equal(block == ZERO_PAD, base == ZERO_PAD)


def test_bcr_is_a_block_permutation_of_cca():
    schema, _ = fundamental_probe()
    spec = default_spec("bcr", schema, seed=21)
    bcr = arrange(schema, spec)
    cca = arrange(schema, default_spec("cca", schema))
    h, w = spec.chunk_dims
    grid_cols = spec.chunk_layout[1]
    blocks_cca = []
    blocks_bcr = []
    for k in range(6):
        r0, c0 = (k // grid_cols) * h, (k % grid_cols) * w
        blocks_cca.append(cca[r0 : r0 + h, c0 : c0 + w].tolist())
        blocks_bcr.append(bcr[r0 : r0 + h, c0 : c0 + w].tolist())
    assert blocks_bcr != blocks_cca  # seed 21 actually moves something
    assert sorted(map(str, blocks_bcr)) == sorted(map(str, blocks_cca))


def test_default_spec_canonical_shapes():
    fund = build_schema("fundamental")
    ratio = build_schema("ratio")
    assert arrange(fund, default_spec("sa", fund)).shape == (18, 27)
    cca_f = default_spec("cca", fund)
    assert cca_f.chunk_dims == (9, 9)
    assert cca_f.chunk_layout == (2, 3)
    assert arrange(ratio, default_spec("sa", ratio)).shape == (8, 16)
    cca_r = default_spec("cca", ratio)
    assert cca_r.chunk_dims == (4, 4)
    assert cca_r.chunk_layout == (2, 4)


def test_hilbert_locality_beats_row_major():
    # mean grid distance over index pairs |i - j| <= 4 on the 32x32 grid
    order = HilbertOrder(5)
    side = order.side
    h_pts = [hilbert_d2xy(order, i) for i in range(order.capacity)]
    s_pts = [(i % side, i // side) for i in range(order.capacity)]

    def mean_dist(points):
        total = 0.0
        count = 0
        for i in range(len(points)):
            for j in range(i + 1, min(i + 5, len(points))):
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                total += (dx * dx + dy * dy) ** 0.5
                count += 1
        return total / count

    assert mean_dist(h_pts) < mean_dist(s_pts)


def make_missing_dataset(missing_map, per_section=2):
    schema = build_schema("fundamental", {s: per_section for s in FUNDAMENTAL_SECTIONS})
    n = 6
    values = np.ones((n, len(schema)))
    for feature, count in missing_map.items():
        values[:count, feature] = np.nan
    obs = [
        Observation(f"c{i}", 2015, i % 4 + 1, values[i], 0)
        for i in range(n)
    ]
    return dataset_from_observations(schema, obs)


def test_reduce_features_drops_most_missing():
    ds = make_missing_dataset({3: 5, 7: 4, 1: 2})
    keep = reduce_features(ds, 10)
    assert keep.tolist() == [0, 1, 2, 4, 5, 6, 8, 9, 10, 11]  # ascending: order preserved


def test_reduce_features_tie_break_drops_last():
    ds = make_missing_dataset({})
    assert reduce_features(ds, 9).tolist() == list(range(9))


def test_reduce_features_ties_prefer_earlier_kept():
    ds = make_missing_dataset({2: 3, 8: 3, 5: 3})
    keep = reduce_features(ds, 10)
    # features 5 and 8 dropped; feature 2 kept by the earlier-wins rule
    assert set(range(12)) - set(keep.tolist()) == {5, 8}


def test_reduce_features_target_too_large():
    ds = make_missing_dataset({})
    with pytest.raises(CapacityError):
        reduce_features(ds, 13)


def test_reduced_canonical_hilbert_grids():
    rng = np.random.default_rng(0)
    schema = build_schema("fundamental")
    values = rng.normal(size=(4, 332))
    obs = [Observation(f"c{i}", 2015, i + 1, values[i], 0) for i in range(4)]
    ds = dataset_from_observations(schema, obs)
    keep = reduce_features(ds, 256)
    assert len(keep) == 256
    prov = hilbert_arrange(len(keep))
    assert prov.shape == (16, 16)
    assert (prov != ZERO_PAD).all()


def test_grid_csv_roundtrip(tmp_path):
    schema, v = fundamental_probe()
    prov = arrange(schema, default_spec("cca", schema))
    cells = image(v, prov)
    save_grid(cells, prov, tmp_path / "cells.csv", tmp_path / "prov.csv")
    assert np.array_equal(np.loadtxt(tmp_path / "cells.csv", delimiter=","), cells)
    assert np.array_equal(np.loadtxt(tmp_path / "prov.csv", delimiter=",", dtype=int), prov)


def test_render_pgm(tmp_path):
    cells = image(np.array([0.0, 0.5, 1.0, -1.0]), sequential_arrange(4, 2, 2))
    path = tmp_path / "grid.pgm"
    render_pgm(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    pixels = [int(x) for row in lines[3:] for x in row.split()]
    assert min(pixels) == 0 and max(pixels) == 255


def test_render_pgm_constant_grid(tmp_path):
    render_pgm(image(np.zeros(4), sequential_arrange(4, 2, 2)), tmp_path / "flat.pgm")
    lines = (tmp_path / "flat.pgm").read_text().splitlines()
    assert all(x == "0" for row in lines[3:] for x in row.split())


def test_provenance_completeness_random_cases():
    rng = np.random.default_rng(77)
    for _ in range(25):
        per_section = int(rng.integers(1, 12))
        schema = build_schema(
            "fundamental", {s: per_section for s in FUNDAMENTAL_SECTIONS}
        )
        v = rng.normal(size=len(schema))
        for method in ("sa", "cca", "hva", "ra", "wcr", "bcr", "hvr"):
            spec = default_spec(method, schema, seed=int(rng.integers(0, 2**32)))
            prov = arrange(schema, spec)
            check_provenance(image(v, prov), prov, len(v))


INDEX_MAPS_SHA256 = "f85dafa6e305b6726114fd46a376efdc4853715f15abffe820818089fd0b5ea8"


def test_index_maps_are_pinned():
    # Every method's map on both canonical schemas at two seeds, hashed;
    # a rewrite of the arrangements must keep each map bit for bit.
    h = hashlib.sha256()
    for schema in (build_schema("fundamental"), build_schema("ratio")):
        for method in ("sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"):
            for seed in (0, 1):
                prov = arrange(schema, default_spec(method, schema, seed=seed))
                h.update(method.encode() + prov.astype(np.int64).tobytes())
    assert h.hexdigest() == INDEX_MAPS_SHA256


@st.composite
def schemas(draw):
    kind = draw(st.sampled_from(["fundamental", "ratio"]))
    sections = SECTION_LABELS[kind]
    return build_schema(kind, {s: draw(st.integers(1, 12)) for s in sections})


@settings(max_examples=60, deadline=None)
@given(schema=schemas(),
       method=st.sampled_from(["sa", "cca", "hva", "ra", "wcr", "bcr", "hvr"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_gather_matches_arranging_row_by_row(schema, method, seed, n):
    d = len(schema)
    spec = default_spec(method, schema, seed=seed)
    values = np.random.default_rng(seed).normal(size=(n, d))
    prov = arrange(schema, spec)
    # the map is a bijection from occupied cells onto the features
    assert sorted(prov[prov != ZERO_PAD].tolist()) == list(range(d))
    images = grid_tensor(values, prov)
    assert images.shape == (n, 1) + prov.shape
    for i in range(n):
        assert np.array_equal(arrange(schema, spec), prov)
        cells = image(values[i], prov)
        assert np.array_equal(images[i, 0], cells)
        # the oracle: place each feature in its cell by an explicit loop
        for (r, c), f in np.ndenumerate(prov):
            assert cells[r, c] == (0.0 if f == ZERO_PAD else values[i, f])
