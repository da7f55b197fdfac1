import hashlib
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finimg.schema import (
    FUNDAMENTAL_SECTIONS,
    SECTION_LABELS,
    RATING_TO_CLASS,
    SECTION_TABLE,
    FeatureSchema,
    SchemaError,
    UnknownRatingError,
    build_schema,
    load_schema,
    map_rating,
    save_schema,
)


def test_map_rating_examples():
    assert map_rating("AAA") == 0
    assert map_rating("BBB") == 6
    assert map_rating("SD") == 11
    assert map_rating("AA+") == 0


def test_map_rating_trims_whitespace():
    assert map_rating(" BBB- ") == 7


def test_map_rating_unknown():
    with pytest.raises(UnknownRatingError):
        map_rating("ZZZ")
    with pytest.raises(UnknownRatingError):
        map_rating("bbb")


def test_rating_scale_total_and_gapless():
    assert len(RATING_TO_CLASS) == 24
    assert sorted(set(RATING_TO_CLASS.values())) == list(range(12))


def test_map_rating_monotone_with_credit_quality():
    # Agency rating order from best to worst maps to a non-decreasing class index.
    ordered = [
        "AAA", "AA+", "AA", "AA-", "A+", "A", "A-", "BBB+", "BBB", "BBB-",
        "BB+", "BB", "BB-", "B+", "B", "B-", "CCC+", "CCC", "CCC-", "CC",
        "C", "D", "SD", "N.M.",
    ]
    classes = [map_rating(r) for r in ordered]
    assert classes == sorted(classes)


def test_canonical_fundamental_schema():
    schema = build_schema("fundamental")
    assert len(schema) == 332
    slices = schema.section_slices()
    assert tuple(slices[s].stop - slices[s].start for s in FUNDAMENTAL_SECTIONS) == \
        tuple(count for _, _, count in SECTION_TABLE["fundamental"])
    assert schema.section_order == FUNDAMENTAL_SECTIONS


def test_canonical_ratio_schema():
    schema = build_schema("ratio")
    assert len(schema) == 69
    slices = schema.section_slices()
    assert tuple(slices[c].stop - slices[c].start for c in SECTION_LABELS["ratio"]) == \
        tuple(count for _, _, count in SECTION_TABLE["ratio"])


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", "balance_sheet"), ("a", "balance_sheet")), "fundamental")


def test_schema_rejects_unknown_section():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", "nope"),), "fundamental")


def test_schema_rejects_out_of_order_sections():
    with pytest.raises(SchemaError):
        FeatureSchema(
            (("a", "income_statement"), ("b", "balance_sheet")), "fundamental"
        )


def test_schema_rejects_split_sections():
    with pytest.raises(SchemaError):
        FeatureSchema(
            (
                ("a", "balance_sheet"),
                ("b", "income_statement"),
                ("c", "balance_sheet"),
            ),
            "fundamental",
        )


def test_schema_allows_section_subset():
    schema = FeatureSchema(
        (("a", "balance_sheet"), ("b", "special_items")), "fundamental"
    )
    assert schema.section_order == ("balance_sheet", "special_items")


def test_section_slices_cover_features():
    schema = build_schema("ratio")
    slices = schema.section_slices()
    covered = sorted(i for sl in slices.values() for i in range(sl.start, sl.stop))
    assert covered == list(range(69))


def test_schema_roundtrip(tmp_path):
    schema = build_schema("fundamental", {s: 3 for s in FUNDAMENTAL_SECTIONS})
    path = tmp_path / "schema.csv"
    save_schema(schema, path)
    assert load_schema(path) == schema


CANONICAL_SCHEMAS_SHA256 = "9ba2ace9807611b8ee57217b06d27b2695b76aa6c818b68834cc1b324cb58df2"


def test_canonical_schemas_are_pinned(tmp_path):
    # Feature names, section labels and their order, as written to disk for
    # both kinds; a rewrite of the section table must keep every byte.
    h = hashlib.sha256()
    for kind in ("fundamental", "ratio"):
        path = tmp_path / f"{kind}.csv"
        save_schema(build_schema(kind), path)
        h.update(kind.encode() + path.read_bytes())
    assert h.hexdigest() == CANONICAL_SCHEMAS_SHA256


def test_load_schema_infers_ratio_kind(tmp_path):
    schema = build_schema("ratio")
    path = tmp_path / "schema.csv"
    save_schema(schema, path)
    assert load_schema(path).dataset_kind == "ratio"


FOUR_EACH = {s: 4 for s in FUNDAMENTAL_SECTIONS}


@pytest.mark.parametrize("kind, counts, message", [
    ("fundamental", {"balance_sheet": 16}, "no feature count for section 'balance_sheet_supplemental'"),
    ("fundamental", {**FOUR_EACH, "bogus": 3}, "'bogus' is not a section of fundamental data"),
    ("ratio", FOUR_EACH, "'balance_sheet' is not a section of ratio data"),
    ("fundamental", {**FOUR_EACH, "core_earnings": -4},
     "section 'core_earnings' has negative feature count -4"),
], ids=["missing", "unknown", "other_kind", "negative"])
def test_build_schema_rejects_bad_counts_naming_the_label(kind, counts, message):
    with pytest.raises(SchemaError) as info:
        build_schema(kind, counts)
    assert str(info.value) == message


def test_build_schema_allows_an_empty_section():
    schema = build_schema("fundamental", {**FOUR_EACH, "special_items": 0})
    assert len(schema) == 20
    assert "special_items" not in schema.section_order


@pytest.mark.parametrize("text, where, message", [
    ("name,section\nbs_001\n", ":2", "expected 2 fields, got 1"),
    ("name,section\nbs_001,balance_sheet\n\nbs_002,balance_sheet,x\n", ":4",
     "expected 2 fields, got 3"),
    ("name,section\na,balance_sheet\na,balance_sheet\n", "", "feature names are not unique"),
    ("name,section\na,balance_sheet\nb,special_items\nc,balance_sheet\n", "",
     "features of one section must be contiguous"),
    ("name,section\na,balance_sheet\nb,valuation\n", "",
     "section labels match no known dataset kind"),
    ("name,section\n", "", "schema has no features"),
    ("name,label\na,balance_sheet\n", "", "expected header 'name,section'"),
    ("", "", "expected header 'name,section'"),
    (b"name,section\n\xff,balance_sheet\n", "",
     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ("name,section\n" + "a" * 140_000 + ",balance_sheet\n", ":2",
     "field larger than field limit (131072)"),
], ids=["one_field", "three_fields", "duplicate", "split_section", "no_kind", "empty",
        "bad_header", "no_header", "not_utf8", "oversized_field"])
def test_load_schema_errors_name_the_file(tmp_path, text, where, message):
    path = tmp_path / "schema.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SchemaError) as info:
        load_schema(path)
    assert str(info.value) == f"{path}{where}: {message}"


@st.composite
def labelled_runs(draw):
    """A dataset kind and a feature list drawn as runs of its section labels;
    neighbouring runs may repeat a label, and any order may come out."""
    kind = draw(st.sampled_from(sorted(SECTION_LABELS)))
    runs = draw(st.lists(st.tuples(st.sampled_from(SECTION_LABELS[kind]), st.integers(1, 4)),
                         min_size=1, max_size=8))
    labels = [label for label, length in runs for _ in range(length)]
    return kind, tuple((f"f{i}", label) for i, label in enumerate(labels))


@given(labelled_runs())
def test_schema_accepts_exactly_contiguous_canonical_sections(drawn):
    kind, features = drawn
    sections = [label for label, _ in groupby(label for _, label in features)]
    position = SECTION_LABELS[kind].index
    valid = (len(set(sections)) == len(sections)
             and [position(s) for s in sections] == sorted(map(position, sections)))
    if not valid:
        with pytest.raises(SchemaError):
            FeatureSchema(features, kind)
        return
    schema = FeatureSchema(features, kind)
    slices = schema.section_slices()
    assert tuple(slices) == schema.section_order == tuple(sections)
    start = 0
    for label, sl in slices.items():
        assert sl.start == start < sl.stop
        assert {section for _, section in features[sl]} == {label}
        start = sl.stop
    assert start == len(features)
