import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg.data import (
    DatasetError,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    out_of_time_split,
    save_csv,
)
from finimg.schema import FUNDAMENTAL_SECTIONS, build_schema
from support import Observation, dataset_from_observations


def tiny_schema(per_section=1):
    return build_schema("fundamental", {s: per_section for s in FUNDAMENTAL_SECTIONS})


def make_dataset(rows):
    """rows: list of (id, year, quarter, values, label)."""
    schema = tiny_schema()
    obs = [Observation(r[0], r[1], r[2], np.array(r[3], dtype=float), r[4]) for r in rows]
    return dataset_from_observations(schema, obs)


BASE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_split_by_year_counts():
    rows = []
    for year in (2014, 2015, 2016):
        for i in range(10):
            rows.append((f"c{i}", year, i % 4 + 1, BASE, 3))
    train, test = out_of_time_split(make_dataset(rows), 2016)
    assert len(train) == 20
    assert len(test) == 10
    assert set(train.years.tolist()) == {2014, 2015}
    assert set(test.years.tolist()) == {2016}


def test_split_discards_future_years():
    rows = [("a", 2015, 1, BASE, 0), ("b", 2016, 1, BASE, 0), ("c", 2017, 1, BASE, 0)]
    train, test = out_of_time_split(make_dataset(rows), 2016)
    assert len(train) == 1 and len(test) == 1
    assert 2017 not in set(train.years.tolist()) | set(test.years.tolist())


def test_split_all_in_test_year():
    rows = [("a", 2016, 1, BASE, 0), ("b", 2016, 2, BASE, 1)]
    train, test = out_of_time_split(make_dataset(rows), 2016)
    assert len(train) == 0
    assert len(test) == 2


def test_split_requires_test_observations():
    rows = [("a", 2015, 1, BASE, 0)]
    with pytest.raises(DatasetError):
        out_of_time_split(make_dataset(rows), 2016)


def test_split_empty_dataset():
    ds = dataset_from_observations(tiny_schema(), [])
    with pytest.raises(DatasetError):
        out_of_time_split(ds, 2016)


def test_standardizer_mean_and_population_stddev():
    rows = [("a", 2015, 1, [1, 0, 0, 0, 0, 0], 0), ("b", 2015, 2, [3, 0, 0, 0, 0, 0], 0)]
    params = fit_standardizer(make_dataset(rows))
    assert params.mean[0] == pytest.approx(2.0)
    assert params.stddev[0] == pytest.approx(1.0)


def test_standardizer_constant_feature_guard():
    rows = [("a", 2015, 1, [5.0] * 6, 0)] * 3
    params = fit_standardizer(make_dataset(rows))
    assert params.mean[0] == pytest.approx(5.0)
    assert params.stddev[0] == pytest.approx(1.0)


def test_standardizer_all_missing_feature():
    rows = [
        ("a", 2015, 1, [math.nan, 1, 1, 1, 1, 1], 0),
        ("b", 2015, 2, [math.nan, 2, 2, 2, 2, 2], 0),
    ]
    params = fit_standardizer(make_dataset(rows))
    assert params.mean[0] == 0.0
    assert params.stddev[0] == 1.0


def test_apply_standardizer_examples():
    rows = [("a", 2015, 1, [1, 0, 0, 0, 0, 0], 0), ("b", 2015, 2, [3, 0, 0, 0, 0, 0], 0)]
    ds = make_dataset(rows)
    params = fit_standardizer(ds)
    out = apply_standardizer(make_dataset([("c", 2015, 3, [3, 0, 0, 0, 0, 0], 0)]), params)
    assert out.values[0, 0] == pytest.approx(1.0)  # (3 - 2) / 1
    out = apply_standardizer(make_dataset([("c", 2015, 3, [2, 0, 0, 0, 0, 0], 0)]), params)
    assert out.values[0, 0] == pytest.approx(0.0)


def test_apply_standardizer_missing_becomes_zero():
    rows = [("a", 2015, 1, [1, 1, 1, 1, 1, 1], 0), ("b", 2015, 2, [3, 2, 2, 2, 2, 2], 0)]
    params = fit_standardizer(make_dataset(rows))
    out = apply_standardizer(
        make_dataset([("c", 2015, 3, [math.nan] * 6, 0)]), params
    )
    assert (out.values == 0.0).all()


def test_apply_standardizer_shape_mismatch():
    rows = [("a", 2015, 1, BASE, 0), ("b", 2015, 1, BASE, 0)]
    ds = make_dataset(rows)
    params = fit_standardizer(ds)
    bigger = build_schema("fundamental", {s: 2 for s in FUNDAMENTAL_SECTIONS})
    other = dataset_from_observations(
        bigger, [Observation("x", 2015, 1, np.zeros(12), 0)]
    )
    with pytest.raises(DatasetError):
        apply_standardizer(other, params)


def test_standardized_train_set_is_zero_mean_unit_sd():
    rng = np.random.default_rng(0)
    schema = tiny_schema()
    obs = [
        Observation(f"c{i}", 2015, i % 4 + 1, rng.normal(3, 2, size=6), int(rng.integers(0, 12)))
        for i in range(40)
    ]
    ds = dataset_from_observations(schema, obs)
    out = apply_standardizer(ds, fit_standardizer(ds))
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-9)


def test_csv_roundtrip(tmp_path):
    rows = [
        ("alpha", 2015, 1, [1.5, math.nan, -2.25, 0.0, 1e-9, 123456.75], 3),
        ("beta", 2016, 4, [0.1, 0.2, 0.3, math.nan, math.nan, -0.7], 11),
    ]
    ds = make_dataset(rows)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path, ds.schema)
    assert back.entity_ids == ds.entity_ids
    assert (back.years == ds.years).all()
    assert (back.quarters == ds.quarters).all()
    assert (back.labels == ds.labels).all()
    assert np.array_equal(back.values, ds.values, equal_nan=True)


def test_load_csv_parses_missing_and_ratings(tmp_path):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    lines = [header, "a,2015,1,AA+,1,,3,4,5,6", "b,2016,2,CCC-,,2,3,4,5,6"]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_csv(path, schema)
    assert len(ds) == 2
    assert ds.labels.tolist() == [0, 11]
    assert math.isnan(ds.values[0, 1])
    assert math.isnan(ds.values[1, 0])


def test_load_csv_rejects_wrong_header(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "data.csv"
    path.write_text("id,year,quarter,rating,x1\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_csv(path, schema)


def test_load_csv_reports_bad_cell_location(tmp_path):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    path = tmp_path / "data.csv"
    path.write_text(header + "\na,2015,1,AA+,1,2,zap,4,5,6\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="column 7"):
        load_csv(path, schema)


@pytest.mark.parametrize("cells, message", [
    ("1,2,inf,4,5,6", "column 7: value inf is not finite"),
    ("1,2,3,nan,5,6", "column 8: value nan is not finite"),
    ("1e400,2,3,4,5,6", "column 5: value inf is not finite"),
    ("1,2,3,4,5,-Infinity", "column 10: value -inf is not finite"),
])
def test_load_csv_rejects_non_finite_values_with_location(tmp_path, cells, message):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\na,2015,1,AA+,1,,3,4,5,6\n\nb,2015,2,BB,{cells}\n",
                    encoding="utf-8")
    with pytest.raises(DatasetError, match=f"data.csv:4: {message}"):
        load_csv(path, schema)


@pytest.mark.parametrize("meta, message", [
    ("b,2015,7,BB", "column 3: quarter 7 outside 1..4"),
    ("b,2015,2,ZZ", "column 4: unknown rating 'ZZ'"),
    ("b,20x6,2,BB", "bad period field: .* '20x6'"),
])
def test_load_csv_rejects_bad_period_or_rating_with_location(tmp_path, meta, message):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\na,2015,1,AA+,1,2,3,4,5,6\n{meta},1,2,3,4,5,6\n",
                    encoding="utf-8")
    with pytest.raises(DatasetError, match=f"data.csv:3: {message}"):
        load_csv(path, schema)


def test_load_csv_rejects_a_short_row_with_location(tmp_path):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\na,2015,1,AA+,1,2,3,4,5,6\n\nb,2015,2,BB,1,2,3,4,5\n",
                    encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_csv(path, schema)
    assert str(info.value) == f"{path}:4: expected 10 fields, got 9"


def test_load_csv_empty_cells_stay_missing(tmp_path):
    schema = tiny_schema()
    header = "id,year,quarter,rating," + ",".join(schema.names)
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\na,2015,1,AA+,,,3,,5,\n", encoding="utf-8")
    values = load_csv(path, schema).values
    assert np.isnan(values).tolist() == [[True, True, False, True, False, True]]
    # Missing cells hold the ordinary NaN, not the parser's marker.
    assert (values.view(np.uint64)[np.isnan(values)] == np.float64(np.nan).view(np.uint64)).all()


def test_load_csv_rejects_a_header_without_rows(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "data.csv"
    path.write_text("id,year,quarter,rating," + ",".join(schema.names) + "\n\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_csv(path, schema)
    assert str(info.value) == f"{path}: no data rows after the header"


def cell_values(rows):
    """Finite doubles of every magnitude and sign, and missing (NaN) cells."""
    cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan))
    return st.lists(st.lists(cell, min_size=6, max_size=6), min_size=1, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(values=cell_values(8))
def test_csv_roundtrip_keeps_every_finite_double_and_empty_cell_bit_for_bit(tmp_path_factory,
                                                                           values):
    ds = make_dataset([(f"e{i}", 2015, 1, v, 0) for i, v in enumerate(values)])
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path)
    back = load_csv(path, ds.schema).values
    assert back.view(np.uint64).tolist() == ds.values.view(np.uint64).tolist()


def _parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NOT_NUMBERS = st.text(alphabet="abex.+-_ 0123", min_size=1, max_size=6).filter(
    lambda t: not _parses(t))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), values=cell_values(5), bad=NOT_NUMBERS)
def test_a_cell_that_is_no_number_names_its_line_and_column(tmp_path_factory, data, values, bad):
    ds = make_dataset([(f"e{i}", 2015, 1, v, 0) for i, v in enumerate(values)])
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row, column = data.draw(st.integers(1, len(values))), data.draw(st.integers(5, 10))
    cells = lines[row].split(",")
    cells[column - 1] = bad
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_csv(path, ds.schema)
    assert str(info.value) == f"{path}:{row + 1}: column {column}: not a number: {bad!r}"


CELL_TEXT = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.just(""))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rows=st.lists(st.lists(CELL_TEXT, min_size=6, max_size=6),
                                     min_size=1, max_size=6))
def test_blank_and_bad_cells_anywhere_load_as_a_per_cell_parse(tmp_path_factory, data, rows):
    for _ in range(data.draw(st.integers(0, 2))):  # text that is no number, anywhere
        rows[data.draw(st.integers(0, len(rows) - 1))][data.draw(st.integers(0, 5))] = \
            data.draw(NOT_NUMBERS)
    schema = tiny_schema()
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("id,year,quarter,rating," + ",".join(schema.names) + "".join(
        f"\ne{i},2015,1,AA+," + ",".join(r) for i, r in enumerate(rows)) + "\n", encoding="utf-8")
    want, error = [], None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                want.append(float(cell) if cell else math.nan)
            except ValueError:
                error = error or f"{path}:{i + 2}: column {j + 5}: not a number: {cell!r}"
    if error is not None:
        with pytest.raises(DatasetError) as info:
            load_csv(path, schema)
        assert str(info.value) == error
    else:
        values = load_csv(path, schema).values
        assert values.view(np.uint64).tolist() == \
            np.array(want).reshape(len(rows), 6).view(np.uint64).tolist()


def test_observation_validation():
    with pytest.raises(DatasetError):
        Observation("a", 2015, 5, np.zeros(6), 0)
    with pytest.raises(DatasetError):
        Observation("a", 2015, 1, np.zeros(6), 12)
