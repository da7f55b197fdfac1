import numpy as np
import pytest

from finimg.data import save_csv
from finimg.schema import FUNDAMENTAL_SECTIONS, SECTION_LABELS, SchemaError
from finimg.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    loading_signs,
    quantile_labels,
)
from support import oracle_accuracy

SMALL = {s: 4 for s in FUNDAMENTAL_SECTIONS}


def test_generated_shape_and_periods():
    spec = SyntheticSpec(n_per_year=48, years=(2014, 2016), section_counts=SMALL, seed=0)
    ds = generate_synthetic(spec)
    assert len(ds) == 144
    assert ds.values.shape == (144, 24)
    assert set(ds.years.tolist()) == {2014, 2015, 2016}
    assert set(ds.quarters.tolist()) == {1, 2, 3, 4}


def test_labels_span_all_twelve_classes():
    spec = SyntheticSpec(n_per_year=60, years=(2015, 2016), section_counts=SMALL, seed=1)
    ds = generate_synthetic(spec)
    assert set(ds.labels.tolist()) == set(range(12))


def test_class_frequencies_near_uniform():
    spec = SyntheticSpec(n_per_year=600, years=(2015, 2016), section_counts=SMALL, seed=2)
    ds = generate_synthetic(spec)
    counts = np.bincount(ds.labels, minlength=12)
    target = len(ds) / 12
    assert counts.min() >= 0.5 * target
    assert counts.max() <= 1.5 * target


def test_deterministic_per_seed(tmp_path):
    spec = SyntheticSpec(n_per_year=40, years=(2015, 2016), section_counts=SMALL, seed=3)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.labels == b.labels).all()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, pa)
    save_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_differ():
    base = SyntheticSpec(n_per_year=40, years=(2015, 2016), section_counts=SMALL, seed=3)
    other = SyntheticSpec(n_per_year=40, years=(2015, 2016), section_counts=SMALL, seed=4)
    assert generate_synthetic(base).values.tobytes() != generate_synthetic(other).values.tobytes()


def test_noise_free_oracle_is_perfect():
    spec = SyntheticSpec(n_per_year=120, years=(2015, 2016), section_counts=SMALL,
                         factor_strength=1.0, noise=0.0, seed=5)
    assert oracle_accuracy(generate_synthetic(spec)) == 1.0


def test_zero_strength_features_carry_no_signal():
    spec = SyntheticSpec(n_per_year=600, years=(2015, 2016), section_counts=SMALL,
                         factor_strength=0.0, noise=1.0, seed=6)
    ds = generate_synthetic(spec)
    # the oracle itself drops to chance level
    assert abs(oracle_accuracy(ds) - 1 / 12) < 0.04
    # and feature/label correlation is flat
    u = ds.values.sum(axis=1)
    assert abs(np.corrcoef(u, ds.labels)[0, 1]) < 0.1


def test_loading_signs_half_and_half():
    spec = SyntheticSpec(section_counts=SMALL)
    signs = loading_signs(spec.schema())
    assert signs.tolist()[:4] == [1.0, 1.0, -1.0, -1.0]
    assert len(signs) == 24


def test_quantile_labels_are_balanced():
    rng = np.random.default_rng(0)
    labels = quantile_labels(rng.normal(size=1200))
    counts = np.bincount(labels, minlength=12)
    assert counts.min() >= 90 and counts.max() <= 110


def test_ratio_kind_uses_ratio_schema():
    spec = SyntheticSpec(n_per_year=24, years=(2016, 2016), kind="ratio",
                         section_counts={c: 3 for c in SECTION_LABELS["ratio"]}, seed=0)
    ds = generate_synthetic(spec)
    assert ds.schema.dataset_kind == "ratio"
    assert len(ds.schema) == 24


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_per_year=0)
    with pytest.raises(ValueError):
        SyntheticSpec(years=(2016, 2014))
    with pytest.raises(ValueError):
        SyntheticSpec(factor_strength=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)
    with pytest.raises(SchemaError, match="no feature count for section 'profitability'"):
        SyntheticSpec(kind="ratio", section_counts={"valuation": 2})
