import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from finimg.stats import (
    InsufficientSamplesError,
    ZeroVarianceError,
    betainc_regularized,
    one_sample_t_greater,
    pairwise_t_bonferroni,
    summarize,
    t_cdf,
    welch_t_test,
)


def test_summarize_examples():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.stderr == pytest.approx(1 / math.sqrt(3))
    s = summarize([0.0, 1.0])
    assert s.mean == 0.5
    assert s.stderr == pytest.approx(0.5)


def test_summarize_constant():
    assert summarize([4.0, 4.0, 4.0]).stderr == 0.0


def test_summarize_needs_two():
    with pytest.raises(InsufficientSamplesError):
        summarize([1.0])


def test_summarize_translation_behavior():
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    a = summarize(x)
    b = summarize(x + 5.0)
    assert b.mean == pytest.approx(a.mean + 5.0)
    assert b.stderr == pytest.approx(a.stderr)


def test_t_cdf_reference_values():
    assert t_cdf(0.0, 7) == pytest.approx(0.5)
    assert t_cdf(2.045, 29) == pytest.approx(0.975, abs=1e-3)
    assert t_cdf(math.inf, 3) == 1.0
    assert t_cdf(-math.inf, 3) == 0.0


def test_t_cdf_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = float(rng.uniform(-8, 8))
        df = float(rng.uniform(0.5, 200))
        assert t_cdf(t, df) == pytest.approx(scipy_stats.t.cdf(t, df), abs=1e-8)


def test_t_cdf_symmetry():
    for t in (0.1, 0.7, 1.5, 3.0, 6.0):
        for df in (1, 4, 29, 100):
            assert t_cdf(-t, df) + t_cdf(t, df) == pytest.approx(1.0, abs=1e-10)


def test_betainc_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = float(rng.uniform(0.2, 30))
        b = float(rng.uniform(0.2, 30))
        x = float(rng.uniform(0, 1))
        assert betainc_regularized(a, b, x) == pytest.approx(
            scipy_stats.beta.cdf(x, a, b), abs=1e-10
        )


def test_one_sample_t_null_case():
    samples = [0.39, 0.41, 0.40, 0.40, 0.38, 0.42]
    t, p = one_sample_t_greater(samples, 0.40)
    assert t == pytest.approx(0.0)
    assert p == pytest.approx(0.5)


def test_one_sample_t_table_v_structure():
    # a 30-run control near 0.348 against a deterministic 0.390
    rng = np.random.default_rng(3)
    samples = rng.normal(0.348, 0.038, size=30)
    t, p = one_sample_t_greater(samples, 0.390)
    assert t > 0
    assert p < 0.05


def test_one_sample_t_reference_below_mean():
    rng = np.random.default_rng(4)
    samples = rng.normal(0.5, 0.01, size=30)
    _, p = one_sample_t_greater(samples, 0.4)
    assert p > 0.95


def test_one_sample_t_p_decreases_in_reference():
    samples = [0.3, 0.35, 0.33, 0.31, 0.36]
    ps = [one_sample_t_greater(samples, ref)[1] for ref in (0.30, 0.34, 0.38, 0.42)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_one_sample_t_zero_variance():
    with pytest.raises(ZeroVarianceError):
        one_sample_t_greater([0.4, 0.4, 0.4], 0.5)


def test_one_sample_t_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(30):
        samples = rng.normal(0.5, 0.05, size=int(rng.integers(3, 40)))
        ref = float(rng.uniform(0.3, 0.7))
        t, p = one_sample_t_greater(samples, ref)
        # equivalent to a one-sided one-sample test of (ref - samples) > 0
        res = scipy_stats.ttest_1samp(ref - samples, 0.0, alternative="greater")
        assert t == pytest.approx(res.statistic)
        assert p == pytest.approx(res.pvalue, abs=1e-10)


def test_welch_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = rng.normal(0, 1, size=int(rng.integers(2, 30)))
        b = rng.normal(0.3, 2, size=int(rng.integers(2, 30)))
        t, p = welch_t_test(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_pairwise_comparison_count_and_threshold():
    rng = np.random.default_rng(7)
    groups = {k: list(rng.normal(0.5, 0.05, 10)) for k in "abcd"}
    p_matrix, _ = pairwise_t_bonferroni(groups)
    # symmetric storage of k(k-1)/2 comparisons
    assert len(p_matrix) == 2 * math.comb(4, 2)


def test_pairwise_identical_groups_merge():
    base = [0.5, 0.52, 0.48, 0.51]
    groups = {"a": base, "b": list(base), "c": list(base)}
    _, grouping = pairwise_t_bonferroni(groups)
    assert grouping.groups == ((0, 2),)
    start, stop = grouping.groups[0]
    assert set(grouping.ranking[start : stop + 1]) == {"a", "b", "c"}


def test_pairwise_separated_groups_are_singletons():
    rng = np.random.default_rng(8)
    groups = {
        "high": list(rng.normal(0.6, 0.01, 30)),
        "mid": list(rng.normal(0.5, 0.01, 30)),
        "low": list(rng.normal(0.3, 0.01, 30)),
    }
    _, grouping = pairwise_t_bonferroni(groups)
    assert grouping.ranking == ("high", "mid", "low")
    assert grouping.groups == ((0, 0), (1, 1), (2, 2))
    assert grouping.as_text() == "[high] [mid] [low]"


def test_pairwise_never_splits_nonsignificant_pair():
    rng = np.random.default_rng(9)
    for trial in range(25):
        k = int(rng.integers(2, 6))
        groups = {
            f"m{i}": list(rng.normal(rng.uniform(0, 0.2), 0.05, 8)) for i in range(k)
        }
        p_matrix, grouping = pairwise_t_bonferroni(groups)
        threshold = 0.05 / math.comb(k, 2)
        rank = {label: i for i, label in enumerate(grouping.ranking)}
        for (a, b), p in p_matrix.items():
            if p >= threshold:
                shared = any(
                    lo <= rank[a] <= hi and lo <= rank[b] <= hi
                    for lo, hi in grouping.groups
                )
                assert shared, f"trial {trial}: {a},{b} split at p={p}"


def test_pairwise_needs_two_groups():
    with pytest.raises(InsufficientSamplesError):
        pairwise_t_bonferroni({"a": [1.0, 2.0]})
