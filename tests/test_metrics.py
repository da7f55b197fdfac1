import numpy as np
import pytest

from finimg.metrics import (
    AllCorrectError,
    EmptyPredictionsError,
    NotchDistribution,
    PredictionSet,
    UndefinedRateError,
    accuracy,
    conditional_notch,
    expected_abs_notch,
    notch_frequency,
    precision_recall_f1_binary,
)


def pset(y, yhat):
    return PredictionSet(np.array(y), np.array(yhat))


def test_accuracy_examples():
    assert accuracy(pset([1, 2, 3], [1, 2, 3])) == 1.0
    assert accuracy(pset([6, 6, 8], [6, 7, 8])) == pytest.approx(2 / 3)
    assert accuracy(pset([1, 2], [2, 1])) == 0.0


def test_accuracy_empty():
    with pytest.raises(EmptyPredictionsError):
        accuracy(pset([], []))


def test_notch_frequency_examples():
    assert notch_frequency(pset([3, 4], [3, 4])).freq == {0: 1.0}
    freq = notch_frequency(pset([6, 6, 8], [6, 7, 8])).freq
    assert freq == {0: pytest.approx(2 / 3), 1: pytest.approx(1 / 3)}
    freq = notch_frequency(pset([5, 5], [3, 7])).freq
    assert freq == {-2: 0.5, 2: 0.5}


def test_expected_abs_notch_examples():
    assert expected_abs_notch(NotchDistribution({0: 1.0})) == 0.0
    assert expected_abs_notch(NotchDistribution({0: 2 / 3, 1: 1 / 3})) == pytest.approx(1 / 3)
    assert expected_abs_notch(NotchDistribution({-2: 0.5, 2: 0.5})) == 2.0


def test_conditional_notch_examples():
    assert conditional_notch(NotchDistribution({0: 2 / 3, 1: 1 / 3})) == pytest.approx(1.0)
    assert conditional_notch(NotchDistribution({-2: 0.5, 2: 0.5})) == 2.0


def test_conditional_notch_all_correct_guard():
    with pytest.raises(AllCorrectError):
        conditional_notch(NotchDistribution({0: 1.0}))


def test_distribution_must_sum_to_one():
    with pytest.raises(ValueError):
        NotchDistribution({0: 0.5, 1: 0.4})


def test_binary_precision_recall_f1_worked_examples():
    p, r, f1 = precision_recall_f1_binary(tp=9, fp=1, fn=91)
    assert p == pytest.approx(0.9)
    assert r == pytest.approx(0.09)
    assert round(f1, 2) == 0.16
    p, r, f1 = precision_recall_f1_binary(tp=5, fp=5, fn=1)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(5 / 6)
    assert round(f1, 2) == 0.62


def test_binary_perfect():
    assert precision_recall_f1_binary(tp=4, fp=0, fn=0) == (1.0, 1.0, 1.0)


def test_binary_undefined_denominators():
    with pytest.raises(UndefinedRateError):
        precision_recall_f1_binary(tp=0, fp=0, fn=3)
    with pytest.raises(UndefinedRateError):
        precision_recall_f1_binary(tp=0, fp=3, fn=0)


def test_identity_abs_notch_vs_conditional():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        y = rng.integers(0, 12, n)
        yhat = rng.integers(0, 12, n)
        p = PredictionSet(y, yhat)
        acc = accuracy(p)
        dist = notch_frequency(p)
        if acc < 1.0:
            identity = (1.0 - acc) * conditional_notch(dist)
            assert abs(expected_abs_notch(dist) - identity) < 1e-12
        else:
            assert expected_abs_notch(dist) == 0.0


def test_metrics_match_brute_force_loops():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        y = rng.integers(0, 12, n)
        yhat = rng.integers(0, 12, n)
        p = PredictionSet(y, yhat)
        acc_loop = sum(1 for a, b in zip(y, yhat) if a == b) / n
        freq_loop = {}
        for a, b in zip(y, yhat):
            freq_loop[b - a] = freq_loop.get(b - a, 0) + 1
        freq_loop = {i: c / n for i, c in freq_loop.items()}
        dist = notch_frequency(p)
        assert accuracy(p) == acc_loop
        assert dist.freq == freq_loop
        # sum in sorted-notch order so float addition order matches exactly
        expected = 0.0
        for i in sorted(freq_loop):
            expected += abs(i) * freq_loop[i]
        assert expected_abs_notch(dist) == expected


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 12, 30)
    yhat = rng.integers(0, 12, 30)
    perm = rng.permutation(30)
    a, b = pset(y, yhat), pset(y[perm], yhat[perm])
    assert accuracy(a) == accuracy(b)
    assert notch_frequency(a).freq == notch_frequency(b).freq


def test_frequencies_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        p = pset(rng.integers(0, 12, n), rng.integers(0, 12, n))
        assert sum(notch_frequency(p).freq.values()) == pytest.approx(1.0, abs=1e-12)


def test_prediction_set_validation():
    with pytest.raises(ValueError):
        PredictionSet(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        PredictionSet(np.array([0, 12]), np.array([0, 1]))
