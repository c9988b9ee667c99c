"""Classification metrics and ordinal-pattern complexity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import diagnostics, rvq
from codechain.errors import ConfigError, DataError


# ---------------------------------------------------------------- metrics

def test_perfect_predictions():
    rep = diagnostics.accuracy_mf1([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert rep["accuracy"] == 1.0
    assert rep["macro_f1"] == 1.0
    assert rep["n"] == 4


def test_all_wrong_binary():
    rep = diagnostics.accuracy_mf1([1, 0], [0, 1], 2)
    assert rep["accuracy"] == 0.0
    assert rep["macro_f1"] == 0.0


def test_hand_confusion_matrix():
    rep = diagnostics.accuracy_mf1([0, 1, 1, 1], [0, 0, 1, 1], 2)
    assert rep["accuracy"] == 0.75
    assert_allclose(rep["per_class_f1"], [2.0 / 3.0, 0.8], atol=1e-15)
    assert_allclose(rep["macro_f1"], 11.0 / 15.0, atol=1e-15)


def test_zero_support_class_counts_as_zero():
    rep = diagnostics.accuracy_mf1([0, 1], [0, 1], 3)
    assert rep["per_class_f1"][2] == 0.0
    assert_allclose(rep["macro_f1"], 2.0 / 3.0, atol=1e-15)


def test_metrics_validation():
    with pytest.raises(DataError):
        diagnostics.accuracy_mf1([0, 1], [0], 2)
    with pytest.raises(DataError):
        diagnostics.accuracy_mf1([0, 5], [0, 1], 2)


def test_macro_f1_invariant_to_relabeling():
    rng = np.random.default_rng(51)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(10, 40))
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        perm = rng.permutation(k)
        a = diagnostics.accuracy_mf1(pred, truth, k)
        b = diagnostics.accuracy_mf1(perm[pred], perm[truth], k)
        assert_allclose(a["macro_f1"], b["macro_f1"], atol=1e-12)
        assert a["accuracy"] == b["accuracy"]


def test_accuracy_is_one_minus_hamming():
    rng = np.random.default_rng(52)
    truth = rng.integers(0, 3, size=50)
    pred = rng.integers(0, 3, size=50)
    rep = diagnostics.accuracy_mf1(pred, truth, 3)
    assert_allclose(rep["accuracy"], 1.0 - np.mean(pred != truth), atol=0)


# ---------------------------------------------------------------- entropy

def test_pe_monotone_series_is_zero():
    assert diagnostics.permutation_entropy(np.arange(20.0)) == 0.0
    assert diagnostics.permutation_entropy(-np.arange(20.0)) == 0.0
    assert diagnostics.permutation_entropy(np.full(20, 3.0)) == 0.0


def test_pe_random_series_near_one():
    rng = np.random.default_rng(53)
    series = rng.normal(size=100000)
    assert abs(diagnostics.permutation_entropy(series, order=3) - 1.0) < 0.05


def test_pe_tied_pattern_value():
    # repeating [1,1,2]: three ordinal patterns with counts 3,2,2 over 7 windows
    series = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0])
    p = np.array([3.0, 2.0, 2.0]) / 7.0
    expected = -(p * np.log(p)).sum() / math.log(6.0)
    assert_allclose(diagnostics.permutation_entropy(series), expected, atol=1e-12)


def test_pe_invariant_to_monotone_transform():
    rng = np.random.default_rng(54)
    series = rng.normal(size=300)
    base = diagnostics.permutation_entropy(series)
    assert diagnostics.permutation_entropy(np.exp(series)) == base
    assert diagnostics.permutation_entropy(3.0 * series + 11.0) == base


def test_pe_length_and_parameter_validation():
    with pytest.raises(DataError):
        diagnostics.permutation_entropy(np.arange(3.0), order=3, delay=1)
    with pytest.raises(ConfigError):
        diagnostics.permutation_entropy(np.arange(30.0), order=1)
    with pytest.raises(ConfigError):
        diagnostics.permutation_entropy(np.arange(30.0), delay=0)


def test_pe_delay_subsamples():
    series = np.array([0.0, 9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0])
    # delay 2 windows alternate between the rising and falling comb,
    # two equally frequent patterns
    expected = math.log(2.0) / math.log(6.0)
    assert_allclose(diagnostics.permutation_entropy(series, order=3, delay=2), expected, atol=1e-12)


# ---------------------------------------------------------------- pe report

def constant_code_quantizer():
    coarse = np.array([[0.3, 0.3, 0.3], [1.0, 0.0, -1.0]])
    fine = np.array([[0.1, 0.1, 0.1], [0.0, 0.5, 0.0]])
    return rvq.ResidualQuantizer(coarse=coarse, fine=fine)


def test_pe_report_constant_code_is_zero():
    q = constant_code_quantizer()
    codes = np.zeros((1, 2, 4), dtype=np.int64)
    coarse_pe, fine_pe = diagnostics.pe_report(q, codes, codes)
    assert coarse_pe == 0.0
    assert fine_pe == 0.0


def test_pe_report_deterministic_and_ordered_inputs():
    rng = np.random.default_rng(55)
    coarse = rng.normal(size=(3, 4))
    fine = rng.normal(size=(5, 4))
    q = rvq.ResidualQuantizer(coarse=coarse, fine=fine)
    pairs = [
        (rng.integers(0, 3, size=(2, 6)), rng.integers(0, 5, size=(2, 6)))
        for _ in range(3)
    ]
    coarse_idx = np.stack([c for c, _ in pairs])
    fine_idx = np.stack([f for _, f in pairs])
    a = diagnostics.pe_report(q, coarse_idx, fine_idx)
    b = diagnostics.pe_report(q, coarse_idx, fine_idx)
    assert a == b
    assert 0.0 <= a[0] <= 1.0 and 0.0 <= a[1] <= 1.0


def test_pe_report_single_instance_matches_direct():
    rng = np.random.default_rng(56)
    coarse = rng.normal(size=(2, 3))
    fine = rng.normal(size=(2, 3))
    q = rvq.ResidualQuantizer(coarse=coarse, fine=fine)
    idx = np.array([[0, 1, 1, 0, 1]], dtype=np.int64)
    coarse_pe, fine_pe = diagnostics.pe_report(q, idx[None], idx[None].copy())
    series_c = coarse[idx[0]].reshape(-1)
    series_f = fine[idx[0]].reshape(-1)
    assert_allclose(coarse_pe, diagnostics.permutation_entropy(series_c), atol=0)
    assert_allclose(fine_pe, diagnostics.permutation_entropy(series_f), atol=0)
