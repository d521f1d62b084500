"""Relative error, ranking AUC, and PSNR."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdrsdl import psnr, relative_error, roc_auc


def pairwise_auc(scores, labels):
    """Literal pair-counting definition, as the reference oracle."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def test_relative_error_exact_match():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((5, 4, 3))
    assert relative_error(t, t) == 0.0


def test_relative_error_doubled_estimate():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((6, 6))
    assert abs(relative_error(2 * t, t) - 1.0) <= 1e-12


def test_relative_error_single_entry_perturbation():
    truth = np.eye(2)
    estimate = truth.copy()
    estimate[0, 0] += 0.1
    assert abs(relative_error(estimate, truth) - 0.1 / np.sqrt(2)) <= 1e-12


def test_relative_error_rejects_zero_reference():
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 2)), np.zeros((2, 2)))


def test_relative_error_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 2)), np.ones((2, 3)))


def test_roc_auc_perfect_separation():
    assert roc_auc([0.9, 0.1], [1, 0]) == 1.0
    assert roc_auc([0.1, 0.9], [1, 0]) == 0.0


def test_roc_auc_constant_scores():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_roc_auc_interleaved_example():
    scores = [0.9, 0.8, 0.4, 0.3]
    labels = [1, 0, 1, 0]
    assert abs(roc_auc(scores, labels) - 0.75) <= 1e-12


def test_roc_auc_matches_pair_counting():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, size=30) / 5.0  # ties likely
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            continue
        got = roc_auc(scores, labels)
        assert abs(got - pairwise_auc(scores, labels)) <= 1e-12


def rankdata_auc(scores, labels):
    """The rank-sum formula over scipy's average ranks, as the bitwise oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.size - n_pos
    rank_sum = scipy.stats.rankdata(scores)[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# few distinct values, -0.0 and 0.0 among them, so most scores are tied
tied = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.25 + 2**-50, 3.0, np.inf])


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(tied, st.sampled_from([0, 1])), min_size=2, max_size=80))
@example(pairs=[(0.0, 1), (-0.0, 0)])
@example(pairs=[(3.0, 0), (3.0, 1), (3.0, 1), (-1.5, 0)])
def test_roc_auc_matches_rankdata_bit_for_bit(pairs):
    scores = [s for s, _ in pairs]
    labels = [y for _, y in pairs]
    assume(len(set(labels)) == 2)
    assert roc_auc(scores, labels) == rankdata_auc(scores, labels)
    assert roc_auc(scores, np.array(labels, dtype=bool)) == rankdata_auc(scores, labels)


def test_roc_auc_nan_score_propagates():
    assert np.isnan(roc_auc([0.1, np.nan, 0.9], [1, 0, 0]))


def test_roc_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    scores = rng.random(40)
    labels = (rng.random(40) < 0.4).astype(int)
    base = roc_auc(scores, labels)
    assert abs(roc_auc(np.exp(3 * scores), labels) - base) <= 1e-12
    assert abs(roc_auc(2 * scores - 7, labels) - base) <= 1e-12


def test_roc_auc_complement_sums_to_one():
    rng = np.random.default_rng(10)
    scores = rng.random(25)
    labels = (rng.random(25) < 0.5).astype(int)
    a = roc_auc(scores, labels)
    b = roc_auc(-scores, labels)
    assert abs(a + b - 1.0) <= 1e-12


def test_roc_auc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [0, 0])


def test_roc_auc_rejects_bad_labels():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [1, 2])
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9, 0.5], [1, 0])


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint8, np.float32, np.float64])
def test_roc_auc_accepts_zero_one_labels_of_any_dtype(dtype):
    labels = np.array([0, 1, 1, 0], dtype=dtype)
    assert roc_auc([0.2, 0.9, 0.7, 0.1], labels) == 1.0


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_roc_auc_refuses_labels_other_than_zero_and_one(bad):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        roc_auc([0.2, 0.9, 0.7, 0.1], [0, 1, bad, 0])


def test_roc_auc_bool_labels_add_no_check_temporary():
    """A bool label array is checked by its dtype, with no data-sized temporary.

    With 5% positives, the sort's copy of the scores is the peak's bulk;
    np.isin's check of bool labels took it to 1.63x the scores' bytes.
    """
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(200_000)
    labels = rng.random(scores.size) < 0.05
    tracemalloc.start()
    try:
        roc_auc(scores, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * scores.nbytes


def test_psnr_perfect_is_infinite():
    x = np.ones((4, 4))
    assert psnr(x, x, 1.0) == float("inf")


def test_psnr_unit_mse_at_byte_peak():
    reference = np.zeros((10, 10))
    estimate = reference + 1.0
    assert abs(psnr(estimate, reference, 255.0) - 20 * np.log10(255.0)) <= 1e-10
    assert abs(psnr(estimate, reference, 255.0) - 48.130803608679344) <= 1e-6


def test_psnr_zero_db_when_mse_equals_peak_squared():
    reference = np.zeros((8, 8))
    estimate = reference + 3.0
    assert abs(psnr(estimate, reference, 3.0)) <= 1e-12


def test_psnr_decreases_with_noise():
    rng = np.random.default_rng(11)
    reference = rng.random((16, 16))
    noise = rng.standard_normal((16, 16))
    values = [psnr(reference + s * noise, reference, 1.0) for s in (0.01, 0.05, 0.2)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("peak", [0.0, -1.0, float("nan"), float("inf")])
def test_psnr_rejects_bad_peak(peak):
    with pytest.raises(ValueError, match="positive and finite"):
        psnr(np.ones((2, 2)), np.zeros((2, 2)), peak)


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        psnr(np.ones((2, 2)), np.ones((2, 3)), 1.0)
