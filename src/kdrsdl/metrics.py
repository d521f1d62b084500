"""Evaluation metrics: relative error, ranking AUC, PSNR."""

import numpy as np


def relative_error(estimate, truth):
    """||estimate - truth||_F / ||truth||_F. truth must be nonzero."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    denom = np.linalg.norm(truth)
    if denom == 0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm(estimate - truth) / denom)


def roc_auc(scores, labels):
    """Probability that a random positive outranks a random negative.

    Ties count one half, which equals the trapezoidal area under the ROC
    curve swept over all thresholds. labels must contain both classes.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"got {scores.size} scores for {labels.size} labels")
    # bool labels are 0 or 1 by their dtype; others are compared, since
    # np.isin allocates more than the scores take
    if labels.dtype != bool and not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative label")
    # average ranks from one sort: a score's tie group spans the sorted
    # positions [left, right), ranks left+1..right, so twice its average rank
    # is the integer left + right + 1, and only positives enter the rank sum
    ranked = np.sort(scores)
    if np.isnan(ranked[-1]):
        return float("nan")  # NaN sorts last, and a NaN rank propagates
    positive = scores[labels == 1]
    twice = np.searchsorted(ranked, positive, side="left")
    twice += np.searchsorted(ranked, positive, side="right")
    # an exact integer below 2**53, so the halving is exact
    rank_sum = (int(twice.sum()) + n_pos) / 2.0
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def psnr(estimate, reference, peak):
    """Peak signal-to-noise ratio 10 log10(peak^2 / MSE), in dB.

    A perfect reconstruction (zero MSE) reports positive infinity.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimate.shape != reference.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {reference.shape}")
    if not 0 < peak < np.inf:
        raise ValueError(f"peak must be positive and finite, got {peak}")
    mse = float(np.mean((estimate - reference) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))
