"""Rank-based evaluation of anomaly scores against binary labels."""

from __future__ import annotations

import numpy as np

from .dataset import Labels
from .errors import DataError

__all__ = ["roc_auc", "average_precision", "evaluate_scores"]


def _checked(scores: np.ndarray, labels: Labels) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.flags.shape:
        raise DataError(f"scores of shape {scores.shape} do not match {labels.count} labels")
    if np.isnan(scores).any():
        raise DataError(f"score {np.flatnonzero(np.isnan(scores))[0]} is NaN")
    return scores


def _both_classes(labels: Labels) -> tuple[int, int]:
    """(outlier count, normal count); DataError unless neither is 0."""
    n_out = labels.n_outliers
    if not 0 < n_out < labels.count:
        raise DataError("AUC needs both an outlier and a normal label")
    return n_out, labels.count - n_out


def roc_auc(scores: np.ndarray, labels: Labels) -> float:
    """Probability that a random outlier outscores a random normal.

    Ties count half: the Mann-Whitney U / (n_out * n_norm), with U counted
    from the sorted normals so the division has exact operands.  Needs at
    least one object of each class; NaN scores are refused, +-inf accepted.
    """
    scores = _checked(scores, labels)
    n_out, n_norm = _both_classes(labels)
    normals = np.sort(scores[labels.flags == 0])
    outliers = scores[labels.flags == 1]
    twice_u = np.searchsorted(normals, outliers) + np.searchsorted(normals, outliers, "right")
    return float(twice_u.sum() / (2.0 * n_out * n_norm))


def average_precision(scores: np.ndarray, labels: Labels) -> float:
    """Area under the precision-recall steps of the score-descending ranking.

    AP = sum_k (R_k - R_{k-1}) * P_k, which reduces to the mean of the
    precision values at each outlier's rank position.  Equal scores are
    ordered by ascending object index (deterministic; no interpolation).
    """
    scores = _checked(scores, labels)
    flags = labels.flags
    n_out = int(flags.sum())
    if n_out == 0:
        raise DataError("AP needs at least one outlier label")
    order = np.argsort(-scores, kind="stable")
    hits = flags[order] == 1
    cum_hits = np.cumsum(hits)
    precision_at = cum_hits / np.arange(1, len(scores) + 1)
    return float(precision_at[hits].sum() / n_out)


def evaluate_scores(scores: np.ndarray, labels: Labels) -> tuple[float, float]:
    """(AUC, AP) of one score vector."""
    return roc_auc(scores, labels), average_precision(scores, labels)
