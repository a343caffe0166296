"""Rank-based evaluation of anomaly scores against binary labels."""

from __future__ import annotations

import numpy as np

from .dataset import Labels
from .errors import DataError

__all__ = ["roc_auc", "average_precision", "evaluate_scores"]


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    last = np.append(first[1:], len(s)) - 1
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def _checked(scores: np.ndarray, labels: Labels) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.flags.shape:
        raise DataError(f"scores of shape {scores.shape} do not match {labels.count} labels")
    return scores


def roc_auc(scores: np.ndarray, labels: Labels) -> float:
    """Probability that a random outlier outscores a random normal.

    Ties count half, i.e. the rank-sum (Mann-Whitney) statistic.  Needs at
    least one object of each class.
    """
    scores = _checked(scores, labels)
    flags = labels.flags
    n_out = int(flags.sum())
    n_norm = len(flags) - n_out
    if n_out == 0 or n_norm == 0:
        raise DataError("AUC needs both an outlier and a normal label")
    ranks = _average_ranks(scores)
    rank_sum = ranks[flags == 1].sum()
    return float((rank_sum - n_out * (n_out + 1) / 2.0) / (n_out * n_norm))


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
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = flags[order] == 1
    cum_hits = np.cumsum(hits)
    precision_at = cum_hits / np.arange(1, len(scores) + 1)
    return float(precision_at[hits].sum() / n_out)


def evaluate_scores(scores: np.ndarray, labels: Labels) -> tuple[float, float]:
    """(AUC, AP) of one score vector."""
    return roc_auc(scores, labels), average_precision(scores, labels)
