"""Ranking and minority-recall metrics for imbalanced evaluation."""

from __future__ import annotations

import numpy as np

from .exceptions import DataError


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-D and the same length")
    return scores, labels.astype(np.int64)


def auroc(scores, labels) -> float:
    """Probability a random minority score exceeds a random majority score.

    Ties count one half. Computed from midranks, which is exactly the
    normalised Mann-Whitney U statistic.
    """
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("auroc requires both classes")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # Midranks: a run of tied scores at sorted positions start..end shares
    # the average of their 1-based ranks. NaN equals nothing, so each NaN is
    # a run of its own.
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)

    u = np.sum(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def sensitivity(scores, labels, cutoff: float = 0.5) -> float:
    """True positives over all minority rows at the given score cutoff.

    A row is predicted positive when its score is >= cutoff.
    """
    scores, labels = _check_scores_labels(scores, labels)
    positives = labels == 1
    n_pos = int(np.sum(positives))
    if n_pos == 0:
        raise DataError("sensitivity requires minority rows")
    tp = int(np.sum(scores[positives] >= cutoff))
    return tp / n_pos
