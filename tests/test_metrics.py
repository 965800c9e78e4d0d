"""AUROC and sensitivity against exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsel import auroc, sensitivity
from refsel.exceptions import DataError


def pairwise_auroc(scores, labels):
    """Exhaustive Mann-Whitney oracle: ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def midrank_loop_auroc(scores, labels):
    """AUROC from midranks found by walking runs of equal sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = np.sum(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@pytest.mark.parametrize("kind", ["distinct", "ties", "nan"])
def test_auroc_equals_midrank_loop_reference(kind):
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        labels = np.r_[0, 1, rng.integers(0, 2, n - 2)]
        if kind == "distinct":
            scores = rng.normal(size=n)
        else:
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        if kind == "nan":
            scores[rng.uniform(size=n) < 0.3] = np.nan
        assert auroc(scores, labels) == midrank_loop_auroc(scores, labels)


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auroc_all_scores_equal():
    assert auroc([0.5] * 6, [0, 0, 0, 1, 1, 1]) == 0.5


def test_auroc_worked_example():
    # pairs: (0.35>0.1) yes, (0.35>0.4) no, (0.8>0.1) yes, (0.8>0.4) yes -> 3/4
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_requires_both_classes():
    with pytest.raises(DataError):
        auroc([0.1, 0.2], [1, 1])


def test_auroc_rejects_scores_and_labels_of_different_lengths():
    with pytest.raises(DataError, match="^scores and labels must be 1-D and the same length$"):
        auroc(np.zeros(3), np.array([0, 1]))


@pytest.mark.parametrize("tie_values", [None, (0.0, 0.25, 0.5, 0.75, 1.0)])
def test_auroc_matches_pairwise_oracle(tie_values):
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            continue
        if tie_values is None:
            scores = rng.normal(size=n)
        else:
            scores = rng.choice(tie_values, size=n)
        assert auroc(scores, labels) == pairwise_auroc(scores, labels)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auroc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = np.r_[np.ones(2, dtype=int), rng.integers(0, 2, n - 4), np.zeros(2, dtype=int)]
    scores = rng.normal(size=n)
    base = auroc(scores, labels)
    assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auroc_complement_for_tie_free_scores(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = np.r_[np.ones(2, dtype=int), rng.integers(0, 2, n - 4), np.zeros(2, dtype=int)]
    scores = rng.permutation(np.linspace(0, 1, n))  # distinct scores
    assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_extremes():
    assert sensitivity([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert sensitivity([0.1, 0.2, 0.9], [1, 1, 0]) == 0.0


def test_sensitivity_worked_example():
    assert sensitivity([0.9, 0.2, 0.6, 0.8], [1, 1, 1, 0]) == pytest.approx(2 / 3)


def test_sensitivity_counts_direct():
    rng = np.random.default_rng(23)
    scores = rng.uniform(size=30)
    labels = np.r_[np.ones(10, dtype=int), np.zeros(20, dtype=int)]
    tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= 0.5)
    assert sensitivity(scores, labels) == tp / 10


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_sensitivity_monotone_in_cutoff(seed, c1, c2):
    lo, hi = sorted((c1, c2))
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=20)
    labels = np.r_[np.ones(5, dtype=int), np.zeros(15, dtype=int)]
    assert sensitivity(scores, labels, cutoff=lo) >= sensitivity(scores, labels, cutoff=hi)


def test_sensitivity_requires_minority():
    with pytest.raises(DataError):
        sensitivity([0.5, 0.5], [0, 0])
