"""Component split construction and seed derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsel import LabeledDataset, build_component_split, derive_seed, make_planted_dataset
from refsel.ensemble import component_seeds
from refsel.exceptions import DataError, ParameterError


def tagged_dataset(n_majority, n_minority, n_features=3):
    """Dataset whose first column is the row index, so rows identify themselves."""
    n = n_majority + n_minority
    x = np.zeros((n, n_features))
    x[:, 0] = np.arange(n)
    y = np.concatenate([np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)])
    return LabeledDataset(X=x, y=y)


def test_dataset_requires_both_classes():
    with pytest.raises(DataError, match="both classes"):
        LabeledDataset(X=np.zeros((4, 2)), y=np.zeros(4, dtype=int))


def test_dataset_requires_minority_label_one():
    with pytest.raises(DataError, match="minority"):
        LabeledDataset(X=np.zeros((4, 2)), y=np.array([1, 1, 1, 0]))


def test_dataset_rejects_non_binary_labels():
    with pytest.raises(DataError, match="0/1"):
        LabeledDataset(X=np.zeros((3, 2)), y=np.array([0, 1, 2]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LabeledDataset(X=np.zeros(3), y=np.array([0, 0, 1])), DataError,
     r"X must be 2-D, got shape \(3,\)"),
    (lambda: LabeledDataset(X=np.zeros((3, 2)), y=np.array([0, 1])), DataError,
     "y length must equal the number of rows of X"),
    (lambda: LabeledDataset(X=np.zeros((3, 2)), y=np.array([0, 0, 1]), feature_names=["a"]),
     DataError, "feature_names length must equal the number of columns"),
    (lambda: make_planted_dataset(50, 10, 3, n_planted=4), ParameterError,
     "cannot plant more columns than exist"),
], ids=["x_rank", "label_count", "name_count", "planted_count"])
def test_dataset_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_split_shapes_five_minority_hundred_majority():
    data = tagged_dataset(100, 5)
    train_rows, test_rows = build_component_split(data, component_seed=9)
    assert data.X[train_rows].shape == (95, 3)
    assert data.X[test_rows].shape == (10, 3)
    assert np.array_equal(data.y[test_rows], [1] * 5 + [0] * 5)
    # Minority rows come first and appear exactly once each.
    assert sorted(data.X[test_rows][:5, 0]) == [100, 101, 102, 103, 104]


def test_split_same_seed_identical():
    data = tagged_dataset(40, 6)
    train1, test1 = build_component_split(data, component_seed=123)
    train2, test2 = build_component_split(data, component_seed=123)
    assert np.array_equal(data.X[train1], data.X[train2])
    assert np.array_equal(data.X[test1], data.X[test2])


def test_split_insufficient_majority():
    x = np.zeros((7, 2))
    x[:, 0] = np.arange(7)
    y = np.array([0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(DataError):
        LabeledDataset(X=x, y=y)  # minority not smaller: rejected at construction


def test_majority_sample_uniformity_monte_carlo():
    # |O|=2, |M|=6: every majority row should land in the test sample with
    # frequency 2/6 = 1/3 over many independent seeds.
    data = tagged_dataset(6, 2)
    counts = np.zeros(6)
    n_seeds = 1000
    for seed in range(n_seeds):
        train_rows, test_rows = build_component_split(data, component_seed=derive_seed(99, seed))
        for row_id in data.X[test_rows][2:, 0]:
            counts[int(row_id)] += 1
    freq = counts / n_seeds
    assert np.all(np.abs(freq - 1 / 3) <= 0.05), freq


@given(
    n_minority=st.integers(1, 8),
    extra_majority=st.integers(1, 30),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=60, deadline=None)
def test_split_invariants(n_minority, extra_majority, seed):
    n_majority = n_minority + extra_majority
    data = tagged_dataset(n_majority, n_minority)
    train_rows, test_rows = build_component_split(data, component_seed=seed)

    assert data.X[train_rows].shape[0] + n_minority == n_majority
    assert data.X[test_rows].shape[0] == 2 * n_minority
    assert int(data.y[test_rows].sum()) == n_minority

    train_ids = set(data.X[train_rows][:, 0].astype(int))
    test_maj_ids = set(data.X[test_rows][n_minority:, 0].astype(int))
    assert len(test_maj_ids) == n_minority  # distinct rows, no replacement
    assert train_ids.isdisjoint(test_maj_ids)
    assert train_ids | test_maj_ids == set(range(n_majority))


def test_components_draw_distinct_majority_samples():
    # 25 components on |M|=1000, |O|=50: expect at least 24 distinct samples.
    data = tagged_dataset(1000, 50)
    samples = set()
    for b in range(25):
        sample_seed, _ = component_seeds(master_seed=7, component_index=b)
        train_rows, test_rows = build_component_split(data, component_seed=sample_seed)
        samples.add(tuple(sorted(data.X[test_rows][50:, 0].astype(int))))
    assert len(samples) >= 24


def test_derive_seed_is_fixed_and_decorrelated():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(12345, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    with pytest.raises(ValueError):
        derive_seed(3, -1)
