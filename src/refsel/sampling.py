"""Per-component train/test construction for the imbalanced input.

Each ensemble component trains on majority-class rows only and is tested on
a balanced set: every minority row plus an equal number of majority rows
drawn uniformly without replacement. Draws are independent across
components, so the same majority row may appear in several components' test
sets. The class-stratified split used to carve out the held-out dataset and
to split it in every evaluation trial also lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Decorrelated 64-bit child seed: SplitMix64 output stream of master_seed.

    Child ``index`` is the SplitMix64 finalizer applied to
    ``master_seed + (index + 1) * golden_gamma`` (mod 2**64), the canonical
    SplitMix64 sequence. Fixed here so runs are reproducible everywhere.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return _splitmix64((master_seed + (index + 1) * _GAMMA) & _MASK64)


@dataclass
class LabeledDataset:
    """Row-major numeric matrix with binary labels; label 1 is the minority."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise DataError("y length must equal the number of rows of X")
        values = set(np.unique(self.y).tolist())
        if not values <= {0, 1}:
            raise DataError(f"labels must be 0/1, got values {sorted(values)}")
        if values != {0, 1}:
            raise DataError("dataset must contain both classes")
        self.y = self.y.astype(np.int64)
        if self.n_minority >= self.n_majority:
            raise DataError(
                f"label 1 must be the minority class "
                f"({self.n_minority} >= {self.n_majority})"
            )
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise DataError("feature_names length must equal the number of columns")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_minority(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_majority(self) -> int:
        return int(np.sum(self.y == 0))

    def subset(self, row_indices) -> "LabeledDataset":
        return LabeledDataset(
            X=self.X[row_indices], y=self.y[row_indices], feature_names=self.feature_names
        )


def stratified_rows(y, train_fraction: float, seed):
    """Class-stratified row indices (train, test), class 0 rows first.

    Each class contributes round(train_fraction * class size) rows to the
    training side, at least one row staying on each side, so the lengths
    depend only on the class sizes. ``seed`` is an int or a Generator, whose
    stream then continues (``default_rng`` returns a Generator unchanged).
    """
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in (0, 1):
        idx = np.flatnonzero(y == c)
        if len(idx) < 2:
            raise DataError(f"class {c} has {len(idx)} rows; need at least 2 to split")
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = rng.permutation(idx)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def build_component_split(data: LabeledDataset, component_seed: int):
    """One component's split: (train_rows, test_rows), row indices into ``data``.

    The test rows are all |O| minority rows, then |O| distinct majority rows
    drawn uniformly without replacement with ``component_seed``; the training
    rows are the remaining majority rows. Deterministic given (data, seed).
    """
    minority_idx = np.flatnonzero(data.y == 1)
    majority_idx = np.flatnonzero(data.y == 0)
    rng = np.random.default_rng(component_seed)
    test_maj = rng.choice(majority_idx, size=len(minority_idx), replace=False)
    in_test = np.zeros(data.n_rows, dtype=bool)
    in_test[test_maj] = True
    train_idx = majority_idx[~in_test[majority_idx]]
    return train_idx, np.concatenate([minority_idx, test_maj])
