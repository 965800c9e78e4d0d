"""Ensemble orchestration: B autoencoders, pooled errors, quantile selection.

Each component gets its own sampled split and its own freshly initialised
model; the per-feature squared reconstruction errors of every component's
balanced test set are stacked into one labelled matrix. Features are then
ranked by the difference between minority- and majority-class mean error and
selected above a quantile threshold of that difference distribution.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ComponentError, DataError, ParameterError, RefselError, ShapeError
from .nn import DsaeConfig, DsaeModel, TrainingConfig, reconstruction_errors, train
from .sampling import LabeledDataset, build_component_split, derive_seed


@dataclass(frozen=True)
class EnsembleConfig:
    """Number of components, their shared architecture, and scheduling."""

    n_components: int
    dsae: DsaeConfig
    training: TrainingConfig
    master_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.n_components < 1:
            raise ParameterError("n_components must be >= 1")
        if self.parallelism < 1:
            raise ParameterError("parallelism must be >= 1")


@dataclass
class REMatrix:
    """Stacked per-feature squared reconstruction errors with class labels.

    Rows are grouped by component (ascending), minority rows first within
    each component; exactly half the rows belong to each class.
    """

    Q: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.Q.ndim != 2:
            raise DataError("Q must be 2-D")
        if self.labels.shape != (self.Q.shape[0],):
            raise DataError("labels length must match Q rows")
        if np.any(self.Q < 0):
            raise DataError("reconstruction errors must be non-negative")
        n_min = int(np.sum(self.labels == 1))
        n_maj = int(np.sum(self.labels == 0))
        if n_min != n_maj or n_min + n_maj != len(self.labels):
            raise DataError("Q must hold the same number of rows per class")

    @property
    def n_rows(self) -> int:
        return self.Q.shape[0]

    @property
    def n_features(self) -> int:
        return self.Q.shape[1]

    @property
    def rows_per_class(self) -> int:
        return self.n_rows // 2


@dataclass(frozen=True)
class SelectionResult:
    """Per-feature error difference, its quantile threshold, and the pick."""

    delta: np.ndarray
    delta_quantile: float
    threshold: float
    selected: np.ndarray
    l_min: np.ndarray = None
    l_maj: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=np.int64))

    @property
    def n_selected(self) -> int:
        return len(self.selected)


def component_seeds(master_seed: int, component_index: int):
    """(sampling seed, model seed) for one component, mixed from the master."""
    base = derive_seed(master_seed, component_index)
    return derive_seed(base, 0), derive_seed(base, 1)


def _run_component(data: LabeledDataset, cfg: EnsembleConfig, b: int):
    sample_seed, model_seed = component_seeds(cfg.master_seed, b)
    split = build_component_split(data, sample_seed)
    model = DsaeModel.from_config(dataclasses.replace(cfg.dsae, seed=model_seed))
    model, _ = train(model, split.train, cfg.training)
    errors = reconstruction_errors(model, split.test)
    return errors, split.test_labels


def run_ensemble(data: LabeledDataset, cfg: EnsembleConfig) -> REMatrix:
    """Train all components and stack their test-set reconstruction errors.

    The result is bit-identical for any parallelism level: component seeds
    depend only on (master_seed, component index) and rows are merged in
    component order.
    """
    if cfg.dsae.n_features != data.n_features:
        raise ShapeError(
            f"model expects {cfg.dsae.n_features} features, dataset has {data.n_features}"
        )

    def run(b):
        try:
            return _run_component(data, cfg, b)
        except RefselError as exc:
            raise ComponentError(b, exc) from exc

    indices = range(cfg.n_components)
    if cfg.parallelism == 1:
        results = [run(b) for b in indices]
    else:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(run, indices))

    q = np.vstack([errors for errors, _ in results])
    labels = np.concatenate([labels for _, labels in results])
    return REMatrix(Q=q, labels=labels)


def class_mean_re(q: REMatrix, estimator: str = "mean"):
    """Per-feature central error for each class: (minority, majority).

    ``estimator`` is "mean" (default) or "median".
    """
    if estimator == "mean":
        agg = np.mean
    elif estimator == "median":
        agg = np.median
    else:
        raise ParameterError(f"unknown estimator {estimator!r}")
    l_min = agg(q.Q[q.labels == 1], axis=0)
    l_maj = agg(q.Q[q.labels == 0], axis=0)
    return l_min, l_maj


def delta_re(l_min, l_maj) -> np.ndarray:
    """Element-wise difference of class errors; positive marks minority-specific features."""
    l_min = np.asarray(l_min, dtype=np.float64)
    l_maj = np.asarray(l_maj, dtype=np.float64)
    if l_min.shape != l_maj.shape:
        raise ShapeError(f"length mismatch: {l_min.shape} vs {l_maj.shape}")
    return l_min - l_maj


def select_features(delta, delta_quantile: float, l_min=None, l_maj=None) -> SelectionResult:
    """Select the features whose delta lies strictly above its empirical quantile.

    The quantile is the linear interpolation at position
    h = (J - 1) * delta_quantile over the sorted delta values; ties at it are
    excluded. Membership is decided from the order statistics around the
    exact h, because the interpolated float can round onto a neighbouring
    value; ``threshold`` reports that float (``np.quantile``). Selected
    indices come back in ascending order.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1 or delta.size == 0:
        raise ParameterError("delta must be a non-empty vector")
    if not 0.0 <= delta_quantile < 1.0:
        raise ParameterError(f"delta_quantile must lie in [0, 1), got {delta_quantile}")
    threshold = float(np.quantile(delta, delta_quantile))
    s = np.sort(delta)
    h = (delta.size - 1) * Fraction(delta_quantile)
    k = math.floor(h)
    if h == k or s[k + 1] == s[k]:
        selected = np.flatnonzero(delta > s[k])
    else:
        # s[k] < quantile < s[k + 1], and no value lies strictly between.
        selected = np.flatnonzero(delta >= s[k + 1])
    return SelectionResult(
        delta=delta,
        delta_quantile=float(delta_quantile),
        threshold=threshold,
        selected=selected,
        l_min=None if l_min is None else np.asarray(l_min, dtype=np.float64),
        l_maj=None if l_maj is None else np.asarray(l_maj, dtype=np.float64),
    )


def select_at_thresholds(q: REMatrix, delta_quantiles, estimator: str = "mean"):
    """One SelectionResult per quantile level, all from the same class means.

    Results are nested: a higher quantile level never selects a feature a
    lower one rejected.
    """
    delta_quantiles = list(delta_quantiles)
    if not delta_quantiles:
        raise ParameterError("need at least one quantile level")
    l_min, l_maj = class_mean_re(q, estimator=estimator)
    delta = delta_re(l_min, l_maj)
    return [select_features(delta, dq, l_min=l_min, l_maj=l_maj) for dq in delta_quantiles]
