"""Ensemble orchestration: B autoencoders, pooled errors, quantile selection.

Each component gets its own sampled split and its own freshly initialised
model; the per-feature squared reconstruction errors of every component's
balanced test set are stacked into one labelled matrix. Features are then
ranked by the difference between minority- and majority-class mean error and
selected above a quantile threshold of that difference distribution.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import (
    ComponentError, DataError, NumericError, ParameterError, RefselError, ShapeError,
)
from .nn import DsaeConfig, DsaeModel, TrainingConfig, reconstruction_errors, train
from .sampling import LabeledDataset, build_component_split, derive_seed

logger = logging.getLogger(__name__)

ESTIMATORS = ("mean", "median")  # per-feature class error estimators of class_mean_re
Q_MAX_BYTES = 2**47  # the largest error matrix Q: 128 TiB, the user address space of a 48-bit CPU


@dataclass(frozen=True)
class EnsembleConfig:
    """Number of components, their shared architecture, and scheduling.

    ``parallelism`` is the number of components trained together as one
    stacked model; results do not depend on it.
    """

    n_components: int
    dsae: DsaeConfig
    training: TrainingConfig
    master_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.n_components < 1:
            raise ParameterError("n_components must be >= 1")
        if 16 * int(self.n_components) * int(self.dsae.n_features) > Q_MAX_BYTES:  # 2 rows each
            raise ParameterError(f"n_components = {self.n_components} gives an error matrix "
                                 f"over {Q_MAX_BYTES} bytes")
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


def _train_stack(data: LabeledDataset, cfg: EnsembleConfig, indices: range, q, labels):
    """Train components ``indices`` as one stacked model; fill their rows of q and labels.

    The test-set errors are scored straight into ``q``, the stack's block of rows.

    Returns the components' last-epoch losses (empty with zero epochs).
    """
    seeds = [component_seeds(cfg.master_seed, b) for b in indices]
    splits = [build_component_split(data, sample_seed) for sample_seed, _ in seeds]
    train_rows = np.array([train for train, _ in splits])
    test_rows = np.array([test for _, test in splits])
    model = DsaeModel.from_config(
        dataclasses.replace(cfg.dsae, seed=tuple(model_seed for _, model_seed in seeds))
    )
    model, history = train(model, data.X, cfg.training, rows=train_rows)
    test = data.X[test_rows]
    # q is a contiguous block of rows, so this reshape is a view of it.
    errors = reconstruction_errors(model, test, out=q.reshape(test.shape))
    finite = np.isfinite(errors).all(axis=(-2, -1))
    if not finite.all():
        raise ComponentError(int(finite.argmin()), NumericError("non-finite reconstruction errors"))
    labels[:] = data.y[test_rows].ravel()
    return history[-len(indices):]


def q_shape(data: LabeledDataset, n_components: int):
    """(rows, columns) of the error matrix Q: 2|O| test rows per component, J features."""
    return 2 * data.n_minority * n_components, data.n_features


def stacks(cfg: EnsembleConfig, components: range = None):
    """``components`` (all by default) as the ranges trained together, ``parallelism`` each."""
    components = range(cfg.n_components) if components is None else components
    return (components[i:i + cfg.parallelism] for i in range(0, len(components), cfg.parallelism))


def run_ensemble(data: LabeledDataset, cfg: EnsembleConfig, components: range = None) -> REMatrix:
    """Train components and stack their test-set reconstruction errors.

    The result holds the rows of Q of ``components``, consecutive indices (all by
    default); called once per range of ``stacks(cfg)``, it gives Q block by block.

    Components are trained ``cfg.parallelism`` at a time as one stacked
    model, stack after stack. The result is bit-identical for any
    parallelism level and any split into calls: component seeds depend only
    on (master_seed, component index), each component keeps its own
    initialisation and shuffle, and rows are written in component order.

    A failure raises ComponentError naming, in the first failing stack, the
    lowest-index component that is non-finite at the first failing step (or
    the stack's first component for an error the whole stack shares).
    """
    if cfg.dsae.n_features != data.n_features:
        raise ShapeError(
            f"model expects {cfg.dsae.n_features} features, dataset has {data.n_features}"
        )
    components = range(cfg.n_components) if components is None else components
    if not (isinstance(components, range) and components.step == 1
            and 0 <= components.start < components.stop <= cfg.n_components):
        raise ParameterError(f"components must be a non-empty step-1 range within "
                             f"range({cfg.n_components}), got {components!r}")
    rows, n_features = q_shape(data, cfg.n_components)
    m = 2 * data.n_minority  # test rows per component
    try:
        if rows * n_features * 8 > Q_MAX_BYTES:  # all of Q, even for a block
            raise MemoryError(f"over {Q_MAX_BYTES} bytes")
        q = np.empty((m * len(components), n_features))
        labels = np.empty(m * len(components), dtype=np.int64)
    except MemoryError as exc:
        raise ParameterError(f"cannot allocate the {rows} x {n_features} error matrix "
                             f"of {cfg.n_components} components: {exc}") from None
    final_losses = []
    for stack in stacks(cfg, components):
        block = slice(m * (stack.start - components.start), m * (stack.stop - components.start))
        try:
            final_losses += _train_stack(data, cfg, stack, q[block], labels[block])
        except ComponentError as exc:  # its index is a position in the stack
            raise ComponentError(stack.start + exc.component_index, exc.__cause__) \
                from exc.__cause__
        except RefselError as exc:
            raise ComponentError(stack.start, exc) from exc

    if final_losses:
        logger.info(
            "trained %d components in stacks of %d; last-epoch loss min %.6g, "
            "median %.6g, max %.6g (components %d-%d)", len(components),
            min(cfg.parallelism, len(components)), min(final_losses), np.median(final_losses),
            max(final_losses), components.start, components.stop - 1,
        )
    return REMatrix(Q=q, labels=labels)


def class_mean_re(blocks, estimator: str = "mean"):
    """Per-feature "mean" (default) or "median" error of each class: (minority, majority).

    ``blocks`` is Q as an iterable of REMatrix blocks. As ``np.mean`` sums row by row,
    each block's first row takes the running sum; one column it sums pairwise, so whole.
    """
    if estimator not in ESTIMATORS:
        raise ParameterError(f"unknown estimator {estimator!r}")
    sums, counts, kept = [np.float64(-0.0)] * 2, [0, 0], ([], [])  # -0.0 + x is x
    for block in blocks:
        for c in (0, 1):
            rows = block.Q[block.labels == c]
            counts[c] += len(rows)
            if estimator == "median" or rows.shape[1] == 1:
                kept[c].append(rows)
            elif len(rows):
                rows[0] += sums[c]
                sums[c] = np.add.reduce(rows, axis=0)
        del block, rows  # not held while the next block is drawn (and trained)
    if not counts[0]:
        raise DataError("Q has no rows")
    if kept[0]:
        agg = np.median if estimator == "median" else np.mean
        return tuple(agg(np.concatenate(kept[c]), axis=0) for c in (1, 0))
    return sums[1] / counts[1], sums[0] / counts[0]


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


def select_at_thresholds(blocks, delta_quantiles, estimator: str = "mean"):
    """One SelectionResult per quantile level, all from ``class_mean_re(blocks, estimator)``.

    Results are nested: a higher quantile level never selects a feature a
    lower one rejected. Class errors that overflow raise NumericError.
    """
    delta_quantiles = list(delta_quantiles)
    if not delta_quantiles:
        raise ParameterError("need at least one quantile level")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l_min, l_maj = class_mean_re(blocks, estimator=estimator)
    if not (np.isfinite(l_min).all() and np.isfinite(l_maj).all()):
        raise NumericError("class reconstruction errors overflow float64")
    delta = l_min - l_maj  # positive marks minority-specific features
    return [select_features(delta, dq, l_min=l_min, l_maj=l_maj) for dq in delta_quantiles]
