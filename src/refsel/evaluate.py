"""Subset evaluation: split the held-out dataset, fit classifiers, report.

Every (classifier, quantile level, trial) combination gets one row with
AUROC and sensitivity on the test side of a stratified split restricted to
the selected feature columns; an all-features baseline row is always
included. A chi-squared per-feature score is provided as the filter
baseline for matched-size comparisons.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .classifiers import GaussianNB, KNeighbors, LogisticRegression
from .ensemble import SelectionResult
from .exceptions import DataError, ParameterError
from .metrics import auroc, sensitivity
from .sampling import LabeledDataset, derive_seed, stratified_rows

logger = logging.getLogger(__name__)

# Logistic-regression training stacks stay within this many bytes, the
# per-core L2 cache of the 2-core machine this was tuned on: one 5.6 MB
# stack of 200-column trials fit 2.2x slower than the trials one by one.
LR_STACK_BYTES = 2 * 1024 * 1024

CLASSIFIERS = {
    "gaussian_nb": GaussianNB,
    "logistic_regression": LogisticRegression,
    "knn": KNeighbors,
}


@dataclass(frozen=True)
class EvalProtocol:
    train_fraction: float = 0.7
    split_seed: int = 0
    classifiers: tuple = ("gaussian_nb", "logistic_regression", "knn")
    trials: int = 5

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError("train_fraction must lie in (0, 1)")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        if not self.classifiers:
            raise ParameterError("need at least one classifier")
        unknown = [c for c in self.classifiers if c not in CLASSIFIERS]
        if unknown:
            raise ParameterError(f"unknown classifiers {unknown}; choose from {sorted(CLASSIFIERS)}")
        if len(set(self.classifiers)) != len(self.classifiers):
            raise ParameterError(f"classifiers {list(self.classifiers)} name one twice")


@dataclass
class EvalRow:
    classifier: str
    delta_quantile: float  # None marks the all-features baseline row
    trial: int
    n_features: int
    auroc: float
    sensitivity: float
    note: str = ""


@dataclass
class EvalSummary:
    classifier: str
    delta_quantile: float
    n_features: int
    auroc_mean: float
    auroc_std: float
    sensitivity_mean: float
    sensitivity_std: float
    note: str = ""


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)
    summaries: list = field(default_factory=list)


def stratified_split(data: LabeledDataset, protocol: EvalProtocol, seed: int = None):
    """Class-stratified row split into ((X_train, y_train), (X_test, y_test)).

    The rows are those of ``stratified_rows`` at the protocol's training
    fraction and ``seed``, which defaults to protocol.split_seed.
    """
    if seed is None:
        seed = protocol.split_seed
    train_idx, test_idx = stratified_rows(data.y, protocol.train_fraction, seed)
    return (data.X[train_idx], data.y[train_idx]), (data.X[test_idx], data.y[test_idx])


def chi2_scores(data: LabeledDataset) -> np.ndarray:
    """Per-feature chi-squared score of class-wise value totals.

    Observed totals per class are compared with totals expected from the
    class frequencies; features whose values sum to zero score zero. Values
    must be non-negative (use unit-interval scaling first).
    """
    if np.any(data.X < 0):
        raise DataError("chi-squared scores need non-negative features; apply [0,1] scaling")
    totals = data.X.sum(axis=0)
    scores = np.zeros(data.n_features)
    nonzero = totals > 0
    for c in (0, 1):
        observed = data.X[data.y == c].sum(axis=0)
        expected = (np.sum(data.y == c) / data.n_rows) * totals
        scores[nonzero] += (observed[nonzero] - expected[nonzero]) ** 2 / expected[nonzero]
    return scores


def chi2_rank(data: LabeledDataset, n_select: int) -> np.ndarray:
    """Indices (ascending) of the n_select highest chi-squared scores.

    Score ties resolve to the lower feature index.
    """
    if n_select < 1:
        raise ParameterError("n_select must be positive")
    scores = chi2_scores(data)
    n_select = min(n_select, data.n_features)
    top = np.argsort(-scores, kind="stable")[:n_select]
    return np.sort(top)


def _fit_and_score(name, X_train, y_train, X_test, y_test):
    model = CLASSIFIERS[name]()
    model.fit(X_train, y_train)
    scores = model.predict_scores(X_test)
    return auroc(scores, y_test), sensitivity(scores, y_test)


def _gather(cols_t, rows):
    """``X[rows][:, cols]`` from the column set ``cols_t = X[:, cols].T`` (k, N).

    2-D ``rows`` (t, n) give a (t, n, k) stack, one matrix per row of
    ``rows``. Every matrix keeps the unit row stride that ``X[rows][:, cols]``
    has: the BLAS kernels, and so the bits of each fit, depend on it.
    """
    return np.moveaxis(np.take(cols_t, rows, axis=1), 0, -1)


def _score_logistic(cols_t, train_rows, test_rows, y_train, y_test):
    """Fit and score logistic regression for every trial of one column set.

    Trials are fit as stacks of at most LR_STACK_BYTES of training data, at
    least one trial each. Returns the per-trial (auroc, sensitivity) pairs,
    the total iteration count and the number of fits that converged.
    """
    n_trials, n_train = train_rows.shape
    chunk = max(1, LR_STACK_BYTES // (n_train * cols_t.shape[0] * 8))
    model = LogisticRegression()
    results, iterations, converged = [], 0, 0
    for start in range(0, n_trials, chunk):
        block = slice(start, start + chunk)
        model.fit(_gather(cols_t, train_rows[block]), y_train[block])
        scores = model.predict_scores(_gather(cols_t, test_rows[block]))
        results += [(auroc(s, y), sensitivity(s, y)) for s, y in zip(scores, y_test[block])]
        iterations += int(model.n_iter_.sum())
        converged += int(np.count_nonzero(model.n_iter_ < model.max_iter))
    return results, iterations, converged


def evaluate_selection(cds: LabeledDataset, selections, protocol: EvalProtocol) -> EvalReport:
    """Score each selection (plus the all-features baseline) on the held-out set.

    Trial t re-splits the rows with seed derive_seed(split_seed, t); one
    split per trial is shared by every classifier and selection. Selections
    with no features are skipped with a warning row. Logistic regression is
    fit for all trials of a column set at once (see ``_score_logistic``);
    the other classifiers are fit per trial. Rows come out trial-major; each
    summary is the mean and std of its own entry's trials.
    """
    report = EvalReport()
    entries = [(None, np.arange(cds.n_features))]
    for sel in selections:
        if isinstance(sel, SelectionResult):
            if len(sel.delta) != cds.n_features:
                raise DataError(
                    f"selection at quantile {sel.delta_quantile} scores {len(sel.delta)} "
                    f"features; the held-out dataset has {cds.n_features}"
                )
            dq, cols = sel.delta_quantile, sel.selected
        else:
            dq, cols = sel
            cols = np.asarray(cols, dtype=np.int64)
        outside = cols[(cols < 0) | (cols >= cds.n_features)]
        if outside.size:
            raise DataError(
                f"selection at quantile {dq} holds feature index {int(outside[0])}; "
                f"the held-out dataset has features 0..{cds.n_features - 1}"
            )
        entries.append((dq, cols))

    splits = [stratified_rows(cds.y, protocol.train_fraction, derive_seed(protocol.split_seed, t))
              for t in range(protocol.trials)]
    train_rows = np.array([train for train, _ in splits])
    test_rows = np.array([test for _, test in splits])
    y_train, y_test = cds.y[train_rows], cds.y[test_rows]
    per_trial = [n for n in protocol.classifiers if n != "logistic_regression"]
    scores = {}  # (entry index, classifier) -> one (auroc, sensitivity) per trial
    lr_fits = lr_iterations = lr_converged = 0
    for e, (dq, cols) in enumerate(entries):
        if len(cols) == 0:
            logger.warning("selection at quantile %s is empty; skipping", dq)
            continue
        cols_t = cds.X[:, cols].T  # the one column gather of this set
        if "logistic_regression" in protocol.classifiers:
            scores[e, "logistic_regression"], iterations, converged = _score_logistic(
                cols_t, train_rows, test_rows, y_train, y_test)
            lr_fits += protocol.trials
            lr_iterations += iterations
            lr_converged += converged
        if per_trial:
            for t in range(protocol.trials):
                xs_tr, xs_te = _gather(cols_t, train_rows[t]), _gather(cols_t, test_rows[t])
                for name in per_trial:
                    scores.setdefault((e, name), []).append(
                        _fit_and_score(name, xs_tr, y_train[t], xs_te, y_test[t]))
    if lr_fits:
        logger.info("logistic regression: %d fits, %d iterations, %d converged",
                    lr_fits, lr_iterations, lr_converged)

    for trial in range(protocol.trials):
        for e, (dq, cols) in enumerate(entries):
            for name in protocol.classifiers:
                roc, sens = scores[e, name][trial] if len(cols) else (float("nan"),) * 2
                report.rows.append(EvalRow(
                    classifier=name, delta_quantile=dq, trial=trial,
                    n_features=len(cols), auroc=roc, sensitivity=sens,
                    note="" if len(cols) else "empty selection; skipped",
                ))

    ddof = 1 if protocol.trials > 1 else 0
    for e, (dq, cols) in enumerate(entries):
        for name in protocol.classifiers:
            if len(cols) == 0:
                report.summaries.append(EvalSummary(
                    classifier=name, delta_quantile=dq, n_features=0,
                    auroc_mean=float("nan"), auroc_std=float("nan"),
                    sensitivity_mean=float("nan"), sensitivity_std=float("nan"),
                    note="empty selection; skipped",
                ))
                continue
            rocs, sens = (np.array(v) for v in zip(*scores[e, name]))
            report.summaries.append(EvalSummary(
                classifier=name, delta_quantile=dq, n_features=len(cols),
                auroc_mean=float(rocs.mean()), auroc_std=float(rocs.std(ddof=ddof)),
                sensitivity_mean=float(sens.mean()), sensitivity_std=float(sens.std(ddof=ddof)),
            ))
    return report
