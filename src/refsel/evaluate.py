"""Subset evaluation: split the held-out dataset, fit classifiers, report.

Every (classifier, quantile level, trial) combination gets one row with
AUROC and sensitivity on the test side of a stratified split restricted to
the selected feature columns; an all-features baseline row is always
included. A chi-squared per-feature score is provided as the filter
baseline for matched-size comparisons.
"""

from __future__ import annotations

import logging
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .classifiers import GaussianNB, KNeighbors, LogisticRegression
from .exceptions import DataError, ParameterError
from .metrics import auroc, sensitivity
from .sampling import LabeledDataset, derive_seed, stratified_rows
from .workers import ordered_map

logger = logging.getLogger(__name__)

# Each chunk of trials gathered for scoring holds at most this many bytes of
# training data, the per-core L2 cache of the 2-core machine this was tuned
# on: one 5.6 MB LR stack of 200-column trials fit 2.2x slower than singly.
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

    def trial_rows(self, y):
        """(train rows, test rows) of labels ``y``: row t of each is trial t's split by
        ``stratified_rows`` at seed derive_seed(split_seed, t)."""
        splits = [stratified_rows(y, self.train_fraction, derive_seed(self.split_seed, t))
                  for t in range(self.trials)]
        return np.array([train for train, _ in splits]), np.array([test for _, test in splits])


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


def _gather(cols_t, rows):
    """``X[rows][:, cols]`` from the column set ``cols_t = X[:, cols].T`` (k, N).

    2-D ``rows`` (t, n) give a (t, n, k) stack, one matrix per row of
    ``rows``. Every matrix keeps the unit row stride that ``X[rows][:, cols]``
    has: the BLAS kernels, and so the bits of each fit, depend on it.
    """
    return np.moveaxis(np.take(cols_t, rows, axis=1), 0, -1)


def _score_chunk(model, x_train, y_train, x_test, y_test):
    """(auroc, sensitivity) of ``model`` on each trial of one gathered chunk.

    Logistic regression fits the whole ``(t, n, k)`` stack at once; the other
    classifiers fit each trial's slice of it, which has the bits of a
    per-trial gather.
    """
    if isinstance(model, LogisticRegression):
        predicted = model.fit(x_train, y_train).predict_scores(x_test)
    else:
        predicted = [model.fit(xt, yt).predict_scores(xe)
                     for xt, yt, xe in zip(x_train, y_train, x_test)]
    return [(auroc(s, y), sensitivity(s, y)) for s, y in zip(predicted, y_test)]


def evaluate_selection(cds: LabeledDataset, selections, protocol: EvalProtocol) -> EvalReport:
    """Score each selection (plus the all-features baseline) on the held-out set.

    ``selections`` is an iterable of ``(level, columns)`` pairs; a column index
    outside the held-out dataset raises DataError. Each trial splits the rows
    as ``protocol.trial_rows`` does; one split per trial is shared by every
    classifier and selection. Each column set's trials are gathered
    once per chunk of at most LR_STACK_BYTES of training data, and every
    classifier scores that chunk (see ``_score_chunk``). The chunks are
    scored through ``ordered_map``, so with more than one CPU in the
    affinity mask this call forks worker processes; the scores keep their
    bits on any number of CPUs. Selections with no features get NaN scores
    and a warning note. Rows come out trial-major; each summary is the mean
    and std of its own entry's trials.
    """
    report = EvalReport()
    entries = [(None, np.arange(cds.n_features))]
    for dq, cols in selections:
        cols = np.asarray(cols, dtype=np.int64)
        outside = cols[(cols < 0) | (cols >= cds.n_features)]
        if outside.size:
            raise DataError(
                f"selection at quantile {dq} holds feature index {int(outside[0])}; "
                f"the held-out dataset has features 0..{cds.n_features - 1}"
            )
        entries.append((dq, cols))

    train_rows, test_rows = protocol.trial_rows(cds.y)
    y_train, y_test = cds.y[train_rows], cds.y[test_rows]
    # (entry index, classifier) -> (trials, 2) of (auroc, sensitivity); NaN if skipped
    scores = {(e, name): np.full((protocol.trials, 2), np.nan)
              for e in range(len(entries)) for name in protocol.classifiers}
    notes = {}

    def chunks():
        """(entry index, trial slice, column set) per chunk of trials to score."""
        for e, (dq, cols) in enumerate(entries):
            if len(cols) == 0:
                logger.warning("selection at quantile %s is empty; skipping", dq)
                notes[e] = "empty selection; skipped"
                continue
            cols_t = cds.X[:, cols].T  # the one column gather of this set
            chunk = max(1, LR_STACK_BYTES // (train_rows.shape[1] * len(cols) * 8))
            for start in range(0, protocol.trials, chunk):
                yield e, slice(start, start + chunk), cols_t

    def score(item):
        """Every classifier's scores of one chunk, and its LR iteration counts (or None)."""
        e, block, cols_t = item
        xs_tr, xs_te = _gather(cols_t, train_rows[block]), _gather(cols_t, test_rows[block])
        # Fresh models per chunk: a fitted kNN keeps its slice, and so the stack, alive.
        models = {name: CLASSIFIERS[name]() for name in protocol.classifiers}
        chunk_scores = {name: _score_chunk(model, xs_tr, y_train[block], xs_te, y_test[block])
                        for name, model in models.items()}
        lr = models.get("logistic_regression")
        return e, block, chunk_scores, None if lr is None else lr.n_iter_

    lr_iters = []
    with closing(ordered_map(score, chunks())) as results:
        for e, block, chunk_scores, n_iter in results:
            for name, chunk_score in chunk_scores.items():
                scores[e, name][block] = chunk_score
            if n_iter is not None:
                lr_iters.append(n_iter)
    if lr_iters:
        n_iter = np.concatenate(lr_iters)
        logger.info("logistic regression: %d fits, %d iterations, %d converged", n_iter.size,
                    n_iter.sum(), np.count_nonzero(n_iter < LogisticRegression().max_iter))

    for trial in range(protocol.trials):
        for e, (dq, cols) in enumerate(entries):
            for name in protocol.classifiers:
                roc, sens = scores[e, name][trial].tolist()
                report.rows.append(EvalRow(
                    classifier=name, delta_quantile=dq, trial=trial,
                    n_features=len(cols), auroc=roc, sensitivity=sens, note=notes.get(e, ""),
                ))

    ddof = 1 if protocol.trials > 1 else 0
    for e, (dq, cols) in enumerate(entries):
        for name in protocol.classifiers:
            rocs, sens = scores[e, name].T
            report.summaries.append(EvalSummary(
                classifier=name, delta_quantile=dq, n_features=len(cols),
                auroc_mean=float(rocs.mean()), auroc_std=float(rocs.std(ddof=ddof)),
                sensitivity_mean=float(sens.mean()), sensitivity_std=float(sens.std(ddof=ddof)),
                note=notes.get(e, ""),
            ))
    return report
