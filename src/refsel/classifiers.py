"""Minimal deterministic classifiers used to score selected feature subsets.

Hyperparameters are frozen so results are reproducible: Gaussian NB smooths
variances by 1e-9 times the largest overall feature variance; logistic
regression is full-batch gradient descent (L2 strength 1.0 on the weights,
learning rate 0.1, at most 1000 iterations); kNN uses k=5 and Euclidean
distance. All expose ``predict_scores`` returning the minority-class score
per row.
"""

from __future__ import annotations

import logging

import numpy as np

from .exceptions import DataError, ShapeError

logger = logging.getLogger(__name__)


def _check_training_data(X, y, stackable=False):
    """Validate (X, y) as floats and int64 labels.

    With ``stackable``, X may also be a stack ``(T, n, d)`` of training sets
    with labels ``(T, n)``; every set needs both classes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim not in ((2, 3) if stackable else (2,)) or y.shape != X.shape[:-1]:
        raise ShapeError("X must be 2-D (or a stack of 2-D sets) with one label per row")
    if y.shape[-1] == 0 or np.any(y.min(axis=-1) == y.max(axis=-1)):
        raise DataError("training data must contain both classes")
    return X, y.astype(np.int64)


class GaussianNB:
    """Gaussian naive Bayes with frequency priors."""

    def __init__(self, var_smoothing_factor: float = 1e-9):
        self.var_smoothing_factor = var_smoothing_factor

    def fit(self, X, y):
        X, y = _check_training_data(X, y)
        smoothing = self.var_smoothing_factor * float(np.max(np.var(X, axis=0)))
        self.means_ = []
        self.vars_ = []
        self.log_priors_ = []
        for c in (0, 1):
            rows = X[y == c]
            self.means_.append(rows.mean(axis=0))
            # Floor keeps the density finite when every variance is zero.
            self.vars_.append(np.maximum(rows.var(axis=0) + smoothing, 1e-300))
            self.log_priors_.append(np.log(len(rows) / len(y)))
        return self

    def _joint_log_likelihood(self, X):
        X = np.asarray(X, dtype=np.float64)
        jll = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.means_[c]
            log_density = -0.5 * (
                np.log(2.0 * np.pi * self.vars_[c]) + diff**2 / self.vars_[c]
            ).sum(axis=1)
            jll[:, c] = self.log_priors_[c] + log_density
        return jll

    def predict_scores(self, X) -> np.ndarray:
        """Posterior probability of the minority class per row."""
        jll = self._joint_log_likelihood(X)
        # Softmax over the two classes, stabilised by the row max.
        m = jll.max(axis=1, keepdims=True)
        p = np.exp(jll - m)
        return p[:, 1] / p.sum(axis=1)


def logistic_grad(w, b, X, y, l2: float):
    """Gradients (grad_w, grad_b) of the penalised mean log-loss.

    X may carry a leading stack axis: X ``(T, n, d)``, w ``(T, d)``, b and
    grad_b ``(T,)``, y ``(T, n)``; the 2-D call is the stack-less case. Each
    slice gets the same operations in the same order as a 2-D call on it
    alone, so its bits do not depend on the stack.

    Gradient descent needs only these, so ``fit`` skips the loss. The
    ufuncs below give the same bits as ``np.clip`` and ``np.mean`` with less
    call overhead per iteration.
    """
    n = X.shape[-2]
    z = (X @ w[..., None])[..., 0] + np.asarray(b)[..., None]
    p = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))
    residual = p - y
    grad_w = (X.swapaxes(-1, -2) @ residual[..., None])[..., 0] / n + l2 * w / n
    grad_b = np.add.reduce(residual, axis=-1) / n
    return grad_w, grad_b


def logistic_loss_grad(w, b, X, y, l2: float):
    """Mean log-loss with L2 penalty on w only, and its gradients (2-D X only).

    loss = mean_i log(1 + exp(-sign_i * (X w + b))) + l2 * ||w||^2 / (2n)
    with sign_i = +-1 for y_i = 1/0.
    """
    n = X.shape[0]
    sign = 2.0 * y - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -sign * (X @ w + b))) + l2 * (w @ w) / (2.0 * n))
    return (loss, *logistic_grad(w, b, X, y, l2))


class LogisticRegression:
    """Binary logistic regression fit by full-batch gradient descent.

    ``fit`` takes one training set ``(n, d)`` or a stack ``(T, n, d)`` of
    equally shaped sets, fit side by side: ``coef_`` is then ``(T, d)`` and
    ``intercept_`` and ``n_iter_`` are ``(T,)``. Each set converges on its
    own test, stops updating at that iteration and keeps the bits it would
    get fit alone. ``n_iter_`` counts the updates made; it equals
    ``max_iter`` exactly for a set that did not converge.
    """

    def __init__(self, l2: float = 1.0, learning_rate: float = 0.1,
                 max_iter: int = 1000, tol: float = 1e-8):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y):
        X, y = _check_training_data(X, y, stackable=True)
        stacked = X.ndim == 3
        if not stacked:
            X, y = X[None], y[None]
        yf = y.astype(np.float64)
        n_sets, _, n_features = X.shape
        w = np.zeros((n_sets, n_features))
        b = np.zeros(n_sets)
        n_iter = np.full(n_sets, self.max_iter)
        active = np.ones(n_sets, dtype=bool)
        for iteration in range(self.max_iter):
            grad_w, grad_b = logistic_grad(w, b, X, yf, self.l2)
            done = active & (np.abs(grad_b) < self.tol) & (
                np.abs(grad_w).max(axis=-1, initial=0.0) < self.tol)
            if done.any():
                n_iter[done] = iteration
                active &= ~done
                if not active.any():
                    break
            np.subtract(w, self.learning_rate * grad_w, out=w, where=active[:, None])
            np.subtract(b, self.learning_rate * grad_b, out=b, where=active)
        unconverged = int(np.count_nonzero(n_iter == self.max_iter))
        if unconverged:
            logger.warning(
                "logistic regression: %d of %d fits did not converge within %d iterations",
                unconverged, len(n_iter), self.max_iter,
            )
        if not stacked:
            w, b, n_iter = w[0], b[0], n_iter[0]
        self.coef_ = w
        self.intercept_ = b
        self.n_iter_ = n_iter
        return self

    def predict_scores(self, X) -> np.ndarray:
        """Minority-class probability per row; a stack ``(T, m, d)`` after a stacked fit."""
        X = np.asarray(X, dtype=np.float64)
        z = (X @ self.coef_[..., None])[..., 0] + np.asarray(self.intercept_)[..., None]
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class KNeighbors:
    """k-nearest-neighbour scorer: fraction of minority rows among the k nearest.

    Distance ties resolve to the lower training-row index; k is clamped to
    the training-set size.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise DataError("k must be positive")
        self.k = k

    def fit(self, X, y):
        X, y = _check_training_data(X, y)
        self.X_ = X
        self.y_ = y
        self._train_sq = np.sum(X**2, axis=1)
        return self

    def predict_scores(self, X, chunk: int = 512) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        k = min(self.k, len(self.y_))
        scores = np.empty(X.shape[0])
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            d2 = (
                np.sum(block**2, axis=1)[:, None]
                - 2.0 * block @ self.X_.T
                + self._train_sq[None, :]
            )
            # The k nearest are the distances up to the k-th smallest. Rows
            # where that is not exactly k entries (ties with the k-th, or a
            # NaN k-th from overflowed squares) take the first k of a stable
            # sort, so ties go to the lower training index.
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            nearest = d2 <= kth
            ties = np.flatnonzero(np.count_nonzero(nearest, axis=1) != k)
            if ties.size:
                order = np.argsort(d2[ties], axis=1, kind="stable")[:, :k]
                nearest[ties] = False
                nearest[ties[:, None], order] = True
            neighbours = np.nonzero(nearest)[1].reshape(-1, k)
            scores[start : start + chunk] = self.y_[neighbours].mean(axis=1)
        return scores
