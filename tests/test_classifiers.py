"""The three frozen classifiers against hand and brute-force oracles."""

import math

import numpy as np
import pytest

from refsel import GaussianNB, KNeighbors, LogisticRegression, auroc
from refsel.classifiers import logistic_loss_grad
from refsel.exceptions import DataError, ShapeError


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

def test_nb_well_separated_gaussians():
    rng = np.random.default_rng(1)
    x = np.r_[rng.normal(-5, 1, 200), rng.normal(5, 1, 60)].reshape(-1, 1)
    y = np.r_[np.zeros(200, dtype=int), np.ones(60, dtype=int)]
    x_test = np.r_[rng.normal(-5, 1, 100), rng.normal(5, 1, 30)].reshape(-1, 1)
    y_test = np.r_[np.zeros(100, dtype=int), np.ones(30, dtype=int)]
    scores = GaussianNB().fit(x, y).predict_scores(x_test)
    assert auroc(scores, y_test) > 0.99


def test_nb_no_signal_when_distributions_match():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2000, 3))
    y = np.r_[np.zeros(1400, dtype=int), np.ones(600, dtype=int)]
    scores = GaussianNB().fit(x, y).predict_scores(rng.normal(size=(1000, 3)))
    labels = np.r_[np.zeros(700, dtype=int), np.ones(300, dtype=int)]
    assert abs(auroc(scores, labels) - 0.5) <= 0.05


def test_nb_hand_computable_posterior():
    # class0 = {-1, 1} -> N(0, 1); class1 = {9, 11} -> N(10, 1); query 10.
    x = np.array([[-1.0], [1.0], [9.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNB().fit(x, y)
    score = model.predict_scores([[10.0]])[0]
    assert score > 0.999

    # Closed-form oracle with the same smoothing.
    smoothing = 1e-9 * np.var(x[:, 0])
    var = 1.0 + smoothing

    def normal_pdf(v, mu):
        return math.exp(-((v - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    l0, l1 = normal_pdf(10.0, 0.0), normal_pdf(10.0, 10.0)
    assert score == pytest.approx(l1 / (l0 + l1), rel=1e-9)


def test_nb_priors_follow_frequencies():
    x = np.array([[0.0], [0.0], [0.0], [1.0]])
    y = np.array([0, 0, 0, 1])
    model = GaussianNB().fit(x, y)
    assert model.log_priors_[0] == pytest.approx(math.log(0.75))
    assert model.log_priors_[1] == pytest.approx(math.log(0.25))


def test_nb_single_class_fit_error():
    with pytest.raises(DataError):
        GaussianNB().fit(np.zeros((3, 2)), np.zeros(3, dtype=int))


def test_misshapen_training_data_and_non_positive_k_are_rejected():
    with pytest.raises(ShapeError, match=r"^X must be 2-D \(or a stack of 2-D sets\)"):
        GaussianNB().fit(np.zeros(4), np.array([0, 1, 0, 1]))
    with pytest.raises(DataError, match="^k must be positive$"):
        KNeighbors(k=0)


# ---------------------------------------------------------------------------
# Logistic regression

def test_lr_linearly_separable_perfect_training_accuracy():
    rng = np.random.default_rng(3)
    x = np.r_[rng.normal((-2, -2), 0.5, (40, 2)), rng.normal((2, 2), 0.5, (15, 2))]
    y = np.r_[np.zeros(40, dtype=int), np.ones(15, dtype=int)]
    scores = LogisticRegression().fit(x, y).predict_scores(x)
    assert np.all((scores >= 0.5) == (y == 1))


def test_lr_all_zero_features_gives_class_rate():
    x = np.zeros((40, 3))
    y = np.r_[np.zeros(30, dtype=int), np.ones(10, dtype=int)]
    model = LogisticRegression().fit(x, y)
    assert np.all(model.coef_ == 0.0)
    scores = model.predict_scores(np.zeros((5, 3)))
    assert np.allclose(scores, 0.25, atol=1e-6)


def test_lr_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, 12).astype(np.float64)
    w = rng.normal(size=3)
    b = 0.3
    _, grad_w, grad_b = logistic_loss_grad(w, b, x, y, l2=1.0)

    h = 1e-6
    for j in range(3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd = (logistic_loss_grad(wp, b, x, y, 1.0)[0] - logistic_loss_grad(wm, b, x, y, 1.0)[0]) / (2 * h)
        assert abs(grad_w[j] - fd) <= 1e-6 * max(1.0, abs(fd))
    fd_b = (logistic_loss_grad(w, b + h, x, y, 1.0)[0] - logistic_loss_grad(w, b - h, x, y, 1.0)[0]) / (2 * h)
    assert abs(grad_b - fd_b) <= 1e-6 * max(1.0, abs(fd_b))


def test_lr_nonconvergence_warns_not_raises(caplog):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    y = np.r_[np.zeros(20, dtype=int), np.ones(10, dtype=int)]
    with caplog.at_level("WARNING"):
        LogisticRegression(max_iter=1).fit(x, y)
    assert any("converge" in rec.message for rec in caplog.records)


def reference_gradients(w, b, X, y, l2):
    """The log-loss gradients as first written, with np.clip and np.mean."""
    n = X.shape[0]
    z = X @ w + b
    residual = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))) - y
    return X.T @ residual / n + l2 * w / n, float(np.mean(residual))


def gradient_descent_reference(X, y, l2=1.0, learning_rate=0.1, max_iter=1000, tol=1e-8):
    """The fit loop on the reference gradients; returns (w, b, iterations)."""
    X = np.asarray(X, dtype=np.float64)
    yf = np.asarray(y).astype(np.int64).astype(np.float64)
    w = np.zeros(X.shape[1])
    b = 0.0
    for iteration in range(max_iter):
        grad_w, grad_b = reference_gradients(w, b, X, yf, l2)
        _, loss_grad_w, loss_grad_b = logistic_loss_grad(w, b, X, yf, l2)
        assert np.array_equal(loss_grad_w, grad_w) and loss_grad_b == grad_b
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < tol:
            return w, b, iteration
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return w, b, max_iter


@pytest.mark.parametrize("n_rows, n_features, zero", [
    (50, 1, False),     # d = 1
    (30, 80, False),    # wider than tall
    (40, 3, True),      # all-zero features: converges before max_iter
])
def test_lr_fit_equals_loss_grad_reference_bit_for_bit(n_rows, n_features, zero):
    rng = np.random.default_rng(n_features)
    x = np.zeros((n_rows, n_features)) if zero else rng.normal(size=(n_rows, n_features))
    y = np.r_[np.zeros(n_rows - n_rows // 4, dtype=int), np.ones(n_rows // 4, dtype=int)]
    w, b, iterations = gradient_descent_reference(x, y)
    assert (iterations < 1000) == zero
    model = LogisticRegression().fit(x, y)
    assert np.array_equal(model.coef_, w)
    assert model.intercept_ == b


def lr_stack(n_slices, n_rows, n_features, seed, zero_slices=()):
    """A (T, n, d) stack of training sets with a different feature scale per
    slice and a shuffled 3:1 label vector per slice."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_slices, n_rows, n_features))
    x *= (0.2 + np.arange(n_slices))[:, None, None]
    x[list(zero_slices)] = 0.0
    labels = np.r_[np.zeros(n_rows - n_rows // 4, dtype=int), np.ones(n_rows // 4, dtype=int)]
    y = np.array([rng.permutation(labels) for _ in range(n_slices)])
    return x, y


@pytest.mark.parametrize("n_slices, n_rows, n_features, zero_slices, tol", [
    (3, 50, 1, (), 1e-8),       # d = 1
    (2, 30, 80, (), 1e-8),      # wider than tall
    (3, 40, 3, (1,), 1e-8),     # an all-zero slice converges early among running ones
    (4, 60, 4, (), 1e-4),       # slices converge at different iterations, one never
    (7, 20, 2, (0, 6), 1e-8),   # a longer stack, converged slices at both ends
])
def test_lr_stacked_fit_equals_reference_per_slice(n_slices, n_rows, n_features,
                                                   zero_slices, tol):
    x, y = lr_stack(n_slices, n_rows, n_features, seed=n_rows, zero_slices=zero_slices)
    model = LogisticRegression(tol=tol).fit(x, y)
    x_test = np.random.default_rng(1).normal(size=(n_slices, 9, n_features))
    scores = model.predict_scores(x_test)
    assert model.coef_.shape == (n_slices, n_features)
    assert scores.shape == (n_slices, 9)
    iterations = []
    for t in range(n_slices):
        w, b, n_iter = gradient_descent_reference(x[t], y[t], tol=tol)
        assert np.array_equal(model.coef_[t], w)
        assert model.intercept_[t] == b
        assert model.n_iter_[t] == n_iter
        z = x_test[t] @ w + b
        assert np.array_equal(scores[t], 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))))
        iterations.append(n_iter)
    for t in zero_slices:
        assert iterations[t] < 1000
    if tol == 1e-4:
        assert len(set(iterations)) == n_slices and max(iterations) == 1000


def test_lr_stacked_fit_warns_once_with_the_unconverged_count(caplog):
    x, y = lr_stack(4, 40, 3, seed=3, zero_slices=(2,))
    with caplog.at_level("WARNING"):
        model = LogisticRegression().fit(x, y)
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    assert warnings == ["logistic regression: 3 of 4 fits did not converge within 1000 iterations"]
    assert model.n_iter_.tolist()[2] < 1000


def test_lr_stack_needs_both_classes_in_every_slice():
    x, y = lr_stack(3, 20, 2, seed=4)
    y[1] = 0
    with pytest.raises(DataError, match="both classes"):
        LogisticRegression().fit(x, y)


def test_lr_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 2))
    y = np.r_[np.zeros(18, dtype=int), np.ones(7, dtype=int)]
    m1 = LogisticRegression().fit(x, y)
    m2 = LogisticRegression().fit(x, y)
    assert np.array_equal(m1.coef_, m2.coef_)
    assert m1.intercept_ == m2.intercept_


# ---------------------------------------------------------------------------
# k nearest neighbours

def test_knn_query_on_training_point_k1():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    y = np.array([0, 1, 0])
    model = KNeighbors(k=1).fit(x, y)
    assert model.predict_scores([[1.0, 1.0]])[0] == 1.0
    assert model.predict_scores([[0.0, 0.0]])[0] == 0.0


def test_knn_k_equal_n_gives_global_fraction():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 2))
    y = np.r_[np.zeros(9, dtype=int), np.ones(3, dtype=int)]
    scores = KNeighbors(k=12).fit(x, y).predict_scores(rng.normal(size=(6, 2)))
    assert np.allclose(scores, 0.25)


def test_knn_clamps_k_beyond_training_size():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 0, 1])
    scores = KNeighbors(k=50).fit(x, y).predict_scores([[5.0]])
    assert scores[0] == pytest.approx(1 / 3)


def test_knn_six_point_hand_case_matches_brute_force():
    x = np.array([[0.0, 0], [1, 0], [0, 1], [4, 4], [5, 4], [4, 5]], dtype=float)
    y = np.array([0, 0, 0, 1, 1, 1])
    queries = np.array([[0.5, 0.5], [4.5, 4.5], [2.2, 2.2]])
    model = KNeighbors(k=3).fit(x, y)
    scores = model.predict_scores(queries)

    for q, got in zip(queries, scores):
        dists = [float(np.sqrt(np.sum((row - q) ** 2))) for row in x]
        nearest = sorted(range(6), key=lambda i: (dists[i], i))[:3]
        assert got == pytest.approx(np.mean([y[i] for i in nearest]))


def stable_sort_knn_reference(x_train, y_train, queries, k):
    """Mean label of the first k training rows in a stable sort of distances."""
    x_train = np.asarray(x_train, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    k = min(k, len(y_train))
    d2 = (
        np.sum(queries**2, axis=1)[:, None]
        - 2.0 * queries @ x_train.T
        + np.sum(x_train**2, axis=1)[None, :]
    )
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.asarray(y_train)[order].mean(axis=1)


@pytest.mark.parametrize("k", [1, 2, 5, 39, 40, 60])
def test_knn_equals_stable_sort_reference_on_ties(k):
    # A 3-value integer grid in 2-D: nearly every distance is tied, and the
    # training set repeats every row at least once.
    rng = np.random.default_rng(k)
    grid = rng.integers(0, 3, size=(20, 2)).astype(float)
    x = np.r_[grid, grid[::-1]]
    y = rng.integers(0, 2, size=40)
    y[:2] = (0, 1)
    queries = rng.integers(0, 3, size=(23, 2)).astype(float)
    model = KNeighbors(k=k).fit(x, y)
    want = stable_sort_knn_reference(x, y, queries, k)
    for chunk in (512, 7, 1):  # 7 splits the 23 queries across chunk boundaries
        assert np.array_equal(model.predict_scores(queries, chunk=chunk), want)


@pytest.mark.parametrize("k", [2, 3])
def test_knn_equals_stable_sort_reference_on_overflowing_distances(k):
    # Squares beyond the float range give inf - inf = NaN distances, which a
    # stable sort puts last; with k = 3 the k-th distance of the first query
    # is itself NaN.
    x = np.array([[1e200], [2e200], [0.0], [3e200], [1.0]])
    y = np.array([1, 0, 1, 0, 1])
    queries = np.array([[1e200], [0.5], [-3e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = stable_sort_knn_reference(x, y, queries, k)
        got = KNeighbors(k=k).fit(x, y).predict_scores(queries)
    assert np.array_equal(got, want)
