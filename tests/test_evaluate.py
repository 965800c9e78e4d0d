"""Stratified splitting, the chi-squared filter, and the report builder."""

import numpy as np
import pytest

from refsel import (
    EvalProtocol,
    LabeledDataset,
    LogisticRegression,
    chi2_rank,
    chi2_scores,
    evaluate_selection,
    make_planted_dataset,
    select_features,
    stratified_split,
)
from refsel import evaluate as evaluate_module
from refsel.evaluate import CLASSIFIERS
from refsel.exceptions import DataError, ParameterError
from refsel.metrics import auroc, sensitivity
from refsel.sampling import derive_seed, stratified_rows


def dataset(n_majority, n_minority, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n_majority + n_minority, n_features))
    y = np.r_[np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)]
    return LabeledDataset(X=x, y=y)


# ---------------------------------------------------------------------------
# stratified_split

def test_split_counts_70_30():
    (x_tr, y_tr), (x_te, y_te) = stratified_split(dataset(100, 10), EvalProtocol(split_seed=3))
    assert int(np.sum(y_tr == 0)) == 70 and int(np.sum(y_tr == 1)) == 7
    assert int(np.sum(y_te == 0)) == 30 and int(np.sum(y_te == 1)) == 3
    assert x_tr.shape[0] == 77 and x_te.shape[0] == 33


def test_split_deterministic():
    data = dataset(50, 8)
    p = EvalProtocol(split_seed=11)
    (a_tr, _), _ = stratified_split(data, p)
    (b_tr, _), _ = stratified_split(data, p)
    assert np.array_equal(a_tr, b_tr)
    (c_tr, _), _ = stratified_split(data, p, seed=999)
    assert not np.array_equal(a_tr, c_tr)


def test_split_preserves_proportions_large():
    data = dataset(9000, 1000)
    (x_tr, y_tr), _ = stratified_split(data, EvalProtocol(split_seed=5))
    assert abs(np.mean(y_tr) - 0.1) < 0.01


def test_split_small_class_raises():
    x = np.zeros((5, 2))
    y = np.array([0, 0, 0, 0, 1])
    data = LabeledDataset(X=x, y=y)
    with pytest.raises(DataError, match="at least 2"):
        stratified_split(data, EvalProtocol())


def test_protocol_validation():
    with pytest.raises(ParameterError):
        EvalProtocol(train_fraction=1.0)
    with pytest.raises(ParameterError):
        EvalProtocol(trials=0)
    with pytest.raises(ParameterError):
        EvalProtocol(classifiers=("svm",))
    # Two copies would share one per-trial score list, so trial 1 would
    # report trial 0's second score.
    with pytest.raises(ParameterError, match="twice"):
        EvalProtocol(classifiers=("knn", "gaussian_nb", "knn"))


# ---------------------------------------------------------------------------
# chi-squared filter

def test_chi2_identical_feature_scores_zero():
    x = np.column_stack([np.full(10, 0.4), np.r_[np.zeros(7), np.ones(3)]])
    y = np.r_[np.zeros(7, dtype=int), np.ones(3, dtype=int)]
    scores = chi2_scores(LabeledDataset(X=x, y=y))
    assert scores[0] == pytest.approx(0.0, abs=1e-12)
    assert scores[1] > 0.0


def test_chi2_minority_only_feature_ranks_above_constant():
    x = np.zeros((12, 3))
    x[:, 0] = 0.5                      # constant everywhere
    x[-3:, 1] = 1.0                    # nonzero only in minority
    y = np.r_[np.zeros(9, dtype=int), np.ones(3, dtype=int)]
    data = LabeledDataset(X=x, y=y)
    scores = chi2_scores(data)
    assert scores[1] > scores[0]
    assert chi2_rank(data, 1).tolist() == [1]


def test_chi2_three_feature_hand_oracle():
    x = np.array([
        [1.0, 0.0, 2.0],
        [2.0, 1.0, 2.0],
        [3.0, 0.0, 2.0],
        [0.0, 4.0, 2.0],
        [1.0, 3.0, 2.0],
    ])
    y = np.array([0, 0, 0, 1, 1])
    scores = chi2_scores(LabeledDataset(X=x, y=y))
    for j in range(3):
        total = x[:, j].sum()
        expected_score = 0.0
        for c in (0, 1):
            observed = x[y == c, j].sum()
            expected = (np.sum(y == c) / 5) * total
            if total > 0:
                expected_score += (observed - expected) ** 2 / expected
        assert scores[j] == pytest.approx(expected_score, rel=1e-12)


def test_chi2_zero_total_feature_scores_zero():
    x = np.zeros((6, 2))
    x[:, 1] = np.r_[np.zeros(4), np.ones(2)]
    y = np.r_[np.zeros(4, dtype=int), np.ones(2, dtype=int)]
    assert chi2_scores(LabeledDataset(X=x, y=y))[0] == 0.0


def test_chi2_rejects_negative_values():
    x = np.array([[0.5, -0.1]] * 3 + [[0.2, 0.3]])
    y = np.array([0, 0, 0, 1])
    with pytest.raises(DataError, match="scaling"):
        chi2_scores(LabeledDataset(X=x, y=y))


def test_chi2_rank_size_and_tie_break():
    x = np.zeros((8, 4))
    x[-2:, 1] = 1.0
    x[-2:, 3] = 1.0  # same score as feature 1: tie resolves to lower index first
    y = np.r_[np.zeros(6, dtype=int), np.ones(2, dtype=int)]
    data = LabeledDataset(X=x, y=y)
    assert chi2_rank(data, 1).tolist() == [1]
    assert chi2_rank(data, 10).tolist() == [0, 1, 2, 3]
    with pytest.raises(ParameterError):
        chi2_rank(data, 0)


def test_chi2_invariant_under_row_permutation():
    data, _ = make_planted_dataset(60, 12, 8, n_planted=2, shift=1.5, seed=9)
    shifted = LabeledDataset(X=data.X - data.X.min(), y=data.y)
    perm = np.random.default_rng(10).permutation(shifted.n_rows)
    permuted = LabeledDataset(X=shifted.X[perm], y=shifted.y[perm])
    assert np.allclose(chi2_scores(shifted), chi2_scores(permuted))


# ---------------------------------------------------------------------------
# evaluate_selection

def planted_cds(seed=21, n_features=20):
    data, planted = make_planted_dataset(300, 40, n_features, n_planted=4, shift=2.5, seed=seed)
    lo, hi = data.X.min(axis=0), data.X.max(axis=0)
    scaled = LabeledDataset(X=(data.X - lo) / (hi - lo), y=data.y)
    return scaled, planted


def test_full_selection_equals_baseline_rows():
    cds, _ = planted_cds()
    full = select_features(np.arange(20, dtype=float), 0.0)
    full = type(full)(delta=full.delta, delta_quantile=0.0, threshold=-1.0,
                      selected=np.arange(20))
    protocol = EvalProtocol(trials=2, split_seed=7, classifiers=("gaussian_nb",))
    report = evaluate_selection(cds, [(full.delta_quantile, full.selected)], protocol)
    baseline = {r.trial: r for r in report.rows if r.delta_quantile is None}
    selected = {r.trial: r for r in report.rows if r.delta_quantile == 0.0}
    for trial in baseline:
        assert baseline[trial].auroc == selected[trial].auroc
        assert baseline[trial].sensitivity == selected[trial].sensitivity
        assert selected[trial].n_features == 20


def test_empty_selection_yields_warning_rows():
    cds, _ = planted_cds()
    empty = select_features(np.zeros(20), 0.5)
    assert empty.n_selected == 0
    protocol = EvalProtocol(trials=2, split_seed=7, classifiers=("gaussian_nb", "knn"))
    report = evaluate_selection(cds, [(empty.delta_quantile, empty.selected)], protocol)
    skipped = [r for r in report.rows if r.delta_quantile == 0.5]
    assert len(skipped) == 4  # two classifiers x two trials
    assert all(np.isnan(r.auroc) and r.note for r in skipped)
    summary = [s for s in report.summaries if s.delta_quantile == 0.5]
    assert all("empty" in s.note for s in summary)
    # Baseline rows still carry numbers.
    assert all(np.isfinite(r.auroc) for r in report.rows if r.delta_quantile is None)


def test_evaluate_deterministic_and_planted_close_to_baseline():
    # With 4 informative features out of 40, the 0.9 quantile of a 0/1 delta
    # vector thresholds between the blocks, selecting exactly the plant.
    cds, planted = planted_cds(n_features=40)
    selection = select_features(
        np.where(np.isin(np.arange(40), planted), 1.0, 0.0), 0.9
    )
    assert set(selection.selected.tolist()) == set(planted.tolist())
    protocol = EvalProtocol(trials=3, split_seed=13, classifiers=("gaussian_nb",))
    pairs = [(selection.delta_quantile, selection.selected)]
    r1 = evaluate_selection(cds, pairs, protocol)
    r2 = evaluate_selection(cds, pairs, protocol)
    assert [vars(a) for a in r1.rows] == [vars(b) for b in r2.rows]

    mean_sel = [s for s in r1.summaries if s.delta_quantile == 0.9][0].auroc_mean
    mean_base = [s for s in r1.summaries if s.delta_quantile is None][0].auroc_mean
    assert abs(mean_sel - mean_base) <= 0.05


@pytest.mark.parametrize("cols", [[3, 20], [-1, 3], [25]])
def test_selection_index_outside_dataset_is_data_error(cols):
    cds, _ = planted_cds()
    protocol = EvalProtocol(trials=1, classifiers=("gaussian_nb",))
    with pytest.raises(DataError, match="feature index"):
        evaluate_selection(cds, [(0.5, cols)], protocol)


def test_report_covers_every_combination():
    cds, _ = planted_cds()
    sel = select_features(np.arange(20, dtype=float), 0.8)
    protocol = EvalProtocol(trials=2, classifiers=("gaussian_nb", "logistic_regression", "knn"))
    report = evaluate_selection(cds, [(sel.delta_quantile, sel.selected)], protocol)
    assert len(report.rows) == 2 * 3 * 2      # (baseline + one selection) x clf x trials
    assert len(report.summaries) == 2 * 3
    assert all(0.0 <= r.auroc <= 1.0 and 0.0 <= r.sensitivity <= 1.0 for r in report.rows)


class ReferenceLogisticRegression:
    """Logistic regression as fit on one training set at a time, before stacking."""

    def fit(self, X, y):
        n = X.shape[0]
        yf = y.astype(np.float64)
        w, b = np.zeros(X.shape[1]), 0.0
        for _ in range(1000):
            residual = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -500, 500))) - yf
            grad_w, grad_b = X.T @ residual / n + 1.0 * w / n, float(np.mean(residual))
            if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < 1e-8:
                break
            w -= 0.1 * grad_w
            b -= 0.1 * grad_b
        self.w, self.b = w, b
        return self

    def predict_scores(self, X):
        return 1.0 / (1.0 + np.exp(-np.clip(X @ self.w + self.b, -500, 500)))


def reference_rows(cds, entries, protocol):
    """The per-trial evaluation loop as written before logistic regression was
    stacked: split, slice the columns, fit and score each classifier."""
    rows = []
    for trial in range(protocol.trials):
        (x_tr, y_tr), (x_te, y_te) = stratified_split(
            cds, protocol, seed=derive_seed(protocol.split_seed, trial))
        for dq, cols in entries:
            for name in protocol.classifiers:
                if len(cols) == 0:
                    rows.append((name, dq, trial, 0, "nan", "nan", "empty selection; skipped"))
                    continue
                model = (ReferenceLogisticRegression() if name == "logistic_regression"
                         else CLASSIFIERS[name]())
                scores = model.fit(x_tr[:, cols], y_tr).predict_scores(x_te[:, cols])
                rows.append((name, dq, trial, len(cols), repr(auroc(scores, y_te)),
                             repr(sensitivity(scores, y_te)), ""))
    return rows


@pytest.mark.parametrize("cols", [[7], [19, 2, 11], list(range(20))])
def test_gathered_stack_fits_like_sliced_trials(cols):
    # Fits on the evaluation's gathered stack and on the per-trial slices
    # X[rows][:, cols] must agree to the bit, so the layout must too.
    cds, _ = planted_cds()
    rows = np.array([stratified_rows(cds.y, 0.7, seed)[0] for seed in range(3)])
    stack = evaluate_module._gather(cds.X[:, cols].T, rows)
    model = LogisticRegression().fit(stack, cds.y[rows])
    for t, r in enumerate(rows):
        sliced = cds.X[r][:, cols]
        assert np.array_equal(evaluate_module._gather(cds.X[:, cols].T, r), sliced)
        reference = ReferenceLogisticRegression().fit(sliced, cds.y[r])
        assert np.array_equal(model.coef_[t], reference.w)
        assert model.intercept_[t] == reference.b


ALL_CLASSIFIERS = ("gaussian_nb", "logistic_regression", "knn")


@pytest.mark.parametrize("classifiers, trials_per_stack", [
    (ALL_CLASSIFIERS, None),
    (ALL_CLASSIFIERS, 1),
    (ALL_CLASSIFIERS, 2),
    (("knn", "gaussian_nb"), None),
    (("logistic_regression",), 2),
])
def test_evaluate_rows_equal_per_trial_reference(monkeypatch, classifiers, trials_per_stack):
    cds, planted = planted_cds()
    n_train = 210 + 28  # 70% of each class
    if trials_per_stack is not None:
        # Stacks of the 20-column baseline hold this many trials; 3 trials
        # then split into stacks of 2 and 1.
        monkeypatch.setattr(evaluate_module, "LR_STACK_BYTES",
                            trials_per_stack * n_train * 20 * 8)
    selections = [
        (0.5, np.sort(planted)),
        (0.9, np.array([7])),                  # one column
        (0.95, np.array([], dtype=np.int64)),  # empty selection
        (0.3, np.array([19, 2, 11])),          # unsorted columns
    ]
    protocol = EvalProtocol(trials=3, split_seed=17, classifiers=classifiers)
    report = evaluate_selection(cds, selections, protocol)
    got = [(r.classifier, r.delta_quantile, r.trial, r.n_features, repr(r.auroc),
            repr(r.sensitivity), r.note) for r in report.rows]
    entries = [(None, np.arange(20))] + selections
    assert got == reference_rows(cds, entries, protocol)


@pytest.mark.parametrize("trials", [1, 3])
def test_summaries_are_each_entrys_own_trials(trials):
    # Two entries share level 0.9 with different columns; each summary must
    # be the mean and std of its own entry's rows alone (ddof 0 for one
    # trial), and the empty selection gets a NaN summary.
    cds, _ = planted_cds()
    protocol = EvalProtocol(trials=trials, split_seed=5)
    entries = [(0.9, [0, 1, 2]), (0.9, [5, 11]), (0.95, [])]
    report = evaluate_selection(cds, entries, protocol)
    ddof = 1 if trials > 1 else 0
    expected = []
    for dq, cols in [(None, list(range(20)))] + entries:
        # An entry's rows do not depend on the other entries, so score it alone.
        alone = [] if dq is None else [(dq, cols)]
        rows = evaluate_selection(cds, alone, protocol).rows
        for name in protocol.classifiers:
            own = [r for r in rows if r.classifier == name and r.delta_quantile == dq]
            assert len(own) == trials
            rocs = np.array([r.auroc for r in own])
            sens = np.array([r.sensitivity for r in own])
            if not cols:
                expected.append((name, dq, 0) + ("nan",) * 4 + ("empty selection; skipped",))
                continue
            expected.append((name, dq, len(cols), repr(float(np.mean(rocs))),
                             repr(float(np.std(rocs, ddof=ddof))),
                             repr(float(np.mean(sens))),
                             repr(float(np.std(sens, ddof=ddof))), ""))
    got = [(s.classifier, s.delta_quantile, s.n_features, repr(s.auroc_mean),
            repr(s.auroc_std), repr(s.sensitivity_mean), repr(s.sensitivity_std), s.note)
           for s in report.summaries]
    assert got == expected
