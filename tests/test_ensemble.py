"""Ensemble orchestration, error pooling and quantile selection."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refsel.ensemble
from refsel import (
    DsaeConfig,
    EnsembleConfig,
    LabeledDataset,
    REMatrix,
    TrainingConfig,
    class_mean_re,
    export_q_csv,
    run_ensemble,
    select_at_thresholds,
    select_features,
    stacks,
)
from refsel.exceptions import ComponentError, DataError, NumericError, ParameterError, ShapeError
from refsel.nn import layers_from_widths

DELTA_GRID = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)


def make_data(n_majority, n_minority, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n_majority + n_minority, n_features))
    y = np.concatenate([np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)])
    return LabeledDataset(X=x, y=y)


def make_ensemble_config(n_features=4, n_components=2, epochs=1, seed=5, parallelism=1):
    dsae = DsaeConfig(
        encoder_layers=layers_from_widths([n_features, 3], "tanh"),
        decoder_layers=layers_from_widths([3, n_features], "sigmoid"),
        l1_penalty=1e-5,
    )
    return EnsembleConfig(
        n_components=n_components,
        dsae=dsae,
        training=TrainingConfig(epochs=epochs, batch_size=8),
        master_seed=seed,
        parallelism=parallelism,
    )


# ---------------------------------------------------------------------------
# run_ensemble

def test_single_component_shape():
    data = make_data(30, 5)
    q = run_ensemble(data, make_ensemble_config(n_components=1))
    assert q.Q.shape == (10, 4)
    assert int(np.sum(q.labels == 1)) == 5


def test_isolet_scale_row_count():
    # 52 minority rows and 25 components give a 2600-row matrix.
    data = make_data(225, 52, n_features=4)
    cfg = make_ensemble_config(n_components=25, epochs=0)
    q = run_ensemble(data, cfg)
    assert q.Q.shape == (2600, 4)
    assert int(np.sum(q.labels == 1)) == 1300


def test_parallelism_levels_bit_identical():
    data = make_data(40, 8)
    base = make_ensemble_config(n_components=6, epochs=2, seed=99)
    q1 = run_ensemble(data, dataclasses.replace(base, parallelism=1))
    q8 = run_ensemble(data, dataclasses.replace(base, parallelism=8))
    assert np.array_equal(q1.Q, q8.Q)
    assert np.array_equal(q1.labels, q8.labels)


def test_run_ensemble_logs_the_last_epoch_losses(caplog):
    with caplog.at_level("INFO", logger="refsel.ensemble"):
        run_ensemble(make_data(30, 5), make_ensemble_config(n_components=3, parallelism=2))
    assert "trained 3 components in stacks of 2; last-epoch loss" in caplog.text


@pytest.mark.parametrize("parallelism, sizes", [(1, [1] * 5), (2, [2, 2, 1]), (4, [4, 1])])
def test_blocks_of_stacks_equal_the_whole_matrix(parallelism, sizes):
    data = make_data(30, 5)
    cfg = make_ensemble_config(n_components=5, parallelism=parallelism)
    ranges = list(stacks(cfg))
    assert [len(r) for r in ranges] == sizes
    assert [b for r in ranges for b in r] == list(range(5))
    blocks = [run_ensemble(data, cfg, components=r) for r in ranges]
    whole = run_ensemble(data, cfg)
    assert np.concatenate([b.Q for b in blocks]).tobytes() == whole.Q.tobytes()
    assert np.array_equal(np.concatenate([b.labels for b in blocks]), whole.labels)
    for estimator in ("mean", "median"):
        streamed = class_mean_re(iter(blocks), estimator)
        assert [v.tobytes() for v in streamed] == [
            v.tobytes() for v in class_mean_re([whole], estimator)]


def test_component_error_names_the_index_in_the_whole_ensemble(monkeypatch):
    score = refsel.ensemble.reconstruction_errors

    def second_of_stack_nan(*args, **kwargs):
        errors = score(*args, **kwargs)
        errors[1] = np.nan
        return errors

    monkeypatch.setattr(refsel.ensemble, "reconstruction_errors", second_of_stack_nan)
    cfg = make_ensemble_config(n_components=4, parallelism=2)
    for components, index in ((None, 1), (range(2, 4), 3)):
        with pytest.raises(ComponentError, match="non-finite reconstruction errors") as exc:
            run_ensemble(make_data(30, 5), cfg, components=components)
        assert exc.value.component_index == index


def test_a_stack_wide_error_names_the_stacks_first_component(monkeypatch):
    fit, calls = refsel.ensemble.train, []

    def second_stack_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise DataError("no rows to train on")
        return fit(*args, **kwargs)

    monkeypatch.setattr(refsel.ensemble, "train", second_stack_fails)
    cfg = make_ensemble_config(n_components=5, parallelism=2)
    with pytest.raises(ComponentError) as exc:
        run_ensemble(make_data(30, 5), cfg)
    assert str(exc.value) == "component 2: no rows to train on"
    assert exc.value.component_index == 2 and exc.value.exit_code == 2
    assert type(exc.value.__cause__) is DataError


def test_a_component_error_from_outside_refsel_exits_3():
    assert ComponentError(0, ValueError("x")).exit_code == 3


def test_ensemble_config_bounds_the_smallest_error_matrix():
    # Q holds at least two float64 rows of 4 features per component.
    largest = refsel.ensemble.Q_MAX_BYTES // (16 * 4)
    assert make_ensemble_config(n_components=largest).n_components == largest
    for n_components in (largest + 1, 2**63):
        with pytest.raises(ParameterError, match=f"^n_components = {n_components} gives an "
                                                 "error matrix over 140737488355328 bytes$"):
            make_ensemble_config(n_components=n_components)


def test_rows_grouped_by_component_minority_first():
    data = make_data(30, 3)
    q = run_ensemble(data, make_ensemble_config(n_components=4, epochs=0))
    per_component = np.array([1, 1, 1, 0, 0, 0])
    assert np.array_equal(q.labels, np.tile(per_component, 4))


def test_feature_count_mismatch_raises():
    data = make_data(30, 5, n_features=6)
    with pytest.raises(ShapeError):
        run_ensemble(data, make_ensemble_config(n_features=4))


def test_component_failure_is_tagged():
    data = make_data(30, 5)
    data.X[0, 0] = np.nan  # NaN propagates to a non-finite loss inside training
    with np.errstate(invalid="ignore"), pytest.raises(ComponentError, match="component 0"):
        run_ensemble(data, make_ensemble_config(n_components=1, epochs=1))


@pytest.mark.parametrize("components", [range(0, 4, 2), range(5, 7), range(0), range(-1, 2)],
                         ids=["step_2", "beyond_n_components", "empty", "negative"])
def test_run_ensemble_rejects_components_outside_one_step_range(components):
    # n_components = 3: a step-2 range used to fail in a reshape, one past the
    # end trained components no manifest lists, and an empty one gave an empty Q.
    with pytest.raises(ParameterError, match=r"non-empty step-1 range within range\(3\)"):
        run_ensemble(make_data(30, 5), make_ensemble_config(n_components=3),
                     components=components)


def test_ensemble_config_validation():
    with pytest.raises(ParameterError):
        make_ensemble_config(n_components=0)


def test_ensemble_config_bounds_a_numpy_component_count_without_wrapping():
    # 16 * 2**62 * 4 wraps to 0 in int64 arithmetic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="^n_components = 4611686018427387904 gives"):
            make_ensemble_config(n_components=np.int64(2**62))


@pytest.mark.parametrize("call, error, message", [
    (lambda: REMatrix(Q=np.zeros(4), labels=np.array([0, 1, 0, 1])), DataError,
     "Q must be 2-D"),
    (lambda: REMatrix(Q=np.zeros((4, 2)), labels=np.array([0, 1])), DataError,
     "labels length must match Q rows"),
    (lambda: select_at_thresholds([], []), ParameterError, "need at least one quantile level"),
], ids=["q_rank", "label_count", "no_levels"])
def test_ensemble_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# REMatrix

def test_rematrix_rejects_negative_entries():
    with pytest.raises(DataError):
        REMatrix(Q=np.array([[-0.1, 0.2], [0.3, 0.4]]), labels=np.array([0, 1]))


def test_rematrix_requires_balanced_labels():
    with pytest.raises(DataError):
        REMatrix(Q=np.ones((3, 2)), labels=np.array([0, 1, 1]))


# ---------------------------------------------------------------------------
# class_mean_re

def test_class_mean_direct_arithmetic():
    q = REMatrix(
        Q=np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 2.0]]),
        labels=np.array([1, 1, 0, 0]),
    )
    l_min, l_maj = class_mean_re([q])
    assert np.array_equal(l_min, [2.0, 0.0])
    assert np.array_equal(l_maj, [0.0, 2.0])
    assert np.array_equal(l_min - l_maj, [2.0, -2.0])


def test_class_mean_identical_distributions():
    rows = np.random.default_rng(1).uniform(size=(4, 3))
    q = REMatrix(Q=np.vstack([rows, rows]), labels=np.array([1] * 4 + [0] * 4))
    l_min, l_maj = class_mean_re([q])
    assert np.allclose(l_min, l_maj)


def test_class_mean_matches_grouped_mean_oracle():
    rng = np.random.default_rng(2)
    q = REMatrix(Q=rng.uniform(size=(20, 4)), labels=np.array([1, 0] * 10))
    l_min, l_maj = class_mean_re([q])
    for j in range(4):
        expect_min = sum(q.Q[t, j] for t in range(20) if q.labels[t] == 1) / 10
        expect_maj = sum(q.Q[t, j] for t in range(20) if q.labels[t] == 0) / 10
        assert l_min[j] == pytest.approx(expect_min, rel=1e-12)
        assert l_maj[j] == pytest.approx(expect_maj, rel=1e-12)


def test_class_median_mode():
    q = REMatrix(
        Q=np.array([[0.0], [10.0], [1.0], [1.0]]), labels=np.array([1, 1, 0, 0])
    )
    l_min, l_maj = class_mean_re([q], estimator="median")
    assert l_min[0] == 5.0 and l_maj[0] == 1.0
    with pytest.raises(ParameterError):
        class_mean_re([q], estimator="mode")


@pytest.mark.parametrize("consume", [
    lambda q, path: class_mean_re(q),
    lambda q, path: class_mean_re(q, estimator="median"),
    lambda q, path: select_at_thresholds(q, [0.5]),
    lambda q, path: export_q_csv(lambda block: block, path, None, q),
], ids=["class_mean_re", "class_median_re", "select_at_thresholds", "export_q_csv"])
def test_empty_q_is_a_data_error(tmp_path, consume):
    with warnings.catch_warnings(), pytest.raises(DataError, match="Q has no rows"):
        warnings.simplefilter("error")
        consume(iter([]), tmp_path / "q.csv")
    assert list(tmp_path.iterdir()) == []


# Magnitudes up to 1e300, so class sums overflow to inf; -0.0 passes the
# non-negativity check and is its own sum.
ERRORS = st.one_of(st.just(-0.0), st.floats(0.0, 1e300))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_streamed_class_means_equal_np_mean_bit_for_bit(data):
    # Contiguous blocks of whole components: each holds as many rows of each class.
    n_features = data.draw(st.integers(1, 5))
    halves = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=6).filter(any))
    blocks = []
    for n in halves:
        q = data.draw(st.lists(st.lists(ERRORS, min_size=n_features, max_size=n_features),
                               min_size=2 * n, max_size=2 * n))
        labels = data.draw(st.permutations([1] * n + [0] * n))
        blocks.append(REMatrix(Q=np.array(q).reshape(2 * n, n_features), labels=labels))
    q = np.concatenate([b.Q for b in blocks])
    labels = np.concatenate([b.labels for b in blocks])
    original = q.tobytes()
    with np.errstate(over="ignore"):
        streamed = class_mean_re(iter(blocks))
        whole = class_mean_re([REMatrix(Q=q, labels=labels)])
        expected = [np.mean(q[labels == c], axis=0) for c in (1, 0)]
    for got in (streamed, whole):
        assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]
    assert np.concatenate([b.Q for b in blocks]).tobytes() == original


# ---------------------------------------------------------------------------
# select_features / select_at_thresholds

def test_select_hand_computed_quantile():
    # sorted delta (0.0, 0.1, 0.3, 0.9); position (4-1)*0.75 = 2.25
    # -> 0.3 + 0.25*(0.9-0.3) = 0.45; only 0.9 exceeds it.
    result = select_features([0.3, 0.0, 0.9, 0.1], 0.75)
    assert result.threshold == pytest.approx(0.45)
    assert result.selected.tolist() == [2]


def test_select_at_090_hand_computed():
    # position (4-1)*0.9 = 2.7 -> 0.3 + 0.7*0.6 = 0.72.
    result = select_features([0.3, 0.0, 0.9, 0.1], 0.9)
    assert result.threshold == pytest.approx(0.72)
    assert result.selected.tolist() == [2]


def test_select_all_equal_gives_empty():
    for dq in (0.0, 0.5, 0.99):
        assert select_features([0.2, 0.2, 0.2], dq).selected.size == 0


def test_select_zero_quantile_selects_above_minimum():
    result = select_features([0.5, 0.1, 0.9, 0.1], 0.0)
    assert result.threshold == pytest.approx(0.1)
    assert result.selected.tolist() == [0, 2]


def test_select_uses_exact_quantile_when_threshold_float_rounds():
    # The top two values lie one ulp apart: the float threshold at h = 1.5
    # rounds onto one of them, yet the exact quantile lies strictly between.
    top = 1.0
    below = np.nextafter(top, 0.0)
    result = select_features([0.0, below, top], 0.75)
    assert result.threshold == float(np.quantile([0.0, below, top], 0.75))
    assert result.selected.tolist() == [2]
    # An integer position keeps ties at the order statistic out.
    assert select_features([0.0, below, top], 0.5).selected.tolist() == [2]


def test_select_rejects_bad_quantile():
    for dq in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterError):
            select_features([0.1, 0.2], dq)
    with pytest.raises(ParameterError):
        select_features([], 0.5)


@given(
    deltas=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=40),
    q_lo=st.floats(0, 0.99),
    q_hi=st.floats(0, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_selection_nestedness(deltas, q_lo, q_hi):
    lo, hi = sorted((q_lo, q_hi))
    sel_lo = set(select_features(deltas, lo).selected.tolist())
    sel_hi = set(select_features(deltas, hi).selected.tolist())
    assert sel_hi <= sel_lo


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=30, unique=True))
@example(deltas=[0.0, 5e-324])  # the interpolated threshold rounds onto the maximum
@settings(max_examples=100, deadline=None)
def test_unique_maximum_selected_at_top_quantile(deltas):
    j = len(deltas)
    result = select_features(deltas, (j - 1) / j)
    assert result.selected.tolist() == [int(np.argmax(deltas))]


def test_select_at_thresholds_shares_class_means():
    rng = np.random.default_rng(5)
    q = REMatrix(Q=rng.uniform(size=(12, 6)), labels=np.array([1, 0] * 6))
    results = select_at_thresholds([q], [0.9, 0.9, 0.5])
    assert results[0].threshold == results[1].threshold
    assert np.array_equal(results[0].selected, results[1].selected)
    l_min, l_maj = class_mean_re([q])
    assert np.allclose(results[2].delta, l_min - l_maj)
    assert np.array_equal(results[2].l_min, l_min)


def test_select_at_thresholds_rejects_overflowing_class_errors():
    # Finite errors whose class sums pass float64's maximum: the means are inf.
    # The check reports it, so numpy's overflow warning stays silent.
    q = REMatrix(Q=np.full((4, 3), 1e308), labels=np.array([1, 0] * 2))
    with warnings.catch_warnings(), pytest.raises(NumericError, match="overflow"):
        warnings.simplefilter("error", RuntimeWarning)
        select_at_thresholds([q], [0.5])


def test_select_at_thresholds_nested_over_default_grid():
    rng = np.random.default_rng(6)
    q = REMatrix(Q=rng.uniform(size=(40, 25)), labels=np.array([1, 0] * 20))
    results = select_at_thresholds([q], DELTA_GRID)
    sets = [set(r.selected.tolist()) for r in results]
    for smaller, larger in zip(sets[1:], sets[:-1]):
        assert smaller <= larger


def test_aggregation_and_selection_are_permutation_equivariant():
    # Permuting the error-matrix columns permutes delta and the selection
    # identically; the trained-network stage upstream is only statistically
    # order-free, so the bit-exact claim applies from the pooled matrix on.
    rng = np.random.default_rng(7)
    q = REMatrix(Q=rng.uniform(size=(16, 9)), labels=np.array([1, 0] * 8))
    perm = rng.permutation(9)
    q_perm = REMatrix(Q=q.Q[:, perm], labels=q.labels)

    base = select_at_thresholds([q], [0.7])[0]
    permuted = select_at_thresholds([q_perm], [0.7])[0]
    assert np.array_equal(permuted.delta, base.delta[perm])
    assert permuted.threshold == base.threshold
    mapped = np.sort(np.array([np.flatnonzero(perm == i)[0] for i in base.selected]))
    assert np.array_equal(np.sort(permuted.selected), mapped)
