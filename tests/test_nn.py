"""Autoencoder forward/backward/training tests.

The independent oracles live here: a straight-line pure-Python re-evaluation
of the layer formulas, central finite differences for every gradient, and a
hand-unrolled Adam recurrence.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from refsel import (
    AdamState,
    DsaeConfig,
    DsaeModel,
    LayerSpec,
    TrainingConfig,
    adam_step,
    backward,
    forward,
    loss_with_penalty,
    reconstruction_errors,
    train,
)
from refsel.exceptions import DataError, NumericError, ParameterError, ShapeError
from refsel.nn import _ACTIVATIONS, SCORE_ROWS, _activate, _layer_views, layers_from_widths


# ---------------------------------------------------------------------------
# Oracles

def straight_line_forward(model, row):
    """Re-evaluate the composed layer formulas with pure-Python loops."""
    a = [float(v) for v in row]
    outputs = []
    for W, b, spec in zip(model.weights, model.biases, model.config.layers):
        z = [
            sum(W[i][j] * a[j] for j in range(len(a))) + b[i]
            for i in range(len(b))
        ]
        if spec.activation == "tanh":
            a = [math.tanh(v) for v in z]
        elif spec.activation == "sigmoid":
            a = [1.0 / (1.0 + math.exp(-v)) for v in z]
        elif spec.activation == "relu":
            a = [v if v > 0 else 0.0 for v in z]
        else:
            a = list(z)
        outputs.append(a)
    return outputs


def finite_difference_grads(model, batch, h=1e-5):
    """Central differences of the total loss for every weight and bias, shaped like params."""
    def total():
        return loss_with_penalty(model, batch)[0]

    grads = np.zeros_like(model.params)
    grad_w, grad_b = _layer_views(model.config, grads)
    for param, g in zip(model.weights + model.biases, grad_w + grad_b):
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            up = total()
            param[idx] = orig - h
            down = total()
            param[idx] = orig
            g[idx] = (up - down) / (2 * h)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-5, atol=1e-8):
    """Relative error <= rtol with an absolute floor for near-zero entries."""
    assert analytic.shape == numeric.shape
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(err <= bound), f"max excess {np.max(err - bound)}"


def make_model(widths, encoder_acts, decoder_acts, l1_penalty=0.0, seed=0):
    mid = len(widths) // 2
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths(widths[: mid + 1], encoder_acts),
        decoder_layers=layers_from_widths(widths[mid:], decoder_acts),
        l1_penalty=l1_penalty,
        seed=seed,
    )
    return DsaeModel.from_config(cfg)


# ---------------------------------------------------------------------------
# Config and model validation

def test_layer_spec_rejects_unknown_activation():
    message = ("unknown activation 'softmax'; "
               "expected one of ('tanh', 'relu', 'sigmoid', 'linear')")
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        LayerSpec(2, 3, "softmax")


def test_config_requires_chained_widths():
    with pytest.raises(ParameterError, match="chain"):
        DsaeConfig(
            encoder_layers=(LayerSpec(4, 2, "tanh"),),
            decoder_layers=(LayerSpec(3, 4, "linear"),),
        )


def test_config_requires_autoencoder_shape():
    with pytest.raises(ParameterError):
        DsaeConfig(
            encoder_layers=(LayerSpec(4, 2, "tanh"),),
            decoder_layers=(LayerSpec(2, 5, "linear"),),
        )


def test_config_rejects_negative_penalty():
    with pytest.raises(ParameterError):
        DsaeConfig(
            encoder_layers=layers_from_widths([2, 2], "tanh"),
            decoder_layers=layers_from_widths([2, 2], "linear"),
            l1_penalty=-1.0,
        )


@pytest.mark.parametrize("make", [
    lambda v: TrainingConfig(learning_rate=v),
    lambda v: TrainingConfig(epsilon=v),
    lambda v: DsaeConfig(encoder_layers=layers_from_widths([2, 2], "tanh"),
                         decoder_layers=layers_from_widths([2, 2], "linear"), l1_penalty=v),
], ids=["learning_rate", "epsilon", "l1_penalty"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_hyperparameter(make, value):
    with pytest.raises(ParameterError, match="finite"):
        make(value)


def test_model_init_is_deterministic_and_bounded():
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths([6, 3], "tanh"),
        decoder_layers=layers_from_widths([3, 6], "sigmoid"),
        seed=123,
    )
    m1 = DsaeModel.from_config(cfg)
    m2 = DsaeModel.from_config(cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    limit = math.sqrt(6.0 / (6 + 3))
    assert np.all(np.abs(m1.weights[0]) <= limit)
    assert all(np.all(b == 0) for b in m1.biases)


def test_layer_views_write_through_to_params():
    model = make_model([3, 2, 3], "tanh", "linear", seed=5)
    model.weights[1][2, 0] = 7.0
    model.biases[1][...] = -1.0
    # Layer 0's W (2x3) and b fill params[:8]; layer 1's W (3x2) and b follow.
    assert model.params[8:14].reshape(3, 2)[2, 0] == 7.0
    assert np.array_equal(model.params[-3:], [-1.0, -1.0, -1.0])
    with pytest.raises(AttributeError):
        model.weights = [np.eye(3)]
    with pytest.raises(AttributeError):
        model.biases = [np.zeros(3)]


def test_model_rejects_misshapen_or_non_finite_params():
    model = make_model([3, 2, 3], "tanh", "linear")
    with pytest.raises(ShapeError):
        DsaeModel(params=model.params[:-1], config=model.config)
    params = model.params.copy()
    params[-1] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        DsaeModel(params=params, config=model.config)


# ---------------------------------------------------------------------------
# forward

def identity_model(n=2, bias_last=None):
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths([n, n], "linear"),
        decoder_layers=layers_from_widths([n, n], "linear"),
        l1_penalty=0.0,
    )
    model = DsaeModel.from_config(cfg)
    for w in model.weights:
        w[...] = np.eye(n)
    if bias_last is not None:
        model.biases[1][...] = bias_last
    return model


def test_forward_identity_network():
    model = identity_model()
    recon, code, _ = forward(model, [[0.3, -0.7]])
    assert np.allclose(recon, [[0.3, -0.7]])
    assert np.allclose(code, [[0.3, -0.7]])


def test_forward_zero_weights_sigmoid_decoder():
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths([3, 2], "tanh"),
        decoder_layers=layers_from_widths([2, 3], "sigmoid"),
    )
    model = DsaeModel.from_config(cfg)
    model.params[...] = 0.0
    recon, code, _ = forward(model, np.random.default_rng(5).normal(size=(4, 3)))
    assert np.array_equal(code, np.zeros((4, 2)))
    assert np.allclose(recon, 0.5)


def test_forward_matches_straight_line_oracle():
    model = make_model([4, 2, 4], "tanh", "sigmoid", seed=21)
    rng = np.random.default_rng(22)
    batch = rng.uniform(-1, 1, size=(3, 4))
    recon, code, _ = forward(model, batch)
    for r, row in enumerate(batch):
        outputs = straight_line_forward(model, row)
        assert np.allclose(code[r], outputs[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(recon[r], outputs[-1], rtol=1e-12, atol=1e-14)


def test_forward_shape_mismatch():
    model = identity_model(2)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((3, 5)))


def test_forward_cache_is_one_array_per_layer():
    """The cache is [x, a_1, ..., a_L]: the validated batch, then each layer's output."""
    model = make_model([4, 3, 2, 3, 4], "relu", "sigmoid", seed=23)
    batch = np.random.default_rng(24).uniform(-1, 1, size=(5, 4))
    recon, code, cache = forward(model, batch.tolist())
    assert len(cache) == len(model.config.layers) + 1
    assert isinstance(cache[0], np.ndarray) and np.array_equal(cache[0], batch)
    assert cache[-1] is recon and cache[len(model.config.encoder_layers)] is code
    assert [a.shape[-1] for a in cache] == [4, 3, 2, 3, 4]


def masked_sigmoid(z):
    """The sign-split sigmoid: each half evaluated on its own, under a mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
@settings(max_examples=300, deadline=None)
@example(np.array([0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3, 800.0, -800.0,
                   1e308, -1e308, np.inf, -np.inf, np.nan]))
def test_sigmoid_bits_match_masked_formula(z):
    expected = masked_sigmoid(z)
    nan = np.isnan(expected)
    # Into a new array, as training calls it, and in place, as scoring does.
    w = z.copy()
    for got in (_activate("sigmoid", z), _activate("sigmoid", w, out=w)):
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))
    assert got is w


def test_relu_and_linear_derivatives_of_the_output_match_the_pre_activation_formulas():
    """Derivatives read a = f(z) only; relu's and linear's keep the bits of their z forms."""
    z = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.5, -1.5])
    old = {"relu": (z > 0.0).astype(np.float64), "linear": np.ones_like(z)}
    for name, expected in old.items():
        got = _ACTIVATIONS[name][1](_activate(name, z))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# loss_with_penalty

def test_loss_identity_network_is_zero():
    model = identity_model()
    total, mse, penalty = loss_with_penalty(model, [[0.4, -0.2], [1.0, 2.0]])
    assert total == mse == penalty == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_loss_zero_lambda_total_equals_mse(seed):
    rng = np.random.default_rng(seed)
    model = make_model([3, 2, 3], "tanh", "sigmoid", l1_penalty=0.0, seed=seed)
    total, mse, penalty = loss_with_penalty(model, rng.normal(size=(4, 3)))
    assert penalty == 0.0
    assert total == mse
    assert mse >= 0.0


def test_loss_penalty_matches_straight_line_oracle():
    lam = 1e-5
    model = make_model([4, 2, 4], "tanh", "sigmoid", l1_penalty=lam, seed=33)
    rng = np.random.default_rng(34)
    batch = rng.uniform(-1, 1, size=(5, 4))
    total, mse, penalty = loss_with_penalty(model, batch)

    mse_oracle = 0.0
    l1_oracle = 0.0
    for row in batch:
        outputs = straight_line_forward(model, row)
        mse_oracle += sum((x - xh) ** 2 for x, xh in zip(row, outputs[-1])) / len(row)
        l1_oracle += sum(abs(h) for h in outputs[0])
    mse_oracle /= len(batch)
    pen_oracle = lam * l1_oracle / len(batch)

    assert math.isclose(mse, mse_oracle, rel_tol=1e-12)
    assert math.isclose(penalty, pen_oracle, rel_tol=1e-12)
    assert total == mse + penalty


def test_loss_overflow_names_layer():
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths([1, 1], "linear"),
        decoder_layers=layers_from_widths([1, 1], "linear"),
    )
    model = DsaeModel.from_config(cfg)
    for w in model.weights:
        w[...] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="layer 1"):
        loss_with_penalty(model, [[1.0]])


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_residual_gives_zero_gradients():
    model = identity_model()
    batch = np.array([[0.3, -0.7], [1.5, 0.1]])
    _, _, cache = forward(model, batch)
    grads = backward(model, batch, cache)
    assert grads.shape == model.params.shape
    assert np.all(grads == 0.0)


def test_backward_matches_finite_differences_deep_net():
    model = make_model([6, 3, 2, 3, 6], ["tanh", "relu"], ["sigmoid", "linear"],
                       l1_penalty=1e-2, seed=41)
    rng = np.random.default_rng(42)
    batch = rng.uniform(-1, 1, size=(4, 6))
    _, _, cache = forward(model, batch)
    analytic = backward(model, batch, cache)
    numeric = finite_difference_grads(model, batch)
    assert_grads_close(analytic, numeric)


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid", "linear"])
def test_backward_all_activations(activation):
    model = make_model([5, 3, 5], activation, activation, l1_penalty=1e-2, seed=43)
    rng = np.random.default_rng(44)
    batch = rng.uniform(0.1, 1.0, size=(3, 5))
    _, _, cache = forward(model, batch)
    assert_grads_close(backward(model, batch, cache), finite_difference_grads(model, batch))


def test_penalty_gradient_alone_tanh_code():
    """Penalty-only gradient: lambda*(1-h^2) through the chain, h > 0."""
    lam = 1e-2
    widths = [2, 2, 2]
    with_pen = make_model(widths, "tanh", "linear", l1_penalty=lam, seed=45)
    no_pen = make_model(widths, "tanh", "linear", l1_penalty=0.0, seed=45)
    rng = np.random.default_rng(46)
    batch = rng.uniform(0.3, 1.0, size=(3, 2))
    _, code, cache = forward(with_pen, batch)
    assert np.all(code > 0) or np.all(code != 0)  # kink-free draw

    g_with = backward(with_pen, batch, cache)
    g_without = backward(no_pen, batch, forward(no_pen, batch)[2])
    analytic_pen = g_with - g_without

    # Finite differences of the penalty term alone (total_with - total_without).
    def penalty_only_fd():
        h = 1e-5
        grads = np.zeros_like(with_pen.params)
        for k, g in enumerate(_layer_views(with_pen.config, grads)[0]):
            for idx in np.ndindex(g.shape):
                orig = with_pen.weights[k][idx]
                for model in (with_pen, no_pen):
                    model.weights[k][idx] = orig + h
                up = loss_with_penalty(with_pen, batch)[0] - loss_with_penalty(no_pen, batch)[0]
                for model in (with_pen, no_pen):
                    model.weights[k][idx] = orig - h
                down = loss_with_penalty(with_pen, batch)[0] - loss_with_penalty(no_pen, batch)[0]
                for model in (with_pen, no_pen):
                    model.weights[k][idx] = orig
                g[idx] = (up - down) / (2 * h)
        return grads

    fd_w = _layer_views(with_pen.config, penalty_only_fd())[0]
    for a, f in zip(_layer_views(with_pen.config, analytic_pen)[0], fd_w):
        assert np.allclose(a, f, rtol=1e-4, atol=1e-9)

    # Direct formula at the code layer: d(penalty)/dz_code = lam/n * sign(h) * (1-h^2).
    n = len(batch)
    h_code = cache[1]
    expected_bias = (lam / n) * (np.sign(h_code) * (1 - h_code**2)).sum(axis=0)
    assert np.allclose(_layer_views(with_pen.config, analytic_pen)[1][0], expected_bias, rtol=1e-10)


# ---------------------------------------------------------------------------
# adam_step

def scalar_model():
    cfg = DsaeConfig(
        encoder_layers=layers_from_widths([1, 1], "linear"),
        decoder_layers=layers_from_widths([1, 1], "linear"),
    )
    model = DsaeModel.from_config(cfg)
    model.weights[0][...] = 0.5
    model.weights[1][...] = 0.25
    return model


def unit_gradients(model, value):
    return np.full_like(model.params, value)


def test_adam_first_step_moves_by_learning_rate():
    model = scalar_model()
    cfg = TrainingConfig(learning_rate=0.001, epsilon=1e-8)
    before = model.weights[0][0, 0]
    adam_step(model, unit_gradients(model, 1.0), AdamState.zeros(model), cfg)
    moved = before - model.weights[0][0, 0]
    assert moved == pytest.approx(0.001 * 1.0 / (1.0 + 1e-8), rel=1e-12)


def test_adam_zero_gradient_keeps_parameters():
    model = scalar_model()
    state = AdamState.zeros(model)
    before = model.params.copy()
    adam_step(model, unit_gradients(model, 0.0), state, TrainingConfig())
    assert state.t == 1
    assert np.array_equal(before, model.params)


def test_adam_two_steps_match_hand_unrolled_recurrence():
    model = scalar_model()
    state = AdamState.zeros(model)
    cfg = TrainingConfig(learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8)
    start = model.weights[0][0, 0]
    adam_step(model, unit_gradients(model, 1.0), state, cfg)
    adam_step(model, unit_gradients(model, 2.0), state, cfg)

    # Hand-unrolled recurrence for gradients 1 then 2.
    theta, m, v = start, 0.0, 0.0
    for t, g in ((1, 1.0), (2, 2.0)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.001 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert model.weights[0][0, 0] == pytest.approx(theta, rel=1e-14)
    assert state.t == 2


# ---------------------------------------------------------------------------
# train

def small_config(l1_penalty=0.0, seed=11):
    return DsaeConfig(
        encoder_layers=layers_from_widths([2, 3], "tanh"),
        decoder_layers=layers_from_widths([3, 2], "linear"),
        l1_penalty=l1_penalty,
        seed=seed,
    )


def test_train_zero_epochs_returns_model_unchanged():
    model = DsaeModel.from_config(small_config())
    x = np.random.default_rng(1).normal(size=(10, 2))
    trained, history = train(model, x, TrainingConfig(epochs=0))
    assert history == []
    for w0, w1 in zip(model.weights, trained.weights):
        assert np.array_equal(w0, w1)
    assert trained is not model


def test_train_is_deterministic():
    model = DsaeModel.from_config(small_config(seed=77))
    x = np.random.default_rng(2).normal(size=(30, 2))
    cfg = TrainingConfig(epochs=5, batch_size=8)
    t1, h1 = train(model, x, cfg)
    t2, h2 = train(model, x, cfg)
    assert h1 == h2
    for w1, w2 in zip(t1.weights, t2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(t1.biases, t2.biases):
        assert np.array_equal(b1, b2)


def test_train_does_not_mutate_input_model():
    model = DsaeModel.from_config(small_config())
    snapshot = [w.copy() for w in model.weights]
    train(model, np.random.default_rng(3).normal(size=(20, 2)), TrainingConfig(epochs=3, batch_size=5))
    for w0, w1 in zip(snapshot, model.weights):
        assert np.array_equal(w0, w1)


def test_train_constant_data_reaches_low_mse():
    x = np.tile([0.3, 0.7], (64, 1))
    model = DsaeModel.from_config(small_config())
    trained, history = train(model, x, TrainingConfig(epochs=200, batch_size=16))
    _, mse, _ = loss_with_penalty(trained, x)
    assert mse < 1e-3
    assert len(history) == 200
    # Sanity: smoothed (window 10) loss non-increasing over the final 50 epochs.
    smoothed = np.convolve(history, np.ones(10) / 10, mode="valid")
    tail = smoothed[-50:]
    assert np.all(np.diff(tail) <= 1e-9)


def test_train_empty_matrix_raises():
    model = DsaeModel.from_config(small_config())
    with pytest.raises(DataError, match="empty"):
        train(model, np.zeros((0, 2)), TrainingConfig(epochs=1))


def test_train_clamps_oversized_batch(caplog):
    model = DsaeModel.from_config(small_config())
    x = np.random.default_rng(4).normal(size=(7, 2))
    with caplog.at_level("WARNING"):
        _, history = train(model, x, TrainingConfig(epochs=2, batch_size=100))
    assert len(history) == 2
    assert any("clamp" in rec.message for rec in caplog.records)


def test_training_config_validation():
    with pytest.raises(ParameterError):
        TrainingConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainingConfig(beta1=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LayerSpec(0, 3, "tanh"), ParameterError, "layer widths must be positive"),
    (lambda: DsaeConfig(encoder_layers=(), decoder_layers=layers_from_widths([2, 2], "linear")),
     ParameterError, "encoder and decoder each need at least one layer"),
    (lambda: small_config(seed=()), ParameterError, "a stack needs at least one seed"),
    (lambda: forward(DsaeModel.from_config(small_config()), np.zeros((1, 4, 2))),
     ShapeError, r"batch must have shape \(\) \+ \(rows, columns\), got \(1, 4, 2\)"),
    (lambda: train(DsaeModel.from_config(small_config()), np.zeros((4, 3)),
                   TrainingConfig(epochs=1)),
     ShapeError, "training matrix has 3 columns, model expects 2"),
    (lambda: train(DsaeModel.from_config(small_config()), np.zeros((4, 2)),
                   TrainingConfig(epochs=1), rows=np.arange(0)),
     ShapeError, r"rows must have shape \(\) \+ \(n,\) with n >= 1, got \(0,\)"),
], ids=["layer_width", "no_encoder", "no_seeds", "batch_rank", "train_columns", "no_rows"])
def test_nn_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# reconstruction_errors

def test_reconstruction_errors_direct_arithmetic():
    # Decoder bias shifts feature 0 by -0.5: x=(1,2) reconstructs to (0.5,2).
    model = identity_model(bias_last=[-0.5, 0.0])
    errors = reconstruction_errors(model, [[1.0, 2.0]])
    assert np.allclose(errors, [[0.25, 0.0]])


def test_reconstruction_errors_identity_all_zero():
    model = identity_model()
    errors = reconstruction_errors(model, np.random.default_rng(6).normal(size=(5, 2)))
    assert np.array_equal(errors, np.zeros((5, 2)))


def test_reconstruction_errors_match_straight_line_oracle():
    model = make_model([4, 2, 4], "tanh", "sigmoid", seed=51)
    rng = np.random.default_rng(52)
    batch = rng.uniform(-1, 1, size=(3, 4))
    errors = reconstruction_errors(model, batch)
    for r, row in enumerate(batch):
        recon = straight_line_forward(model, row)[-1]
        expected = [(x - xh) ** 2 for x, xh in zip(row, recon)]
        assert np.allclose(errors[r], expected, rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_reconstruction_errors_nonnegative_zero_iff_equal(seed):
    model = make_model([3, 2, 3], "tanh", "linear", seed=seed)
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(4, 3))
    errors = reconstruction_errors(model, batch)
    recon, _, _ = forward(model, batch)
    assert np.all(errors >= 0)
    assert np.array_equal(errors == 0, recon == batch)


@pytest.mark.parametrize("seed", [7, (7, 8, 9)])
def test_reconstruction_errors_into_out_match_allocating_call(seed):
    model = make_model([5, 3, 5], "tanh", "sigmoid", seed=seed)
    batch = np.random.default_rng(53).uniform(-3, 3, size=model.config.stack_shape + (6, 5))
    expected = reconstruction_errors(model, batch)
    recon, _, _ = forward(model, batch)
    assert np.array_equal(expected.view(np.int64), ((batch - recon) ** 2).view(np.int64))
    # out may be a view, here into a block of rows of a larger matrix.
    rows = np.full((batch.size // 5 + 4, 5), np.nan)
    out = rows[2:-2].reshape(batch.shape)
    assert reconstruction_errors(model, batch, out=out) is out
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert np.isnan(rows[:2]).all() and np.isnan(rows[-2:]).all()


@pytest.mark.parametrize("last", ["tanh", "relu", "sigmoid", "linear"])
def test_reconstruction_errors_in_row_slices_match_forward_bits(last):
    # 700 rows span several SCORE_ROWS slices and end in a ragged one.
    assert 700 % SCORE_ROWS and 700 > 2 * SCORE_ROWS
    model = make_model([6, 4, 3, 4, 6], ["tanh", "relu"], ["sigmoid", last],
                       seed=(11, 12))
    batch = np.random.default_rng(54).uniform(-3, 3, size=(2, 700, 6))
    recon, _, _ = forward(model, batch)
    rows = np.full((1400 + 4, 6), np.nan)
    out = rows[2:-2].reshape(batch.shape)
    assert reconstruction_errors(model, batch, out=out) is out
    assert np.array_equal(out.view(np.int64), ((batch - recon) ** 2).view(np.int64))
    assert np.isnan(rows[:2]).all() and np.isnan(rows[-2:]).all()
