"""Stacked training against a transcription of the per-component trainer.

The reference below trains one model per component on plain 2-D arrays: its
own seeded initialisation and shuffle, the sign-split sigmoid, Adam layer by
layer, and Q assembled with ``np.vstack``. Training components as stacks must
reproduce its Q, and each model's weights and loss history, byte for byte at
every stack size.
"""

import dataclasses

import numpy as np
import pytest

import refsel.ensemble
from refsel import (
    DsaeConfig,
    DsaeModel,
    EnsembleConfig,
    LabeledDataset,
    TrainingConfig,
    build_component_split,
    run_ensemble,
    train,
)
from refsel.ensemble import component_seeds
from refsel.exceptions import ComponentError, NumericError
from refsel.nn import layers_from_widths

# ---------------------------------------------------------------------------
# Reference: the per-component trainer, one 2-D model at a time


def ref_activate(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def ref_activate_prime(name, z, a):
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


def ref_forward(ws, bs, acts, x):
    pre, post = [], [x]
    for w, b, act in zip(ws, bs, acts):
        z = post[-1] @ w.T + b
        pre.append(z)
        post.append(ref_activate(act, z))
    return pre, post


def ref_train(dsae, seed, x, cfg):
    """Returns (weights, biases, history) of one model trained alone."""
    init = np.random.default_rng(seed)
    ws, bs = [], []
    for spec in dsae.layers:
        limit = np.sqrt(6.0 / (spec.input_width + spec.output_width))
        ws.append(init.uniform(-limit, limit, size=(spec.output_width, spec.input_width)))
        bs.append(np.zeros(spec.output_width))
    acts = [spec.activation for spec in dsae.layers]
    code, lam, n_layers = len(dsae.encoder_layers), dsae.l1_penalty, len(ws)
    m = [np.zeros_like(p) for p in ws + bs]
    v = [np.zeros_like(p) for p in ws + bs]
    rng = np.random.default_rng(seed)  # the shuffle's own generator
    n, t, history = len(x), 0, []
    batch = min(cfg.batch_size, n)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb = x[idx]
            pre, post = ref_forward(ws, bs, acts, xb)
            mse = float(np.mean((xb - post[-1]) ** 2))
            penalty = float(lam * np.mean(np.sum(np.abs(post[code]), axis=1)))
            epoch_loss += (mse + penalty) * len(idx)

            rows, cols = xb.shape
            ga = 2.0 * (post[-1] - xb) / (rows * cols)
            gw, gb = [None] * n_layers, [None] * n_layers
            for k in range(n_layers - 1, -1, -1):
                if k == code - 1 and lam != 0.0:
                    ga = ga + (lam / rows) * np.sign(post[k + 1])
                gz = ga * ref_activate_prime(acts[k], pre[k], post[k + 1])
                gw[k] = gz.T @ post[k]
                gb[k] = gz.sum(axis=0)
                if k > 0:
                    ga = gz @ ws[k]

            t += 1
            b1, b2 = cfg.beta1, cfg.beta2
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for p, g, mp, vp in zip(ws + bs, gw + gb, m, v):
                mp *= b1
                mp += (1.0 - b1) * g
                vp *= b2
                vp += (1.0 - b2) * g * g
                p -= cfg.learning_rate * (mp / bc1) / (np.sqrt(vp / bc2) + cfg.epsilon)
        history.append(epoch_loss / n)
    return ws, bs, history


def reference_q(data, cfg):
    acts = [spec.activation for spec in cfg.dsae.layers]
    blocks, labels = [], []
    for b in range(cfg.n_components):
        sample_seed, model_seed = component_seeds(cfg.master_seed, b)
        train_rows, test_rows = build_component_split(data, sample_seed)
        ws, bs, _ = ref_train(cfg.dsae, model_seed, data.X[train_rows], cfg.training)
        _, post = ref_forward(ws, bs, acts, data.X[test_rows])
        blocks.append((data.X[test_rows] - post[-1]) ** 2)
        labels.append(data.y[test_rows])
    return np.vstack(blocks), np.concatenate(labels)


# ---------------------------------------------------------------------------
# Stacked training reproduces the reference


def make_data(n_majority=30, n_minority=5, n_features=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n_majority + n_minority, n_features))
    y = np.concatenate([np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)])
    return LabeledDataset(X=x, y=y)


def make_dsae(encoder_act, decoder_act, l1_penalty, widths=(6, 4, 3)):
    return DsaeConfig(
        encoder_layers=layers_from_widths(list(widths), encoder_act),
        decoder_layers=layers_from_widths(list(reversed(widths)), decoder_act),
        l1_penalty=l1_penalty,
    )


ACTIVATION_PAIRS = [("tanh", "sigmoid"), ("relu", "linear"), ("sigmoid", "tanh"), ("linear", "relu")]

# (components, parallelism, epochs, l1_penalty, batch_size). Each component
# trains on 25 rows, so batches of 8, 7 and 6 end on a short batch.
CASES = [
    (1, 1, 0, 1e-3, 8),
    (1, 3, 2, 0.0, 7),
    (2, 1, 1, 1e-3, 8),
    (3, 2, 3, 0.0, 8),
    (4, 3, 1, 1e-2, 5),
    (5, 2, 2, 1e-3, 8),
    (5, 5, 3, 0.0, 6),
    (5, 7, 1, 1e-3, 100),
]


@pytest.mark.parametrize("encoder_act,decoder_act", ACTIVATION_PAIRS)
@pytest.mark.parametrize("n_components,parallelism,epochs,l1_penalty,batch_size", CASES)
def test_stacked_q_matches_per_component_reference(
    encoder_act, decoder_act, n_components, parallelism, epochs, l1_penalty, batch_size
):
    data = make_data()
    cfg = EnsembleConfig(
        n_components=n_components,
        dsae=make_dsae(encoder_act, decoder_act, l1_penalty),
        training=TrainingConfig(epochs=epochs, batch_size=batch_size),
        master_seed=41,
        parallelism=parallelism,
    )
    q_ref, labels_ref = reference_q(data, cfg)
    q = run_ensemble(data, cfg)
    assert q.Q.tobytes() == q_ref.tobytes()
    assert np.array_equal(q.labels, labels_ref)


@pytest.mark.parametrize("l1_penalty", [0.0, 1e-3])
def test_stacked_train_matches_each_model_trained_alone(l1_penalty):
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(40, 6))
    rows = np.array([rng.permutation(40)[:23] for _ in range(3)])
    seeds = (7, 8, 9)
    dsae = dataclasses.replace(make_dsae("tanh", "sigmoid", l1_penalty), seed=seeds)
    cfg = TrainingConfig(epochs=3, batch_size=10)
    stacked, history = train(DsaeModel.from_config(dsae), x, cfg, rows=rows)
    per_epoch = np.reshape(history, (3, len(seeds)))
    for s, seed in enumerate(seeds):
        ws, bs, ref_history = ref_train(dsae, seed, x[rows[s]], cfg)
        for w_stack, w_ref in zip(stacked.weights, ws):
            assert w_stack[s].tobytes() == w_ref.tobytes()
        for b_stack, b_ref in zip(stacked.biases, bs):
            assert b_stack[s].tobytes() == b_ref.tobytes()
        assert per_epoch[:, s].tolist() == ref_history


# ---------------------------------------------------------------------------
# Failure attribution: the lowest-index model non-finite at the first failing step


def linear_stack(seeds):
    dsae = DsaeConfig(
        encoder_layers=layers_from_widths([3, 3], "linear"),
        decoder_layers=layers_from_widths([3, 3], "linear"),
        seed=seeds,
    )
    return DsaeModel.from_config(dsae)


def train_to_failure(model, epochs=3):
    x = np.random.default_rng(4).uniform(0.1, 1.0, size=(6, 3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ComponentError) as info:
        train(model, x, TrainingConfig(epochs=epochs, batch_size=100))
    assert isinstance(info.value.__cause__, NumericError)
    assert info.value.exit_code == 3
    return info.value


def test_overflow_names_only_the_failing_model():
    model = linear_stack((1, 2, 3))
    for w in model.weights:
        w[1] *= 1e200  # layer 1 of model 1 overflows on the first step
    error = train_to_failure(model)
    assert error.component_index == 1
    assert str(error) == "component 1: non-finite activations in layer 1"


def test_first_failing_step_decides_before_index():
    model = linear_stack((1, 2, 3))
    model.weights[1][0] *= 1e200  # model 0: finite step 1, infinite gradients, NaN on step 2
    for w in model.weights:
        w[2] *= 1e200  # model 2: non-finite on step 1
    assert train_to_failure(model).component_index == 2

    model = linear_stack((1, 2, 3))
    model.weights[1][0] *= 1e200
    error = train_to_failure(model)
    assert str(error) == "component 0: non-finite activations in layer 0"


def test_lowest_index_wins_within_a_step():
    model = linear_stack((1, 2, 3))
    for w in model.weights:
        w[1] *= 1e200
        w[2] *= 1e200
    assert train_to_failure(model).component_index == 1


@pytest.mark.parametrize("parallelism", [1, 2, 4, 5])
def test_ensemble_names_the_global_component(monkeypatch, parallelism):
    data = make_data(n_features=3)
    cfg = EnsembleConfig(
        n_components=5,
        dsae=DsaeConfig(
            encoder_layers=layers_from_widths([3, 3], "linear"),
            decoder_layers=layers_from_widths([3, 3], "linear"),
        ),
        training=TrainingConfig(epochs=1, batch_size=8),
        master_seed=12,
        parallelism=parallelism,
    )
    failing_seed = component_seeds(cfg.master_seed, 3)[1]
    build = DsaeModel.from_config

    def blown_up(config):
        model = build(config)
        for position, seed in enumerate(config.seeds):
            if seed == failing_seed:
                for w in model.weights:
                    w[position] *= 1e200
        return model

    monkeypatch.setattr(DsaeModel, "from_config", blown_up)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ComponentError) as info:
        run_ensemble(data, cfg)
    assert info.value.component_index == 3
    assert info.value.exit_code == 3
    assert str(info.value) == "component 3: non-finite activations in layer 1"


@pytest.mark.parametrize("parallelism", [1, 2, 4, 5])
def test_non_finite_scores_name_the_global_component(monkeypatch, parallelism):
    # Training ends finite; only the scored errors of component 3 are not.
    data = make_data(n_features=3)
    cfg = EnsembleConfig(
        n_components=5,
        dsae=make_dsae("tanh", "sigmoid", 0.0, widths=(3, 2)),
        training=TrainingConfig(epochs=1, batch_size=8),
        master_seed=12,
        parallelism=parallelism,
    )
    failing_seed = component_seeds(cfg.master_seed, 3)[1]
    real_train = refsel.ensemble.train

    def train_then_blow_up(model, *args, **kwargs):
        model, history = real_train(model, *args, **kwargs)
        for position, seed in enumerate(model.config.seeds):
            if seed == failing_seed:
                model.biases[-1][position] = np.nan
        return model, history

    monkeypatch.setattr(refsel.ensemble, "train", train_then_blow_up)
    with pytest.raises(ComponentError) as info:
        run_ensemble(data, cfg)
    assert info.value.component_index == 3
    assert info.value.exit_code == 3
    assert str(info.value) == "component 3: non-finite reconstruction errors"
