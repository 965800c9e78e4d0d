"""Dense feed-forward autoencoder with an L1 activity penalty on the code layer.

The model reconstructs its input through an encoder/decoder stack of fully
connected layers. Training minimises the mean squared reconstruction error
plus ``l1_penalty`` times the mean L1 norm of the innermost (code) layer
activation, using mini-batch Adam. Everything is float64 and deterministic
given the config seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, NumericError, ParameterError, ShapeError

logger = logging.getLogger(__name__)

ACTIVATIONS = ("tanh", "relu", "sigmoid", "linear")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # Split by sign to avoid overflow in exp for large |z|.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "linear":
        return z
    raise ParameterError(f"unknown activation {name!r}")


def _activate_prime(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation, expressed via pre-activation z and output a."""
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        # Subgradient at 0 is taken as 0.
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ParameterError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: output = activation(W @ input + b)."""

    input_width: int
    output_width: int
    activation: str

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise ParameterError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )


@dataclass(frozen=True)
class DsaeConfig:
    """Architecture of one autoencoder.

    The L1 penalty applies to the code, the activation of the last encoder
    layer. ``seed`` drives both weight initialisation and the training shuffle.
    """

    encoder_layers: tuple
    decoder_layers: tuple
    l1_penalty: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "encoder_layers", tuple(self.encoder_layers))
        object.__setattr__(self, "decoder_layers", tuple(self.decoder_layers))
        if not self.encoder_layers or not self.decoder_layers:
            raise ParameterError("encoder and decoder each need at least one layer")
        if self.l1_penalty < 0:
            raise ParameterError("l1_penalty must be non-negative")
        layers = self.layers
        for k in range(1, len(layers)):
            if layers[k].input_width != layers[k - 1].output_width:
                raise ParameterError(
                    f"layer {k} input width {layers[k].input_width} does not chain "
                    f"with layer {k - 1} output width {layers[k - 1].output_width}"
                )
        if self.encoder_layers[0].input_width != self.decoder_layers[-1].output_width:
            raise ParameterError(
                "autoencoder must map back to its input width "
                f"({self.encoder_layers[0].input_width} != "
                f"{self.decoder_layers[-1].output_width})"
            )

    @property
    def layers(self) -> tuple:
        return self.encoder_layers + self.decoder_layers

    @property
    def n_features(self) -> int:
        return self.encoder_layers[0].input_width

    @property
    def code_width(self) -> int:
        return self.encoder_layers[-1].output_width


def layers_from_widths(widths, activations) -> tuple:
    """Build a LayerSpec chain from a width list (n+1 widths -> n layers).

    ``activations`` is either one name applied to every layer or a list with
    one name per layer.
    """
    widths = list(widths)
    if len(widths) < 2:
        raise ParameterError("need at least two widths to form a layer")
    n_layers = len(widths) - 1
    if isinstance(activations, str):
        activations = [activations] * n_layers
    activations = [a.lower() for a in activations]
    if len(activations) != n_layers:
        raise ParameterError(
            f"{n_layers} layers but {len(activations)} activation names"
        )
    return tuple(
        LayerSpec(widths[k], widths[k + 1], activations[k]) for k in range(n_layers)
    )


@dataclass
class DsaeModel:
    """Parameters of one autoencoder: per-layer weight matrices and biases.

    Weight matrix k has shape (output_width, input_width); layer output is
    ``activation(x @ W.T + b)``.
    """

    weights: list
    biases: list
    config: DsaeConfig

    def __post_init__(self):
        layers = self.config.layers
        if len(self.weights) != len(layers) or len(self.biases) != len(layers):
            raise ShapeError("parameter count does not match config layer count")
        for k, spec in enumerate(layers):
            if self.weights[k].shape != (spec.output_width, spec.input_width):
                raise ShapeError(
                    f"layer {k} weight shape {self.weights[k].shape} does not match "
                    f"spec ({spec.output_width}, {spec.input_width})"
                )
            if self.biases[k].shape != (spec.output_width,):
                raise ShapeError(f"layer {k} bias shape mismatch")
            if not (np.isfinite(self.weights[k]).all() and np.isfinite(self.biases[k]).all()):
                raise NumericError(f"non-finite parameters in layer {k}")

    @classmethod
    def from_config(cls, config: DsaeConfig) -> "DsaeModel":
        """Initialise weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
        rng = np.random.default_rng(config.seed)
        weights, biases = [], []
        for spec in config.layers:
            limit = np.sqrt(6.0 / (spec.input_width + spec.output_width))
            weights.append(
                rng.uniform(-limit, limit, size=(spec.output_width, spec.input_width))
            )
            biases.append(np.zeros(spec.output_width))
        return cls(weights=weights, biases=biases, config=config)

    def copy(self) -> "DsaeModel":
        return DsaeModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            config=self.config,
        )


@dataclass
class ForwardCache:
    """Per-layer pre-activations and activations kept for backprop.

    ``activations[0]`` is the input batch; ``activations[k+1]`` and
    ``pre_activations[k]`` belong to layer k.
    """

    pre_activations: list
    activations: list


@dataclass
class Gradients:
    weights: list
    biases: list


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    batch_size: int = 100
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the model parameters."""

    m_weights: list
    v_weights: list
    m_biases: list
    v_biases: list
    t: int = 0

    @classmethod
    def zeros(cls, model: DsaeModel) -> "AdamState":
        return cls(
            m_weights=[np.zeros_like(w) for w in model.weights],
            v_weights=[np.zeros_like(w) for w in model.weights],
            m_biases=[np.zeros_like(b) for b in model.biases],
            v_biases=[np.zeros_like(b) for b in model.biases],
        )


def _as_batch(model: DsaeModel, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.config.n_features:
        raise ShapeError(
            f"batch has {x.shape[1]} columns, model expects {model.config.n_features}"
        )
    return x


def forward(model: DsaeModel, batch):
    """Run the batch through the network.

    Returns (reconstruction, code_activation, cache) where cache holds every
    intermediate needed by :func:`backward`.
    """
    x = _as_batch(model, batch)
    activations = [x]
    pre_activations = []
    a = x
    for k, spec in enumerate(model.config.layers):
        z = a @ model.weights[k].T + model.biases[k]
        a = _activate(spec.activation, z)
        pre_activations.append(z)
        activations.append(a)
    cache = ForwardCache(pre_activations=pre_activations, activations=activations)
    code = activations[len(model.config.encoder_layers)]
    return activations[-1], code, cache


def _check_finite(cache: ForwardCache) -> None:
    for k, a in enumerate(cache.activations[1:]):
        if not np.isfinite(a).all():
            raise NumericError(f"non-finite activations in layer {k}")


def _loss_from_cache(model: DsaeModel, x: np.ndarray, cache: ForwardCache):
    _check_finite(cache)
    recon = cache.activations[-1]
    code = cache.activations[len(model.config.encoder_layers)]
    mse = float(np.mean((x - recon) ** 2))
    penalty = float(model.config.l1_penalty * np.mean(np.sum(np.abs(code), axis=1)))
    return mse + penalty, mse, penalty


def loss_with_penalty(model: DsaeModel, batch):
    """Batch loss: (total, mse, penalty) with total = mse + penalty.

    mse averages the squared error over every entry of the batch; the penalty
    is ``l1_penalty`` times the batch mean of the code rows' L1 norms, so both
    terms are batch-size invariant.
    """
    x = _as_batch(model, batch)
    _, _, cache = forward(model, x)
    return _loss_from_cache(model, x, cache)


def backward(model: DsaeModel, batch, cache: ForwardCache) -> Gradients:
    """Gradients of loss_with_penalty w.r.t. every weight and bias.

    The L1 term uses sign(h) with sign(0) = 0.
    """
    x = _as_batch(model, batch)
    layers = model.config.layers
    n, j = x.shape
    code_index = len(model.config.encoder_layers) - 1

    grad_w = [None] * len(layers)
    grad_b = [None] * len(layers)

    # d(mse)/d(reconstruction); mse is the grand mean over n*j entries.
    grad_a = 2.0 * (cache.activations[-1] - x) / (n * j)
    lam = model.config.l1_penalty

    for k in range(len(layers) - 1, -1, -1):
        if k == code_index and lam != 0.0:
            grad_a = grad_a + (lam / n) * np.sign(cache.activations[k + 1])
        grad_z = grad_a * _activate_prime(
            layers[k].activation, cache.pre_activations[k], cache.activations[k + 1]
        )
        grad_w[k] = grad_z.T @ cache.activations[k]
        grad_b[k] = grad_z.sum(axis=0)
        if k > 0:
            grad_a = grad_z @ model.weights[k]

    return Gradients(weights=grad_w, biases=grad_b)


def adam_step(model: DsaeModel, gradients: Gradients, state: AdamState, cfg: TrainingConfig):
    """One bias-corrected Adam update. Arrays are updated in place."""
    state.t += 1
    t = state.t
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t

    def _update(param, grad, m, v):
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        param -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)

    for k in range(len(model.weights)):
        _update(model.weights[k], gradients.weights[k], state.m_weights[k], state.v_weights[k])
        _update(model.biases[k], gradients.biases[k], state.m_biases[k], state.v_biases[k])
    return model, state


def train(model: DsaeModel, train_matrix, cfg: TrainingConfig):
    """Train a copy of the model for cfg.epochs epochs of shuffled mini-batches.

    Returns (trained_model, history) where history holds one epoch-average
    total loss per epoch. The input model is not mutated; runs are
    bit-identical given the same (model, data, config) because the shuffle is
    seeded from the model config seed.
    """
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("training matrix is empty")
    if x.shape[1] != model.config.n_features:
        raise ShapeError(
            f"training matrix has {x.shape[1]} columns, model expects "
            f"{model.config.n_features}"
        )
    n = x.shape[0]
    batch_size = cfg.batch_size
    if batch_size > n:
        logger.warning("batch_size %d exceeds training set size %d; clamping", batch_size, n)
        batch_size = n

    model = model.copy()
    state = AdamState.zeros(model)
    rng = np.random.default_rng(model.config.seed)
    history = []

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = x[idx]
            _, _, cache = forward(model, xb)
            total, _, _ = _loss_from_cache(model, xb, cache)
            grads = backward(model, xb, cache)
            adam_step(model, grads, state, cfg)
            epoch_loss += total * len(idx)
        history.append(epoch_loss / n)

    return model, history


def reconstruction_errors(model: DsaeModel, test_matrix) -> np.ndarray:
    """Element-wise squared reconstruction error, one row per observation."""
    x = _as_batch(model, test_matrix)
    recon, _, _ = forward(model, x)
    return (x - recon) ** 2
