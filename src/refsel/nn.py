"""Dense feed-forward autoencoder with an L1 activity penalty on the code layer.

The model reconstructs its input through an encoder/decoder stack of fully
connected layers. Training minimises the mean squared reconstruction error
plus ``l1_penalty`` times the mean L1 norm of the innermost (code) layer
activation, using mini-batch Adam. Everything is float64 and deterministic
given the config seed.

A model's parameters live in one buffer, each layer's W and then b end to
end; gradients and Adam moments are buffers of the same shape, so an Adam step
is one element-wise pass over the whole model. Training caches one array per
layer, its output, and each activation's derivative reads only that output.

A config with a tuple of seeds describes a stack: that many models of the
same architecture, held along a leading axis of every parameter and batch
array and trained together, one ``np.matmul`` per layer for the whole stack.
Each model in a stack gets the same bits as when built and trained alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import ComponentError, DataError, NumericError, ParameterError, ShapeError

logger = logging.getLogger(__name__)

# Rows per slice of the element-wise passes that finish reconstruction_errors.
SCORE_ROWS = 256


def _sigmoid(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    # exp(-|z|) never overflows. Per element these are the operations of
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so the bits match
    # evaluating each branch on its own half: as e <= 1, the maximum is the
    # numerator, 1 where z >= 0 and e elsewhere (NaN passes through). ``out=``
    # keeps a 0-d z an array rather than a scalar; z is last read by the mask,
    # so ``out`` may be z.
    e = np.abs(z, out=np.empty_like(z))
    np.exp(np.negative(e, out=e), out=e)
    d = np.add(1.0, e, out=np.empty_like(z))
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, d, out=d if out is None else out)


# Each activation's function of the pre-activation z, written into ``out``
# (which may be z) when given, and its derivative in terms of the output a.
# relu's is 0 at 0: a = max(z, 0) is positive exactly where z > 0, +-0 and NaN too.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda a: (a > 0.0).astype(np.float64)),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "linear": (lambda z, out=None: z if out is None else np.positive(z, out=out),
               np.ones_like),
}


def _activate(name: str, z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    return _ACTIVATIONS[name][0](z, out=out)


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: output = activation(W @ input + b)."""

    input_width: int
    output_width: int
    activation: str

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise ParameterError("layer widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}; "
                                 f"expected one of {tuple(_ACTIVATIONS)}")


@dataclass(frozen=True)
class DsaeConfig:
    """Architecture of one autoencoder.

    The L1 penalty applies to the code, the activation of the last encoder
    layer. ``seed`` drives both weight initialisation and the training shuffle;
    a tuple of seeds describes a stack of models, one per seed.
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
        if not 0.0 <= self.l1_penalty < np.inf:
            raise ParameterError("l1_penalty must be non-negative and finite")
        if self.seed == ():
            raise ParameterError("a stack needs at least one seed")
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
    def seeds(self) -> tuple:
        return self.seed if isinstance(self.seed, tuple) else (self.seed,)

    @property
    def stack_shape(self) -> tuple:
        """Leading shape of every parameter and batch array: (S,) for a stack, else ()."""
        return (len(self.seed),) if isinstance(self.seed, tuple) else ()

    @property
    def n_params(self) -> int:
        """Weights and biases of one model: the last axis of a parameter buffer."""
        return sum(spec.output_width * (spec.input_width + 1) for spec in self.layers)


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


def _layer_views(config: DsaeConfig, buffer: np.ndarray):
    """(weights, biases): per-layer views, each W and then b along the buffer's last axis."""
    lead = buffer.shape[:-1]
    weights, biases, start = [], [], 0
    for spec in config.layers:
        o, i = spec.output_width, spec.input_width
        weights.append(buffer[..., start : start + o * i].reshape(lead + (o, i)))
        biases.append(buffer[..., start + o * i : start + o * (i + 1)])
        start += o * (i + 1)
    return tuple(weights), tuple(biases)


@dataclass(frozen=True)
class DsaeModel:
    """Parameters of one autoencoder, held in one buffer of shape (n_params,).

    ``weights[k]``, shape (output_width, input_width), and ``biases[k]`` are
    views into ``params`` (see :func:`_layer_views`): writing through them
    changes ``params``, and the attributes themselves cannot be reassigned.
    Layer output is ``activation(x @ W.T + b)``. A stack of S models prefixes
    the buffer, every weight, bias and batch shape with S.
    """

    params: np.ndarray
    config: DsaeConfig

    def __post_init__(self):
        shape = self.config.stack_shape + (self.config.n_params,)
        if self.params.shape != shape:
            raise ShapeError(f"parameter shape {self.params.shape} does not match config {shape}")
        weights, biases = _layer_views(self.config, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        if not np.isfinite(self.params).all():
            k = next(k for k, (w, b) in enumerate(zip(weights, biases))
                     if not (np.isfinite(w).all() and np.isfinite(b).all()))
            raise NumericError(f"non-finite parameters in layer {k}")

    @classmethod
    def from_config(cls, config: DsaeConfig) -> "DsaeModel":
        """Initialise weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero.

        Each model of a stack draws from its own seed's generator.
        """
        rngs = [np.random.default_rng(seed) for seed in config.seeds]
        model = cls(params=np.zeros(config.stack_shape + (config.n_params,)), config=config)
        for spec, w in zip(config.layers, model.weights):
            limit = np.sqrt(6.0 / (spec.input_width + spec.output_width))
            w[...] = np.array([rng.uniform(-limit, limit, size=w.shape[-2:]) for rng in rngs])
        return model


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
        if not 0.0 < self.learning_rate < np.inf:
            raise ParameterError("learning_rate must be positive and finite")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1)")
        if not 0.0 < self.epsilon < np.inf:
            raise ParameterError("epsilon must be positive and finite")


@dataclass
class AdamState:
    """First and second moment estimates, each shaped like the model's ``params``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, model: DsaeModel) -> "AdamState":
        return cls(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def _as_batch(model: DsaeModel, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    lead = model.config.stack_shape
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead:
        raise ShapeError(f"batch must have shape {lead} + (rows, columns), got {x.shape}")
    if x.shape[-1] != model.config.n_features:
        raise ShapeError(
            f"batch has {x.shape[-1]} columns, model expects {model.config.n_features}"
        )
    return x


def _pre_activation(model: DsaeModel, k: int, a: np.ndarray) -> np.ndarray:
    """Layer k's ``a @ W.T + b``, with the bias added in place."""
    z = a @ model.weights[k].swapaxes(-1, -2)
    z += model.biases[k][..., None, :]
    return z


def forward(model: DsaeModel, batch):
    """Run the batch through the network.

    Returns (reconstruction, code_activation, cache) where cache, the list
    ``[x, a_1, ..., a_L]``, holds everything :func:`backward` needs: the
    validated input batch first, then each layer's output.
    """
    activations = [_as_batch(model, batch)]
    for k, spec in enumerate(model.config.layers):
        z = _pre_activation(model, k, activations[-1])
        activations.append(_activate(spec.activation, z))
    return activations[-1], activations[len(model.config.encoder_layers)], activations


def _check_finite(activations: list, model: DsaeModel, state: AdamState = None) -> None:
    """Raise NumericError naming the first layer with a non-finite activation.

    ``activations`` is the forward cache's list, the input batch first. In a stack
    the error names the lowest-index model that has one, as a ComponentError
    carrying that model's position in the stack. If its Adam moment ``m`` is
    finite, so was every gradient, and its non-finite parameters blame Adam.
    """
    if all(np.isfinite(a).all() for a in activations[1:]):
        return
    bad = np.array([~np.isfinite(a).all(axis=(-2, -1)) for a in activations[1:]])
    at = (int(bad.any(axis=0).argmax()),) if bad.ndim > 1 else ()
    finite_grads = state is not None and np.isfinite(state.m[at]).all()
    error = NumericError("non-finite parameters after Adam step"
                         if finite_grads and not np.isfinite(model.params[at]).all()
                         else f"non-finite activations in layer {bad[(..., *at)].argmax()}")
    raise ComponentError(at[0], error) if at else error


def _loss_from_cache(model: DsaeModel, activations: list, state: AdamState = None):
    _check_finite(activations, model, state)
    code = activations[len(model.config.encoder_layers)]
    lead = model.config.stack_shape
    mse = np.mean(((activations[0] - activations[-1]) ** 2).reshape(lead + (-1,)), axis=-1)
    penalty = model.config.l1_penalty * np.mean(np.sum(np.abs(code), axis=-1), axis=-1)
    return mse + penalty, mse, penalty


def loss_with_penalty(model: DsaeModel, batch):
    """Batch loss: (total, mse, penalty) with total = mse + penalty.

    mse averages the squared error over every entry of the batch; the penalty
    is ``l1_penalty`` times the batch mean of the code rows' L1 norms, so both
    terms are batch-size invariant. A stack gets one value per model.
    """
    return _loss_from_cache(model, forward(model, batch)[2])


def backward(model: DsaeModel, batch, cache: list) -> np.ndarray:
    """Gradient of loss_with_penalty, shaped and laid out like ``model.params``.

    Each layer's gradients are written into their views of that array. The L1
    term uses sign(h) with sign(0) = 0.
    """
    x = _as_batch(model, batch)
    activations = cache
    layers = model.config.layers
    n, j = x.shape[-2:]
    code_index = len(model.config.encoder_layers) - 1

    grads = np.empty_like(model.params)
    grad_w, grad_b = _layer_views(model.config, grads)

    # d(mse)/d(reconstruction); mse is the grand mean over n*j entries.
    grad_a = 2.0 * (activations[-1] - x) / (n * j)
    lam = model.config.l1_penalty

    for k in range(len(layers) - 1, -1, -1):
        if k == code_index and lam != 0.0:
            grad_a = grad_a + (lam / n) * np.sign(activations[k + 1])
        grad_z = grad_a * _ACTIVATIONS[layers[k].activation][1](activations[k + 1])
        np.matmul(grad_z.swapaxes(-1, -2), activations[k], out=grad_w[k])
        np.sum(grad_z, axis=-2, out=grad_b[k])
        if k > 0:
            grad_a = grad_z @ model.weights[k]

    return grads


def adam_step(model: DsaeModel, gradients: np.ndarray, state: AdamState, cfg: TrainingConfig):
    """One bias-corrected Adam update of the whole parameter buffer, in place."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1, bc2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    m, v, params = state.m, state.v, model.params
    m *= b1
    m += (1.0 - b1) * gradients
    v *= b2
    v += (1.0 - b2) * gradients * gradients
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
    return model, state


def train(model: DsaeModel, train_matrix, cfg: TrainingConfig, rows=None):
    """Train a copy of the model for cfg.epochs epochs of shuffled mini-batches.

    ``rows`` gives each model of a stack its training rows of
    ``train_matrix``, shape (S, n) for a stack of S; by default every model
    trains on all rows. Batches are gathered from ``train_matrix`` step by
    step, so the stack's training sets are never copied out whole.

    Returns (trained_model, history) where history holds one epoch-average
    total loss per epoch; for a stack, one per model per epoch, epoch-major,
    so ``history[-S:]`` are the last epoch's losses. The input model is not
    mutated; runs are bit-identical given the same (model, data, config)
    because each model's shuffle is seeded from its config seed.
    """
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("training matrix is empty")
    if x.shape[1] != model.config.n_features:
        raise ShapeError(
            f"training matrix has {x.shape[1]} columns, model expects "
            f"{model.config.n_features}"
        )
    lead = model.config.stack_shape
    if rows is None:
        rows = np.broadcast_to(np.arange(x.shape[0]), lead + x.shape[:1])
    rows = np.asarray(rows)
    if rows.shape[:-1] != lead or rows.shape[-1] == 0:
        raise ShapeError(f"rows must have shape {lead} + (n,) with n >= 1, got {rows.shape}")
    n = rows.shape[-1]
    batch_size = cfg.batch_size
    if batch_size > n:
        logger.warning("batch_size %d exceeds training set size %d; clamping", batch_size, n)
        batch_size = n

    model = DsaeModel(params=model.params.copy(), config=model.config)
    state = AdamState.zeros(model)
    rngs = [np.random.default_rng(seed) for seed in model.config.seeds]
    history = []

    # Overflow is reported, not warned about: as non-finite activations by
    # _check_finite, or after the last step as non-finite reconstruction errors.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.epochs):
            order = np.array([rng.permutation(n) for rng in rngs]).reshape(rows.shape)
            epoch_rows = np.take_along_axis(rows, order, axis=-1)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                xb = x[epoch_rows[..., start : start + batch_size]]
                _, _, cache = forward(model, xb)
                total, _, _ = _loss_from_cache(model, cache, state)
                grads = backward(model, xb, cache)
                adam_step(model, grads, state, cfg)
                epoch_loss += total * xb.shape[-2]
            history.extend(np.ravel(epoch_loss / n))

    return model, history


def reconstruction_errors(model: DsaeModel, test_matrix, out=None) -> np.ndarray:
    """Element-wise squared reconstruction error, one row per observation.

    Only the current layer's activation is kept, never a forward cache. With
    ``out``, an array of the batch's shape that does not overlap it, the
    errors are written into it and it is returned; otherwise a new array is.
    Overflow is silent here: the result may hold inf or NaN, for the caller
    to check.
    """
    x = _as_batch(model, test_matrix)
    *hidden, last = model.config.layers
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = x
        for k, spec in enumerate(hidden):
            a = _pre_activation(model, k, a)
            a = _activate(spec.activation, a, out=a)
        # One matmul over all rows: BLAS results can change with the row count.
        out = np.matmul(a, model.weights[-1].swapaxes(-1, -2), out=out)
        del a
        # The rest is element-wise, so slicing the rows keeps every bit and
        # bounds the sigmoid's scratch arrays by one slice.
        bias = model.biases[-1][..., None, :]
        for start in range(0, x.shape[-2], SCORE_ROWS):
            rows = np.s_[..., start:start + SCORE_ROWS, :]
            z = out[rows]
            z += bias
            _activate(last.activation, z, out=z)
            np.subtract(x[rows], z, out=z)
            np.square(z, out=z)
    return out
