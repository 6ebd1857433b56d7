"""Feed-forward binary classifier trained by limited-memory BFGS.

Fixed architecture: two hidden layers of 32 ReLU units and a single sigmoid
output. The training objective is the mean binary cross-entropy plus an L2
penalty on the weight matrices (biases are not penalized):

    J = -(1/N) * sum_i [y_i log h(x_i) + (1 - y_i) log(1 - h(x_i))]
        + l2_alpha * sum_l ||W_l||^2

Probabilities are clipped to [1e-12, 1 - 1e-12] before the logs so the loss
stays finite; the clip is inactive anywhere gradients matter. Features are
min-max normalized to [0, 1] with statistics fitted on training data only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lbfgs import lbfgs_minimize

HIDDEN_UNITS = 32

PROB_CLIP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters shared by every classifier in an experiment."""

    l2_alpha: float = 1e-4
    lbfgs_history: int = 10
    max_iterations: int = 200
    gradient_tolerance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.l2_alpha < 0:
            raise ValidationError("l2_alpha must be nonnegative")
        if self.lbfgs_history < 1:
            raise ValidationError("lbfgs_history must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")
        if self.gradient_tolerance <= 0:
            raise ValidationError("gradient_tolerance must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


@dataclass(frozen=True)
class MlpParameters:
    """Network parameters: weight matrices and bias vectors per layer."""

    layer_weights: tuple
    layer_biases: tuple

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def n_parameters(self) -> int:
        return sum(w.size for w in self.layer_weights) + sum(
            b.size for b in self.layer_biases
        )


@dataclass(frozen=True)
class MinMaxNormalizer:
    """Per-feature min-max scaler fitted on training rows only.

    Transformed values are clipped to [0, 1]; features with a degenerate
    training range (max == min) map to 0.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        span = self.maximum - self.minimum
        scaled = np.zeros_like(x, dtype=np.float64)
        np.divide(x - self.minimum, span, out=scaled, where=span > 0)
        return np.clip(scaled, 0.0, 1.0)


@dataclass(frozen=True)
class MlpModel:
    """Trained classifier: parameters plus the normalizer fitted with them."""

    parameters: MlpParameters
    normalizer: MinMaxNormalizer
    input_dim: int


def _layer_shapes(input_dim: int):
    return (
        (input_dim, HIDDEN_UNITS),
        (HIDDEN_UNITS, HIDDEN_UNITS),
        (HIDDEN_UNITS, 1),
    )


def init_parameters(input_dim: int, seed: int) -> MlpParameters:
    """Deterministic initialization: uniform weights scaled by fan-in/fan-out.

    Each weight is drawn from U(-b, b) with b = sqrt(6 / (fan_in + fan_out));
    biases start at zero. Layers are drawn in order, so the result is a pure
    function of (input_dim, seed).
    """
    if input_dim < 1:
        raise ValidationError("input_dim must be at least 1")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in _layer_shapes(input_dim):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParameters(tuple(weights), tuple(biases))


def flatten_parameters(params: MlpParameters) -> np.ndarray:
    """Pack parameters into one vector.

    Layout: for each layer in order, the weight matrix in row-major order
    followed by the bias vector. :func:`gradient` uses the same layout.
    """
    parts = []
    for w, b in zip(params.layer_weights, params.layer_biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten_parameters(theta: np.ndarray, input_dim: int) -> MlpParameters:
    """Inverse of :func:`flatten_parameters`."""
    theta = np.asarray(theta, dtype=np.float64)
    weights = []
    biases = []
    offset = 0
    for fan_in, fan_out in _layer_shapes(input_dim):
        size = fan_in * fan_out
        weights.append(theta[offset : offset + size].reshape(fan_in, fan_out))
        offset += size
        biases.append(theta[offset : offset + fan_out])
        offset += fan_out
    if offset != theta.size:
        raise ValidationError(
            f"parameter vector has {theta.size} entries,"
            f" expected {offset} for input_dim={input_dim}"
        )
    return MlpParameters(tuple(weights), tuple(biases))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def _forward_pass(params: MlpParameters, x: np.ndarray):
    w1, w2, w3 = params.layer_weights
    b1, b2, b3 = params.layer_biases
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3 + b3
    prob = _sigmoid(z3[:, 0])
    return z1, a1, z2, a2, prob


def _as_batch(x, input_dim: int):
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.ndim != 2 or batch.shape[1] != input_dim:
        raise ValidationError(
            f"input has {batch.shape[-1] if batch.ndim else 0} features,"
            f" model expects {input_dim}"
        )
    return batch, single


def forward(params: MlpParameters, x):
    """Predicted probability of the positive class.

    Accepts a single feature vector or a (n_samples, input_dim) batch.
    Output is clipped away from exact 0 and 1 for downstream log safety.
    """
    batch, single = _as_batch(x, params.input_dim)
    prob = _forward_pass(params, batch)[4]
    prob = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(prob[0]) if single else prob


def _validate_dataset(xs, ys, input_dim=None):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("dataset must be a nonempty 2-D feature matrix")
    if y.shape != (x.shape[0],):
        raise ValidationError("labels must match the number of feature rows")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError("labels must be binary (0 or 1)")
    if input_dim is not None and x.shape[1] != input_dim:
        raise ValidationError(
            f"feature matrix has {x.shape[1]} columns, expected {input_dim}"
        )
    return x, y


def loss_and_gradient(params: MlpParameters, xs, ys, l2_alpha: float):
    """Objective value and its gradient in one backward pass.

    The gradient layout matches :func:`flatten_parameters`.
    """
    x, y = _validate_dataset(xs, ys, params.input_dim)
    n = x.shape[0]
    w1, w2, w3 = params.layer_weights
    z1, a1, z2, a2, prob = _forward_pass(params, x)

    clipped = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    cross_entropy = -float(
        np.mean(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped))
    )
    penalty = l2_alpha * sum(
        float(np.dot(w.ravel(), w.ravel())) for w in params.layer_weights
    )

    # Each layer's gradient is written straight into its view of one vector.
    grad = np.empty(params.n_parameters)
    views = unflatten_parameters(grad, params.input_dim)
    grad_w1, grad_w2, grad_w3 = views.layer_weights
    grad_b1, grad_b2, grad_b3 = views.layer_biases
    decay = 2.0 * l2_alpha

    dz3 = ((prob - y) / n)[:, None]
    np.matmul(a2.T, dz3, out=grad_w3)
    grad_w3 += decay * w3
    dz3.sum(axis=0, out=grad_b3)
    dz2 = (dz3 @ w3.T) * (z2 > 0)
    np.matmul(a1.T, dz2, out=grad_w2)
    grad_w2 += decay * w2
    dz2.sum(axis=0, out=grad_b2)
    dz1 = (dz2 @ w2.T) * (z1 > 0)
    np.matmul(x.T, dz1, out=grad_w1)
    grad_w1 += decay * w1
    dz1.sum(axis=0, out=grad_b1)
    return cross_entropy + penalty, grad


def loss(params: MlpParameters, xs, ys, l2_alpha: float) -> float:
    """Mean cross-entropy plus L2 penalty on the weight matrices."""
    return loss_and_gradient(params, xs, ys, l2_alpha)[0]


def gradient(params: MlpParameters, xs, ys, l2_alpha: float) -> np.ndarray:
    """Exact gradient of :func:`loss` via reverse-mode accumulation."""
    return loss_and_gradient(params, xs, ys, l2_alpha)[1]


def fit_normalizer(xs) -> MinMaxNormalizer:
    """Per-feature minimum and maximum over the given (training) rows."""
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("cannot fit a normalizer on an empty dataset")
    return MinMaxNormalizer(minimum=x.min(axis=0), maximum=x.max(axis=0))


def train_classifier(xs, ys, cfg: TrainConfig) -> MlpModel:
    """Fit the classifier: normalize, initialize per seed, minimize the loss.

    Deterministic in (data, cfg). Raises ``ValidationError`` when the labels
    contain a single class.
    """
    x, y = _validate_dataset(xs, ys)
    if np.unique(y).size < 2:
        raise ValidationError("training set contains a single class")
    input_dim = x.shape[1]
    normalizer = fit_normalizer(x)
    x_normalized = normalizer.transform(x)
    theta0 = flatten_parameters(init_parameters(input_dim, cfg.seed))

    def objective(theta):
        return loss_and_gradient(
            unflatten_parameters(theta, input_dim), x_normalized, y,
            cfg.l2_alpha,
        )

    result = lbfgs_minimize(objective, theta0, cfg)
    return MlpModel(
        parameters=unflatten_parameters(result.x, input_dim),
        normalizer=normalizer,
        input_dim=input_dim,
    )


def predict_proba(model: MlpModel, x):
    """Probability of the positive class for raw (unnormalized) features."""
    batch, single = _as_batch(x, model.input_dim)
    prob = forward(model.parameters, model.normalizer.transform(batch))
    return float(prob[0]) if single else prob
