"""Feed-forward binary classifier trained by limited-memory BFGS.

Fixed architecture: two hidden layers of 32 ReLU units and a single sigmoid
output. The training objective is the mean binary cross-entropy plus an L2
penalty on the weight matrices (biases are not penalized):

    J = -(1/N) * sum_i [y_i log h(x_i) + (1 - y_i) log(1 - h(x_i))]
        + l2_alpha * sum_l ||W_l||^2

Probabilities are clipped to [1e-12, 1 - 1e-12] before the logs so the loss
stays finite; the clip is inactive anywhere gradients matter. Features are
min-max normalized to [0, 1] with statistics fitted on training data only.

Row-space coordinates. A fit often has far more inputs d than rows n
(7,140 per measure and 21,420 fused at 120 nodes, against ~105 rows). The
first-layer weight gradient is ``x^T.dz1 + 2a.W1``, so by induction every
vector L-BFGS forms (iterates, gradients, steps, curvature pairs, trial
points) has a first-layer block ``c.W1_0 + x^T.B``, c a scalar and B an
(n, 32) matrix. When d > n, :func:`train_classifier` runs L-BFGS on
coordinates of that subspace: ``Q^T.W1`` (r, 32) for an orthonormal basis Q
of the rows of x, the other layers as they are, and ``u = c.||w_perp||``
along ``w_perp = W1_0 - Q.Q^T.W1_0``. The map is an isometry, the penalty
is ``||Q^T.W1||^2 + u^2`` and ``x.w_perp = 0``, so in exact arithmetic
L-BFGS sees the same values and inner products and takes the same steps as
in the full space (the representer argument of Schoelkopf, Herbrich &
Smola, COLT 2001, applied to the span of the L-BFGS vectors rather than
the optimum). The first layer then costs n.r.32 flops instead of n.d.32.
Q keeps the eigenvalues of ``x.x^T`` above :data:`RANK_CUTOFF` times the
largest, which drops the directions that duplicate rows or rounding leave.
Convergence and the first step use norms of the full-space gradient. When
d <= n the same code runs with the identity basis and no ``u``, and takes
the full-space steps bit for bit.

Trust boundary: the objective :func:`loss_and_gradient` checks nothing; it
expects float64 ``x`` of shape (n, input_dim), n >= 1, and 0/1 ``y``.
:func:`train_classifier` checks both, once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .lbfgs import gradient_norm, lbfgs_minimize

HIDDEN_UNITS = 32

PROB_CLIP = 1e-12

#: Eigenvalues of ``x.x^T`` at or below this fraction of the largest are
#: left out of the row-space basis (see :func:`train_classifier`).
RANK_CUTOFF = 1e-12


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
    followed by the bias vector. The gradient of :func:`loss_and_gradient`
    uses the same layout.
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


def _as_batch(x, input_dim: int) -> np.ndarray:
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != input_dim:
        raise ValidationError(
            f"input must be an (n_samples, {input_dim}) batch of features,"
            f" got shape {batch.shape}"
        )
    return batch


def _probabilities(params: MlpParameters, batch: np.ndarray) -> np.ndarray:
    prob = _forward_pass(params, batch)[4]
    return np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)


def forward(params: MlpParameters, x):
    """Predicted probability of the positive class for a batch of rows.

    ``x`` is an (n_samples, input_dim) batch; the result has one entry per
    row and is clipped away from exact 0 and 1 for downstream log safety.
    """
    return _probabilities(params, _as_batch(x, params.input_dim))


def _validate_dataset(xs, ys):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("dataset must be a nonempty 2-D feature matrix")
    if y.shape != (x.shape[0],):
        raise ValidationError("labels must match the number of feature rows")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError("labels must be binary (0 or 1)")
    return x, y


def loss_and_gradient(params: MlpParameters, x, y, l2_alpha: float):
    """Objective value and its exact gradient in one backward pass.

    The value is the mean cross-entropy plus the L2 penalty on the weight
    matrices (see the module docstring); the gradient comes from
    reverse-mode accumulation, laid out as :func:`flatten_parameters`.

    Trusts its input, checked once by :func:`train_classifier`: float64
    ``x`` of shape (n, input_dim), n >= 1, and length-n float64 0/1 ``y``.
    """
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


def fit_normalizer(xs) -> MinMaxNormalizer:
    """Per-feature minimum and maximum over the given (training) rows."""
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("cannot fit a normalizer on an empty dataset")
    return MinMaxNormalizer(minimum=x.min(axis=0), maximum=x.max(axis=0))


@dataclass(frozen=True)
class _FirstLayerBasis:
    """Coordinates for first-layer weights of the form ``c * W1_0 + x.T @ B``.

    ``batch`` is the training batch and ``coords`` the initial weights
    ``W1_0`` in these coordinates, ``tail`` the initial coordinate along
    ``w_perp`` (empty for the identity basis). :meth:`lift` maps a
    coordinate block and tail back to a (d, 32) matrix.
    """

    batch: np.ndarray
    coords: np.ndarray
    tail: np.ndarray
    rows: np.ndarray | None = None
    to_rows: np.ndarray | None = None
    w_perp: np.ndarray | None = None

    def lift(self, block: np.ndarray, tail: np.ndarray) -> np.ndarray:
        if self.to_rows is None:
            return block
        return self.rows.T @ (self.to_rows @ block) + tail[0] * self.w_perp


def _first_layer_basis(x: np.ndarray, w1: np.ndarray) -> _FirstLayerBasis:
    """Identity basis when d <= n, the row space of ``x`` when d > n.

    With ``x.x^T = V.L.V^T`` restricted to eigenvalues above
    :data:`RANK_CUTOFF` times the largest, ``Q = x^T.V.L^-1/2`` is an
    orthonormal basis of the rows; it is applied as ``x^T @ (to_rows @ .)``
    and never stored. The batch in Q's coordinates is ``x @ Q = V.L^1/2``.
    The unit vector ``w_perp`` is the part of ``W1_0`` orthogonal to Q.
    """
    n, d = x.shape
    if d <= n:
        return _FirstLayerBasis(batch=x, coords=w1, tail=np.zeros(0))
    eigenvalues, vectors = np.linalg.eigh(x @ x.T)
    keep = eigenvalues > RANK_CUTOFF * eigenvalues[-1]
    root = np.sqrt(eigenvalues[keep])
    vectors = vectors[:, keep]
    to_rows = vectors / root
    coords = to_rows.T @ (x @ w1)
    w_perp = w1 - x.T @ (to_rows @ coords)
    length = float(np.linalg.norm(w_perp))
    return _FirstLayerBasis(
        batch=vectors * root,
        coords=coords,
        tail=np.array([length]),
        rows=x,
        to_rows=to_rows,
        w_perp=w_perp / length,
    )


def train_classifier(xs, ys, cfg: TrainConfig) -> MlpModel:
    """Fit the classifier: normalize, initialize per seed, minimize the loss.

    Deterministic in (data, cfg). Checks the data once: ``ValidationError``
    unless ``xs`` is a nonempty 2-D matrix, ``ys`` has one 0/1 label per
    row, and both classes are present.

    The optimizer's vector is :func:`flatten_parameters` of the model with
    the first layer in the coordinates of :func:`_first_layer_basis`,
    followed by the basis's tail; the objective is :func:`loss_and_gradient`
    on the batch in those coordinates plus ``l2_alpha * tail^2``. The full
    first-layer gradient, needed for the stopping norms, is formed only
    when the other layers' gradient does not already exceed the tolerance.
    """
    x, y = _validate_dataset(xs, ys)
    if np.unique(y).size < 2:
        raise ValidationError("training set contains a single class")
    input_dim = x.shape[1]
    normalizer = MinMaxNormalizer(minimum=x.min(axis=0), maximum=x.max(axis=0))
    init = init_parameters(input_dim, cfg.seed)
    basis = _first_layer_basis(
        normalizer.transform(x), init.layer_weights[0]
    )
    rank = basis.coords.shape[0]
    first_in_basis = replace(
        init, layer_weights=(basis.coords,) + init.layer_weights[1:]
    )
    theta0 = np.concatenate([flatten_parameters(first_in_basis), basis.tail])
    split = rank * HIDDEN_UNITS
    core = theta0.size - basis.tail.size
    alpha = cfg.l2_alpha

    def objective(theta):
        value, grad = loss_and_gradient(
            unflatten_parameters(theta[:core], rank), basis.batch, y, alpha
        )
        tail = theta[core:]
        return (
            value + alpha * float(tail @ tail),
            np.concatenate([grad, 2.0 * alpha * tail]),
        )

    def full_norm(grad, order):
        rest = grad[split:core]
        if order == np.inf:
            bound = gradient_norm(rest, order)
            if bound > cfg.gradient_tolerance:
                return bound
        first = basis.lift(
            grad[:split].reshape(rank, HIDDEN_UNITS), grad[core:]
        )
        return gradient_norm(np.concatenate([first.ravel(), rest]), order)

    result = lbfgs_minimize(objective, theta0, cfg, norm=full_norm)
    fitted = unflatten_parameters(result.x[:core], rank)
    w1 = basis.lift(fitted.layer_weights[0], result.x[core:])
    return MlpModel(
        parameters=replace(
            fitted, layer_weights=(w1,) + fitted.layer_weights[1:]
        ),
        normalizer=normalizer,
        input_dim=input_dim,
    )


def predict_proba(model: MlpModel, x):
    """Positive-class probability per row of a raw (n, input_dim) batch."""
    batch = _as_batch(x, model.input_dim)
    return _probabilities(
        model.parameters, model.normalizer.transform(batch)
    )
