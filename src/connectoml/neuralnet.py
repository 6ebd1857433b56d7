"""Feed-forward binary classifier trained by limited-memory BFGS.

Fixed architecture: two hidden layers of 32 ReLU units and a single sigmoid
output. The training objective is the mean binary cross-entropy plus an L2
penalty on the weight matrices (biases are not penalized):

    J = -(1/N) * sum_i [y_i log h(x_i) + (1 - y_i) log(1 - h(x_i))]
        + l2_alpha * sum_l ||W_l||^2

Probabilities are clipped to [1e-12, 1 - 1e-12] before the logs so the loss
stays finite; the clip is inactive anywhere gradients matter. Features are
min-max normalized to [0, 1] with statistics fitted on training data only.

Kernel coordinates. A fit often has far more inputs d than rows n (7,140
per measure and 21,420 fused at 120 nodes, against ~105 rows). The
first-layer weight gradient is ``x^T.dz1 + 2a.W1``, so by induction every
vector L-BFGS forms (iterates, gradients, steps, curvature pairs, trial
points) has a first-layer block ``c.W1_0 + x^T.B``, c a scalar and B an
(n, 32) matrix. When d > n, :func:`train_classifier` runs L-BFGS on the
coordinates (B, the other layers, c) of that subspace, starting from B = 0
and c = 1 (:class:`_KernelCoordinates`). With ``G = x.x^T`` and
``P = x.W1_0``, both formed once per fit, the first layer's outputs are
``c.P + G.B + b1``, its penalty is
``a.(c^2.||W1_0||^2 + 2c.<P, B> + <B, G.B>)``, and the representer of the
full-space gradient is ``(dz1 + 2a.B, the other layers, 2a.c)``. L-BFGS
measures these vectors in the full-space inner product, through the
``metric`` of :func:`~connectoml.lbfgs.lbfgs_minimize`:
``M.v = (G.v_B + v_c.P, the other layers, <P, v_B> + v_c.||W1_0||^2)``.
In exact arithmetic it then sees the same values and inner products and
takes the same steps as in the full space (the representer argument of
Schoelkopf, Herbrich & Smola, COLT 2001, applied to the span of the L-BFGS
vectors rather than the optimum), and nothing is factorized: duplicate rows
or a rank-deficient ``x`` only leave directions of B that map to zero.
Forming G costs n.n.d flops once; then an objective evaluation and a metric
product each cost one (n, n) by (n, 32) product instead of n.d.32 flops.
Convergence and the first step use norms of the full-space gradient. When
d <= n the fit runs in the full space on :func:`loss_and_gradient`.

Trust boundary: the objectives, :func:`loss_and_gradient` and its kernel
form, check nothing; they expect float64 ``x`` of shape (n, input_dim),
n >= 1, and 0/1 ``y``. :func:`train_classifier` checks both, once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lbfgs import gradient_norm, lbfgs_minimize

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


def _upper_forward(params: MlpParameters, z1: np.ndarray):
    """Layers 2 and 3 from the first layer's pre-activations ``z1``."""
    w2, w3 = params.layer_weights[1:]
    b2, b3 = params.layer_biases[1:]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3 + b3
    prob = _sigmoid(z3[:, 0])
    return a1, z2, a2, prob


def _forward_pass(params: MlpParameters, x: np.ndarray):
    z1 = x @ params.layer_weights[0] + params.layer_biases[0]
    return (z1,) + _upper_forward(params, z1)


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


def _upper_loss_and_backward(params, z1, y, l2_alpha, first_norm, views):
    """Objective value and ``dz1``, the gradient at the first layer's
    pre-activations ``z1``, with the gradients of layers 2 and 3 written
    into their ``views``.

    ``first_norm`` is the squared norm of the first-layer weights, however
    the caller holds them; the other layers' come from ``params``.
    """
    n = z1.shape[0]
    w2, w3 = params.layer_weights[1:]
    a1, z2, a2, prob = _upper_forward(params, z1)

    clipped = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    cross_entropy = -float(
        np.mean(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped))
    )
    penalty = l2_alpha * sum(
        [first_norm] + [float(np.dot(w.ravel(), w.ravel())) for w in (w2, w3)]
    )

    grad_w2, grad_w3 = views.layer_weights[1:]
    grad_b2, grad_b3 = views.layer_biases[1:]
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
    return cross_entropy + penalty, dz1


def loss_and_gradient(params: MlpParameters, x, y, l2_alpha: float):
    """Objective value and its exact gradient in one backward pass.

    The value is the mean cross-entropy plus the L2 penalty on the weight
    matrices (see the module docstring); the gradient comes from
    reverse-mode accumulation, laid out as :func:`flatten_parameters`.

    Trusts its input, checked once by :func:`train_classifier`: float64
    ``x`` of shape (n, input_dim), n >= 1, and length-n float64 0/1 ``y``.
    """
    w1, b1 = params.layer_weights[0], params.layer_biases[0]
    z1 = x @ w1 + b1
    # Each layer's gradient is written straight into its view of one vector.
    grad = np.empty(params.n_parameters)
    views = unflatten_parameters(grad, params.input_dim)
    value, dz1 = _upper_loss_and_backward(
        params, z1, y, l2_alpha, float(np.dot(w1.ravel(), w1.ravel())), views
    )
    grad_w1 = views.layer_weights[0]
    np.matmul(x.T, dz1, out=grad_w1)
    grad_w1 += 2.0 * l2_alpha * w1
    dz1.sum(axis=0, out=views.layer_biases[0])
    return value, grad


def fit_normalizer(xs) -> MinMaxNormalizer:
    """Per-feature minimum and maximum over the given (training) rows."""
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("cannot fit a normalizer on an empty dataset")
    return MinMaxNormalizer(minimum=x.min(axis=0), maximum=x.max(axis=0))


class _KernelCoordinates:
    """Parameter vectors whose first layer is ``c.W1_0 + x^T.B``.

    A vector in these coordinates is :func:`flatten_parameters` of the
    network with the (n, 32) matrix B in place of the first-layer weights,
    followed by the scalar c (module docstring, Kernel coordinates).
    ``x`` is the (n, d) training batch and ``w1`` the initial weights
    ``W1_0``; ``x.x^T`` and ``x.W1_0`` are formed here, once.
    """

    def __init__(self, x: np.ndarray, w1: np.ndarray):
        self.x = x
        self.w1 = w1
        self.gram = x @ x.T
        self.proj = x @ w1
        self.w1_norm = float(np.dot(w1.ravel(), w1.ravel()))
        self.split = x.shape[0] * HIDDEN_UNITS

    def start(self, init: MlpParameters) -> np.ndarray:
        """``init`` in these coordinates: B = 0 and c = 1."""
        rest = flatten_parameters(init)[self.w1.size :]
        return np.concatenate([np.zeros(self.split), rest, [1.0]])

    def lift(self, v: np.ndarray) -> np.ndarray:
        """``v`` as a full-space vector, laid out as
        :func:`flatten_parameters`: first layer ``c.W1_0 + x^T.B``."""
        block = v[: self.split].reshape(-1, HIDDEN_UNITS)
        first = self.x.T @ block + v[-1] * self.w1
        return np.concatenate([first.ravel(), v[self.split : -1]])

    def metric(self, v: np.ndarray) -> np.ndarray:
        """``M.v``: ``u @ metric(v) == lift(u) @ lift(v)``, exactly in
        exact arithmetic."""
        block = v[: self.split].reshape(-1, HIDDEN_UNITS)
        out = v.copy()
        image = out[: self.split].reshape(block.shape)
        np.matmul(self.gram, block, out=image)
        image += v[-1] * self.proj
        out[-1] = (
            float(np.dot(self.proj.ravel(), v[: self.split]))
            + v[-1] * self.w1_norm
        )
        return out

    def loss_and_gradient(self, theta: np.ndarray, y, l2_alpha: float):
        """:func:`loss_and_gradient` at ``lift(theta)``, with the gradient's
        representer in these coordinates: ``lift`` of it is the full-space
        gradient."""
        n = self.gram.shape[0]
        params = unflatten_parameters(theta[:-1], n)
        block, c = params.layer_weights[0], theta[-1]
        products = self.gram @ block
        z1 = c * self.proj + products + params.layer_biases[0]
        first_norm = (
            c * c * self.w1_norm
            + 2.0 * c * float(np.dot(self.proj.ravel(), block.ravel()))
            + float(np.dot(block.ravel(), products.ravel()))
        )
        grad = np.empty(theta.size)
        views = unflatten_parameters(grad[:-1], n)
        value, dz1 = _upper_loss_and_backward(
            params, z1, y, l2_alpha, first_norm, views
        )
        decay = 2.0 * l2_alpha
        np.add(dz1, decay * block, out=views.layer_weights[0])
        dz1.sum(axis=0, out=views.layer_biases[0])
        grad[-1] = decay * c
        return value, grad


def train_classifier(xs, ys, cfg: TrainConfig) -> MlpModel:
    """Fit the classifier: normalize, initialize per seed, minimize the loss.

    Deterministic in (data, cfg). Checks the data once: ``ValidationError``
    unless ``xs`` is a nonempty 2-D matrix, ``ys`` has one 0/1 label per
    row, and both classes are present.

    When d <= n the optimizer's vector is :func:`flatten_parameters` of the
    model and the objective :func:`loss_and_gradient`. When d > n it is the
    model in :class:`_KernelCoordinates`, minimized under their metric; the
    full first-layer gradient, needed for the stopping norms, is formed
    only when the other layers' gradient does not already exceed the
    tolerance.
    """
    x, y = _validate_dataset(xs, ys)
    if np.unique(y).size < 2:
        raise ValidationError("training set contains a single class")
    n, input_dim = x.shape
    normalizer = MinMaxNormalizer(minimum=x.min(axis=0), maximum=x.max(axis=0))
    batch = normalizer.transform(x)
    init = init_parameters(input_dim, cfg.seed)
    alpha = cfg.l2_alpha

    if input_dim <= n:

        def objective(theta):
            return loss_and_gradient(
                unflatten_parameters(theta, input_dim), batch, y, alpha
            )

        result = lbfgs_minimize(objective, flatten_parameters(init), cfg)
        parameters = result.x
    else:
        coords = _KernelCoordinates(batch, init.layer_weights[0])

        def full_norm(grad, order):
            rest = grad[coords.split : -1]
            if order == np.inf:
                bound = gradient_norm(rest, order)
                if bound > cfg.gradient_tolerance:
                    return bound
            return gradient_norm(coords.lift(grad), order)

        result = lbfgs_minimize(
            lambda theta: coords.loss_and_gradient(theta, y, alpha),
            coords.start(init),
            cfg,
            norm=full_norm,
            metric=coords.metric,
        )
        parameters = coords.lift(result.x)
    return MlpModel(
        parameters=unflatten_parameters(parameters, input_dim),
        normalizer=normalizer,
        input_dim=input_dim,
    )


def predict_proba(model: MlpModel, x):
    """Positive-class probability per row of a raw (n, input_dim) batch."""
    batch = _as_batch(x, model.input_dim)
    return _probabilities(
        model.parameters, model.normalizer.transform(batch)
    )
