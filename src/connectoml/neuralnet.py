"""Feed-forward binary classifier trained by limited-memory BFGS.

Fixed architecture: two hidden layers of 32 ReLU units and a single sigmoid
output. The training objective is the mean binary cross-entropy plus an L2
penalty on the weight matrices (biases are not penalized):

    J = -(1/N) * sum_i [y_i log h(x_i) + (1 - y_i) log(1 - h(x_i))]
        + l2_alpha * sum_l ||W_l||^2

Probabilities are clipped to [1e-12, 1 - 1e-12] before the logs so the loss
stays finite; the clip is inactive anywhere gradients matter. The network
trains on and scores the rows as given; its callers scale them with a
:class:`MinMaxNormalizer` fitted on the training rows only.

Kernel coordinates. A fit usually has far more inputs d than rows n
(7,140 per measure and 21,420 fused at 120 nodes, against ~105 rows). The
first-layer weight gradient is ``x^T.dz1 + 2a.W1``, so by induction every
vector L-BFGS forms (iterates, gradients, steps, curvature pairs, trial
points) has a first-layer block ``c.W1_0 + x^T.B``, c a scalar and B an
(n, 32) matrix. :func:`train_classifier` runs L-BFGS on the coordinates
(B, the other layers, c) of that subspace, starting from B = 0 and c = 1
(:class:`_KernelCoordinates`), whatever the shape of ``x``. With
``G = x.x^T`` and ``P = x.W1_0``, both formed once per fit, the first
layer's outputs are ``c.P + G.B + b1``, its penalty is
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
Forming G costs n.n.d flops once. The objective reads the first layer's
outputs and penalty off the point's metric image, which L-BFGS carries
along every vector it forms: ``z1 = (M.v)_B + b1`` and ``||W1||^2 =
<v_B, (M.v)_B> + v_c.(M.v)_c``. So an evaluation forms no (n, n) by (n, 32)
product, and the one product of each accepted iterate is the metric's, on
its gradient. The full space would spend n.d.32 flops on each.
Convergence and the first step use norms of the full-space gradient.
When d < n, G is rank-deficient, which only adds directions of B that
map to zero, and the coordinates outnumber the parameters: with d well
below n such a fit costs more than a full-space fit would (README,
Layout). :func:`loss_and_gradient` is the full-space objective, the
reference that the kernel form reproduces.

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
        for name in ("l2_alpha", "gradient_tolerance"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        # init_parameters draws layer l from U(-b, b), b^2 = 6 / (fan_in +
        # fan_out), so it starts with ||W_l||^2 <= 6.fan_in.fan_out /
        # (fan_in + fan_out): below 192 for the first layer at any input
        # width, 96 and 192/33 for the others, below 294 in all. The first
        # gradient's weight part is 2a.W, ||2a.W||^2 < 4.294.a^2: up to this
        # alpha neither it nor the initial penalty (< 294.a) can overflow.
        max_alpha = np.sqrt(np.finfo(np.float64).max / 1176.0)
        if self.l2_alpha > max_alpha:
            raise ValidationError(f"l2_alpha must be at most {max_alpha:.4g}")


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
    training range map to 0. A range is degenerate when its span is at most
    four ulps of the column's magnitude: such a span is rounding, which
    scaling would stretch to the whole interval. :meth:`transform_in_place`
    scales rows the caller owns, such as a fresh gather of a cohort's rows,
    over themselves; a cohort's own matrix is read-only.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def transform_in_place(self, rows: np.ndarray) -> np.ndarray:
        """The scaled ``rows``, written over the writable float64 array
        ``rows``."""
        span = self.maximum - self.minimum
        magnitude = np.maximum(np.abs(self.minimum), np.abs(self.maximum))
        degenerate = ~(span > 4.0 * np.spacing(magnitude))
        rows -= self.minimum
        rows /= np.where(degenerate, 1.0, span)
        rows[..., degenerate] = 0.0
        return np.clip(rows, 0.0, 1.0, out=rows)


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


def forward(params: MlpParameters, x):
    """Predicted probability of the positive class for a batch of rows.

    ``x`` is an (n_samples, input_dim) batch, scaled as the training rows
    were; the result has one entry per row and is clipped away from exact 0
    and 1 for downstream log safety.
    """
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValidationError(
            f"input must be an (n_samples, {params.input_dim}) batch of"
            f" features, got shape {batch.shape}"
        )
    z1 = batch @ params.layer_weights[0] + params.layer_biases[0]
    prob = _upper_forward(params, z1)[3]
    return np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)


#: The name the fold path and instance hardness score through.
predict_proba = forward


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


#: Rows of the first-layer weights whose ``c.W1_0`` term
#: :meth:`_KernelCoordinates.lift` forms at once (64 KiB of float64).
_LIFT_BLOCK_ROWS = 256


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
        """``init`` in these coordinates: B = 0 and c = 1. The tail is
        built from the first-layer biases and layers 2 and 3, with no copy
        of the first-layer weights."""
        parts = [np.zeros(self.split), init.layer_biases[0]]
        for w, b in zip(init.layer_weights[1:], init.layer_biases[1:]):
            parts += [w.ravel(), b]
        return np.concatenate(parts + [[1.0]])

    def lift(self, v: np.ndarray) -> np.ndarray:
        """``v`` as a full-space vector, laid out as
        :func:`flatten_parameters`: first layer ``c.W1_0 + x^T.B``.

        ``c.W1_0`` is formed and added :data:`_LIFT_BLOCK_ROWS` rows at a
        time, the same products and sums with no temporary the size of
        ``W1_0``."""
        block = v[: self.split].reshape(-1, HIDDEN_UNITS)
        out = np.empty(self.w1.size + v.size - self.split - 1)
        first = out[: self.w1.size].reshape(self.w1.shape)
        np.matmul(self.x.T, block, out=first)
        term = np.empty((min(_LIFT_BLOCK_ROWS, len(first)), HIDDEN_UNITS))
        for i in range(0, len(first), _LIFT_BLOCK_ROWS):
            part = self.w1[i : i + _LIFT_BLOCK_ROWS]
            scaled = np.multiply(v[-1], part, out=term[: len(part)])
            first[i : i + _LIFT_BLOCK_ROWS] += scaled
        out[self.w1.size :] = v[self.split : -1]
        return out

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

    def loss_and_gradient(
        self, theta: np.ndarray, image: np.ndarray, y, l2_alpha: float
    ):
        """:func:`loss_and_gradient` at ``lift(theta)``, with the gradient's
        representer in these coordinates: ``lift`` of it is the full-space
        gradient. ``image`` is ``metric(theta)``; the first layer's outputs
        and penalty come from it, with no product."""
        n = self.gram.shape[0]
        params = unflatten_parameters(theta[:-1], n)
        block, c = params.layer_weights[0], theta[-1]
        first = image[: self.split]
        z1 = first.reshape(block.shape) + params.layer_biases[0]
        first_norm = float(np.dot(block.ravel(), first)) + c * image[-1]
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


def train_classifier(xs, ys, cfg: TrainConfig) -> MlpParameters:
    """Fit the classifier on the rows as given: initialize per seed, then
    minimize the loss.

    Deterministic in (data, cfg). Checks the data once: ``ValidationError``
    unless ``xs`` is a nonempty 2-D matrix, ``ys`` has one 0/1 label per
    row, and both classes are present.

    The optimizer's vector is the model in :class:`_KernelCoordinates`,
    minimized under their metric, for every shape of ``xs``; in exact
    arithmetic it takes the steps of the full-space fit on the reference
    objective :func:`loss_and_gradient`. The full first-layer gradient,
    needed for the stopping norms, is formed only when the other layers'
    gradient does not already exceed the tolerance.
    """
    x, y = _validate_dataset(xs, ys)
    if np.unique(y).size < 2:
        raise ValidationError("training set contains a single class")
    init = init_parameters(x.shape[1], cfg.seed)
    coords = _KernelCoordinates(x, init.layer_weights[0])

    def full_norm(grad, order):
        rest = grad[coords.split : -1]
        if order == np.inf:
            bound = gradient_norm(rest, order)
            if bound > cfg.gradient_tolerance:
                return bound
            return gradient_norm(coords.lift(grad), order)
        # The lifted gradient is this call's own: the L1 norm takes its
        # absolute values over it, the sum gradient_norm forms on a copy.
        lifted = coords.lift(grad)
        return float(np.abs(lifted, out=lifted).sum())

    result = lbfgs_minimize(
        lambda theta, image: coords.loss_and_gradient(
            theta, image, y, cfg.l2_alpha
        ),
        coords.start(init),
        cfg,
        norm=full_norm,
        metric=coords.metric,
    )
    return unflatten_parameters(coords.lift(result.x), x.shape[1])
