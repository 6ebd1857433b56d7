"""Limited-memory BFGS minimizer with a strong Wolfe line search.

The search direction is -H.g of the two-loop recursion (Nocedal, "Updating
quasi-Newton matrices with limited storage", Math. Comp. 35, 1980) over the
last ``history`` curvature pairs (s, y), with the initial matrix scaled by
``(s.y)/(y.y)`` of the newest pair. The pairs are kept as vectors, oldest
first, and each direction takes two passes over them.

Step lengths are chosen by a bracket-and-zoom line search with safeguarded
cubic interpolation that enforces the strong Wolfe conditions

    f(x + a d) <= f(x) + c1 * a * g.d        (sufficient decrease)
    |g(x + a d).d| <= c2 * |g.d|             (curvature)

with c1 = 1e-4 and c2 = 0.9. Every accepted iterate therefore strictly
decreases the objective.

Coordinates and metric. Every inner product is taken in a metric M, given
as ``metric(v) = M.v``; by default M = I, and the minimizer is the
Euclidean one. A caller minimizing F over coordinates v of a linear map L
(the point is ``L.v``) passes ``M = L^T.L`` and an objective that returns
``F(L.v)`` and a gradient representer g with ``L.g = grad F(L.v)``. Each
inner product the minimizer takes, ``(L.u).(L.g)`` in the space of F, is
then ``u.(M.g)``: the recursion's products with the pairs, the slope, the
line search's derivative, ``s.y``, ``s.s`` and ``y.y``. Up to rounding, L
maps the iterates onto those of the minimizer run on F itself, while each
vector has the length of v. The caller's ``norm`` measures gradients in the
space of F too.

M is linear, so the minimizer carries the image ``M.u`` of every vector u
it forms instead of applying ``metric`` to it: ``M.(x + a.d) = M.x +
a.M.d``, each pair is held with ``M.s = step.M.d`` and ``M.y = M.g_new -
M.g``, and the recursion updates a direction's image with the same
coefficients as the direction. The objective receives each trial point's
image along with the point, and ``metric`` runs on the start point, on the
first gradient, and once per accepted iterate, on its gradient. One
arithmetic serves every metric, the identity included.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

_MAX_STEP = 1e10
_MAX_EVALS = 30
_CURVATURE_GUARD = 1e-10


def _identity(v):
    """The Euclidean metric, M = I."""
    return v


def _along(x, image, step, direction, direction_image):
    """``x + step.direction`` and its image, ``image +
    step.direction_image``."""
    return x + step * direction, image + step * direction_image


@dataclass(frozen=True)
class LbfgsIterate:
    """One accepted iterate: objective value, gradient norm, step length."""

    iteration: int
    fval: float
    grad_inf: float
    step: float | None


@dataclass
class LbfgsResult:
    """Outcome of a minimization run.

    ``converged`` means the infinity norm of the gradient reached the
    requested tolerance. ``grad_inf`` is that norm as the ``norm`` argument
    of :func:`lbfgs_minimize` reported it: exact at or below the tolerance,
    possibly only a lower bound above it. ``line_search_failed`` flags an
    early stop where no step satisfying the strong Wolfe conditions could be
    found; the best iterate seen so far is returned in that case.
    """

    x: np.ndarray
    fval: float
    grad_inf: float
    iterations: int
    converged: bool
    line_search_failed: bool = False
    trace: list[LbfgsIterate] = field(default_factory=list)


@dataclass(frozen=True)
class LineSearchResult:
    """The accepted step, or on failure the lowest finite trial: step 0 at
    the starting value, with no gradient, when no trial went lower."""

    success: bool
    step: float
    fval: float
    grad: np.ndarray | None


def _cubic_minimizer(a, fa, ga, b, fb, gb):
    """Minimizer of the cubic interpolating (a, fa, ga) and (b, fb, gb).

    Returns None when the cubic has no interior minimizer or the arithmetic
    degenerates; callers fall back to bisection.
    """
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - ga * gb
    if radicand < 0.0:
        return None
    d2 = np.sqrt(radicand)
    if a > b:
        d2 = -d2
    denom = gb - ga + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (gb + d2 - d1) / denom
    if not np.isfinite(t):
        return None
    return t


def _finite_value(f):
    return f if np.isfinite(f) else np.inf


def strong_wolfe_line_search(
    objective,
    x: np.ndarray,
    fval: float,
    direction: np.ndarray,
    slope: float,
    initial_step: float = 1.0,
    *,
    image: np.ndarray,
    direction_image: np.ndarray,
) -> LineSearchResult:
    """Find a step along ``direction`` satisfying the strong Wolfe conditions.

    ``objective`` maps a point and its metric image to ``(f, grad)``;
    ``image`` and ``direction_image`` are ``M.x`` and ``M.direction``.
    ``fval`` is the value at ``x`` and ``slope`` the derivative there along
    ``direction``, which fails the search at once unless negative. A trial
    point's image is ``image + step.direction_image`` and its derivative
    along the line ``grad . direction_image`` (module docstring,
    Coordinates and metric): no trial calls the metric. At most
    ``_MAX_EVALS`` trials are made in each of the bracketing and zoom
    phases. Non-finite trial values are treated as infinitely bad, which
    shrinks the bracket back toward known-good steps.
    """
    phi0, dphi0 = fval, slope
    if dphi0 >= 0.0:
        return LineSearchResult(False, 0.0, phi0, None)

    best = (0.0, phi0, None)

    def evaluate(step):
        nonlocal best
        f, g = objective(*_along(x, image, step, direction, direction_image))
        f = _finite_value(f)
        if f < best[1] and np.all(np.isfinite(g)):
            best = (step, f, g)
        return f, g, float(g @ direction_image)

    def zoom(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi):
        for _ in range(_MAX_EVALS):
            width = hi - lo
            trial = _cubic_minimizer(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi)
            lo_b, hi_b = (lo, hi) if lo < hi else (hi, lo)
            margin = 0.1 * abs(width)
            if (
                trial is None
                or not np.isfinite(phi_hi)
                or trial < lo_b + margin
                or trial > hi_b - margin
            ):
                trial = lo + 0.5 * width
            phi, g, dphi = evaluate(trial)
            if phi > phi0 + WOLFE_C1 * trial * dphi0 or phi >= phi_lo:
                hi, phi_hi, dphi_hi = trial, phi, dphi
            else:
                if abs(dphi) <= -WOLFE_C2 * dphi0:
                    return LineSearchResult(True, trial, phi, g)
                if dphi * (hi - lo) >= 0.0:
                    hi, phi_hi, dphi_hi = lo, phi_lo, dphi_lo
                lo, phi_lo, dphi_lo = trial, phi, dphi
            if abs(hi - lo) <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
        return LineSearchResult(False, *best)

    prev_step, phi_prev, dphi_prev = 0.0, phi0, dphi0
    step = min(initial_step, _MAX_STEP)
    for attempt in range(_MAX_EVALS):
        phi, g, dphi = evaluate(step)
        if phi > phi0 + WOLFE_C1 * step * dphi0 or (
            attempt > 0 and phi >= phi_prev
        ):
            return zoom(prev_step, phi_prev, dphi_prev, step, phi, dphi)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return LineSearchResult(True, step, phi, g)
        if dphi >= 0.0:
            return zoom(step, phi, dphi, prev_step, phi_prev, dphi_prev)
        if step >= _MAX_STEP:
            break
        prev_step, phi_prev, dphi_prev = step, phi, dphi
        step = min(2.0 * step, _MAX_STEP)
    return LineSearchResult(False, *best)


class _CurvatureHistory:
    """The last ``depth`` accepted curvature pairs, with their images.

    ``pairs`` holds ``(s, y, M.s, M.y, s.M.y, y.M.y)`` for each pair, oldest
    first, in the minimizer's metric M (module docstring); a new pair past
    ``depth`` drops the oldest.
    """

    def __init__(self, depth: int):
        self.pairs = collections.deque(maxlen=depth)

    def clear(self):
        """Drop every pair; the next direction is steepest descent."""
        self.pairs.clear()

    def direction(self, grad, mgrad):
        """Search direction -H.g of the two-loop recursion, and its image,
        given ``mgrad = M.grad``."""
        q, mq = -grad, -mgrad
        alphas = []
        for s, y, ms, my, sy, yy in reversed(self.pairs):
            alpha = float(ms @ q) / sy
            q -= alpha * y
            mq -= alpha * my
            alphas.append(alpha)
        if self.pairs:
            sy, yy = self.pairs[-1][4:]
            q *= sy / yy
            mq *= sy / yy
        for (s, y, ms, my, sy, yy), alpha in zip(self.pairs, reversed(alphas)):
            coef = alpha - float(my @ q) / sy
            q += coef * s
            mq += coef * ms
        return q, mq

    def update(
        self, step, direction, mdirection, grad, new_grad, mgrad, new_mgrad
    ):
        """Offer the pair (step * direction, new_grad - grad).

        ``mdirection``, ``mgrad`` and ``new_mgrad`` are the images of
        ``direction``, ``grad`` and ``new_grad`` under the metric M. The
        pair is kept only if its curvature ``s.M.y`` is positive beyond
        rounding.
        """
        s, ms = step * direction, step * mdirection
        y, my = new_grad - grad, new_mgrad - mgrad
        sy = float(s @ my)
        ss = float(s @ ms)
        yy = float(y @ my)
        if sy > _CURVATURE_GUARD * np.sqrt(ss) * np.sqrt(yy):
            self.pairs.append((s, y, ms, my, sy, yy))


def gradient_norm(grad: np.ndarray, order: float) -> float:
    """Infinity (``order=np.inf``) or L1 (``order=1``) norm of a gradient."""
    if not grad.size:
        return 0.0
    if order == np.inf:
        # The larger extreme, without an |grad| copy; np.maximum keeps a
        # NaN, and abs() turns a largest magnitude of -0.0 into 0.0.
        return abs(float(np.maximum(grad.max(), -grad.min())))
    return float(np.abs(grad).sum())


def lbfgs_minimize(
    objective, x0, cfg, norm=gradient_norm, metric=None
) -> LbfgsResult:
    """Minimize ``objective`` starting from ``x0``.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector to ``(value, gradient)``. When a ``metric``
        is given it is called as ``objective(x, M.x)``: each point comes
        with its image.
    x0 : array_like
        Starting point; the objective must be finite here.
    cfg
        Any object with ``lbfgs_history``, ``max_iterations`` and
        ``gradient_tolerance`` attributes (e.g. ``TrainConfig``).
    norm : callable
        ``norm(gradient, order)`` with ``order`` ``np.inf`` or 1, as
        :func:`gradient_norm`. The infinity norm decides convergence and the
        L1 norm sizes the first step. A caller minimizing in coordinates
        passes the norms of the gradient in the space they map to; above
        ``cfg.gradient_tolerance`` its infinity norm may be any lower bound
        that is itself above the tolerance.
    metric : callable, optional
        ``metric(v) = M.v`` for the symmetric positive semidefinite ``M``
        of the inner product (module docstring, Coordinates and metric),
        called on the start point, on the first gradient, and on each
        accepted iterate's gradient. By default M = I, the Euclidean inner
        product, and the objective takes the point alone.

    Returns
    -------
    LbfgsResult
        Final point, iterate trace (accepted iterates only, objective
        non-increasing), and convergence flags.

    Raises
    ------
    NumericalError
        If the objective or gradient is non-finite at ``x0``.
    """
    if metric is None:
        return lbfgs_minimize(
            lambda point, image: objective(point), x0, cfg, norm, _identity
        )
    x = np.array(x0, dtype=np.float64)
    image = metric(x)
    fval, grad = objective(x, image)
    fval = float(fval)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(fval) or not np.all(np.isfinite(grad)):
        raise NumericalError("objective is not finite at the starting point")

    mgrad = metric(grad)
    grad_inf = norm(grad, np.inf)
    trace = [LbfgsIterate(0, fval, grad_inf, None)]
    history = _CurvatureHistory(cfg.lbfgs_history)
    line_search_failed = False
    iteration = 0

    while iteration < cfg.max_iterations and grad_inf > cfg.gradient_tolerance:
        direction, mdirection = history.direction(grad, mgrad)
        slope = float(direction @ mgrad)
        if slope >= 0.0:
            # Stale curvature produced an ascent direction; restart from
            # steepest descent.
            history.clear()
            direction, mdirection = -grad, -mgrad
            slope = float(direction @ mgrad)
        initial_step = 1.0
        if iteration == 0:
            initial_step = min(1.0, 1.0 / max(1.0, norm(grad, 1)))

        search = strong_wolfe_line_search(
            objective,
            x,
            fval,
            direction,
            slope,
            initial_step=initial_step,
            image=image,
            direction_image=mdirection,
        )
        line_search_failed = not search.success
        if line_search_failed and not search.fval < fval:
            break
        step = search.step
        if search.success:
            new_mgrad = metric(search.grad)
            history.update(
                step, direction, mdirection, grad, search.grad, mgrad,
                new_mgrad,
            )
            mgrad = new_mgrad

        iteration += 1
        x, image = _along(x, image, step, direction, mdirection)
        fval = float(search.fval)
        grad = search.grad
        grad_inf = norm(grad, np.inf)
        trace.append(LbfgsIterate(iteration, fval, grad_inf, step))
        if line_search_failed:
            break

    return LbfgsResult(
        x=x,
        fval=fval,
        grad_inf=grad_inf,
        iterations=iteration,
        converged=grad_inf <= cfg.gradient_tolerance,
        line_search_failed=line_search_failed,
        trace=trace,
    )
