"""Limited-memory BFGS minimizer with a strong Wolfe line search.

The search direction is the two-loop recursion's -H.g over the last
``history`` curvature pairs (s, y), scaled by ``(s.y)/(y.y)``, computed in
the compact, vector-free form (Byrd, Nocedal & Schnabel, Math. Prog. 63,
1994; Chen, Wang & Zhou, "Large-scale L-BFGS using MapReduce", NIPS 2014).
The pairs live in one preallocated (2 * history, n) ring of rows
s_1, y_1, s_2, y_2, ..., next to the Gram matrix of the rows' inner
products and the rows' inner products with the gradient. The recursion then
runs on 2 * history + 1 scalar coefficients, and each iteration touches the
stored rows in two matrix-vector products: one forms the direction, the
other the inner products with the next gradient. The new pair's remaining
inner products need no pass over the rows: s lies in the span of the rows
and the gradient, and rows.y = rows.g_new - rows.g.

Step lengths are chosen by a bracket-and-zoom line search with safeguarded
cubic interpolation that enforces the strong Wolfe conditions

    f(x + a d) <= f(x) + c1 * a * g.d        (sufficient decrease)
    |g(x + a d).d| <= c2 * |g.d|             (curvature)

with c1 = 1e-4 and c2 = 0.9. Every accepted iterate therefore strictly
decreases the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

_MAX_STEP = 1e10
_CURVATURE_GUARD = 1e-10


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
    requested tolerance. ``line_search_failed`` flags an early stop where no
    step satisfying the strong Wolfe conditions could be found; the best
    iterate seen so far is returned in that case.
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
    success: bool
    step: float
    fval: float
    grad: np.ndarray | None
    n_evals: int
    # Best (lowest finite f) trial seen, whether or not it satisfied Wolfe.
    best_step: float = 0.0
    best_fval: float = np.inf
    best_grad: np.ndarray | None = None


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
    grad: np.ndarray,
    direction: np.ndarray,
    c1: float = WOLFE_C1,
    c2: float = WOLFE_C2,
    initial_step: float = 1.0,
    max_evals: int = 30,
    slope: float | None = None,
) -> LineSearchResult:
    """Find a step along ``direction`` satisfying the strong Wolfe conditions.

    ``objective`` maps a point to ``(f, grad)``. ``direction`` must be a
    descent direction at ``x``. ``slope`` is ``grad . direction`` when the
    caller has already computed it. Non-finite trial values are treated as
    infinitely bad, which shrinks the bracket back toward known-good steps.
    """
    phi0 = fval
    dphi0 = float(grad @ direction) if slope is None else slope
    if dphi0 >= 0.0:
        return LineSearchResult(False, 0.0, phi0, None, 0)

    evals = 0
    best = (0.0, phi0, grad)

    def evaluate(step):
        nonlocal evals, best
        f, g = objective(x + step * direction)
        evals += 1
        f = _finite_value(f)
        if f < best[1] and np.all(np.isfinite(g)):
            best = (step, f, g)
        return f, g, float(g @ direction)

    def result(success, step, f, g):
        return LineSearchResult(
            success, step, f, g, evals,
            best_step=best[0], best_fval=best[1], best_grad=best[2],
        )

    def zoom(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi):
        for _ in range(max_evals):
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
            if phi > phi0 + c1 * trial * dphi0 or phi >= phi_lo:
                hi, phi_hi, dphi_hi = trial, phi, dphi
            else:
                if abs(dphi) <= -c2 * dphi0:
                    return result(True, trial, phi, g)
                if dphi * (hi - lo) >= 0.0:
                    hi, phi_hi, dphi_hi = lo, phi_lo, dphi_lo
                lo, phi_lo, dphi_lo = trial, phi, dphi
            if abs(hi - lo) <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
        return result(False, 0.0, phi0, None)

    prev_step, phi_prev, dphi_prev = 0.0, phi0, dphi0
    step = min(initial_step, _MAX_STEP)
    for attempt in range(max_evals):
        phi, g, dphi = evaluate(step)
        if phi > phi0 + c1 * step * dphi0 or (attempt > 0 and phi >= phi_prev):
            return zoom(prev_step, phi_prev, dphi_prev, step, phi, dphi)
        if abs(dphi) <= -c2 * dphi0:
            return result(True, step, phi, g)
        if dphi >= 0.0:
            return zoom(step, phi, dphi, prev_step, phi_prev, dphi_prev)
        if step >= _MAX_STEP:
            break
        prev_step, phi_prev, dphi_prev = step, phi, dphi
        step = min(2.0 * step, _MAX_STEP)
    return result(False, 0.0, phi0, None)


class _CurvatureHistory:
    """The last ``depth`` accepted curvature pairs, with their inner products.

    ``rows`` is a ring of ``depth`` slots: slot j holds s in row 2j and y in
    row 2j + 1. After :meth:`clear` pairs fill slots 0, 1, ... in order, so
    until the ring is full only the written prefix ``rows[:2 * count]`` is
    read; once full, each accepted pair overwrites the oldest. ``gram`` holds
    the rows' inner products with each other and ``bg`` with the current
    gradient, both indexed like ``rows``.
    """

    def __init__(self, depth: int, size: int):
        self.depth = depth
        self.rows = np.empty((2 * depth, size))
        self.gram = np.empty((2 * depth, 2 * depth))
        self.bg = np.empty(2 * depth)
        self.clear()

    def clear(self):
        """Drop every pair; the next direction is steepest descent."""
        self.count = 0
        self.oldest = 0
        self._coef = np.zeros(0)
        self._coef_g = 1.0

    def direction(self, grad):
        """Search direction -H.g of the two-loop recursion.

        The recursion runs on the coefficients of q over (rows, grad), whose
        inner products all come from ``gram`` and ``bg``; the direction is
        then a single GEMV over the stored rows.
        """
        if self.count == 0:
            return -grad
        k = 2 * self.count
        gram, bg = self.gram[:k, :k], self.bg
        slots = [
            2 * ((self.oldest + i) % self.depth) for i in range(self.count)
        ]
        coef = np.zeros(k)
        coef_g = 1.0
        alphas = []
        for s in reversed(slots):
            alpha = (gram[s] @ coef + coef_g * bg[s]) / gram[s, s + 1]
            coef[s + 1] -= alpha
            alphas.append(alpha)
        newest = slots[-1]
        gamma = gram[newest, newest + 1] / gram[newest + 1, newest + 1]
        coef *= gamma
        coef_g *= gamma
        for s, alpha in zip(slots, reversed(alphas)):
            beta = (gram[s + 1] @ coef + coef_g * bg[s + 1]) / gram[s, s + 1]
            coef[s] += alpha - beta
        self._coef, self._coef_g = coef, coef_g
        direction = (-coef) @ self.rows[:k]
        direction -= coef_g * grad
        return direction

    def update(self, step, direction, grad, new_grad):
        """Offer the pair (step * direction, new_grad - grad); move to new_grad.

        ``direction`` must be the last one :meth:`direction` returned, or
        ``-grad`` right after :meth:`clear`: the new s row's inner products
        with the stored rows come from its coefficients, and the y row's
        from ``bg`` before and after the one GEMV with ``new_grad``.
        """
        y = new_grad - grad
        sy = step * float(direction @ y)
        ss = step * step * float(direction @ direction)
        yy = float(y @ y)
        k = 2 * self.count
        if not sy > _CURVATURE_GUARD * np.sqrt(ss) * np.sqrt(yy):
            np.dot(self.rows[:k], new_grad, out=self.bg[:k])
            return
        rows_s = -step * (
            self.gram[:k, :k] @ self._coef + self._coef_g * self.bg[:k]
        )
        bg_old = self.bg[:k].copy()
        if self.count < self.depth:
            slot = k
            self.count += 1
        else:
            slot = 2 * self.oldest
            self.oldest = (self.oldest + 1) % self.depth
        np.multiply(direction, step, out=self.rows[slot])
        self.rows[slot + 1] = y
        k_new = 2 * self.count
        np.dot(self.rows[:k_new], new_grad, out=self.bg[:k_new])
        # In a full ring entries slot and slot + 1 belong to the evicted pair
        # and are overwritten by the 2x2 block below.
        gram = self.gram
        gram[:k, slot] = gram[slot, :k] = rows_s
        gram[:k, slot + 1] = gram[slot + 1, :k] = self.bg[:k] - bg_old
        gram[slot, slot] = ss
        gram[slot, slot + 1] = gram[slot + 1, slot] = sy
        gram[slot + 1, slot + 1] = yy


def lbfgs_minimize(objective, x0, cfg) -> LbfgsResult:
    """Minimize ``objective`` starting from ``x0``.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector to ``(value, gradient)``.
    x0 : array_like
        Starting point; the objective must be finite here.
    cfg
        Any object with ``lbfgs_history``, ``max_iterations`` and
        ``gradient_tolerance`` attributes (e.g. ``TrainConfig``).

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
    x = np.array(x0, dtype=np.float64)
    fval, grad = objective(x)
    fval = float(fval)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(fval) or not np.all(np.isfinite(grad)):
        raise NumericalError("objective is not finite at the starting point")

    grad_inf = float(np.abs(grad).max()) if grad.size else 0.0
    trace = [LbfgsIterate(0, fval, grad_inf, None)]
    history = _CurvatureHistory(cfg.lbfgs_history, x.size)
    line_search_failed = False
    iteration = 0

    while iteration < cfg.max_iterations and grad_inf > cfg.gradient_tolerance:
        direction = history.direction(grad)
        slope = float(direction @ grad)
        if slope >= 0.0:
            # Stale curvature produced an ascent direction; restart from
            # steepest descent.
            history.clear()
            direction = -grad
            slope = float(direction @ grad)
        initial_step = 1.0
        if history.count == 0 and iteration == 0:
            initial_step = min(1.0, 1.0 / max(1.0, float(np.abs(grad).sum())))

        search = strong_wolfe_line_search(
            objective,
            x,
            fval,
            grad,
            direction,
            initial_step=initial_step,
            slope=slope,
        )
        if not search.success:
            line_search_failed = True
            if search.best_fval < fval and search.best_grad is not None:
                iteration += 1
                x = x + search.best_step * direction
                fval = search.best_fval
                grad = search.best_grad
                grad_inf = float(np.abs(grad).max())
                trace.append(
                    LbfgsIterate(iteration, fval, grad_inf, search.best_step)
                )
            break

        step = search.step
        new_grad = search.grad
        history.update(step, direction, grad, new_grad)

        iteration += 1
        x = x + step * direction
        fval = float(search.fval)
        grad = new_grad
        grad_inf = float(np.abs(grad).max())
        trace.append(LbfgsIterate(iteration, fval, grad_inf, step))

    return LbfgsResult(
        x=x,
        fval=fval,
        grad_inf=grad_inf,
        iterations=iteration,
        converged=grad_inf <= cfg.gradient_tolerance,
        line_search_failed=line_search_failed,
        trace=trace,
    )
