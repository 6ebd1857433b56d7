"""Tests for the limited-memory quasi-Newton minimizer and its line search."""

import numpy as np
import pytest
from conftest import two_loop_direction

from connectoml import NumericalError, TrainConfig, lbfgs_minimize
from connectoml.lbfgs import (
    WOLFE_C1,
    WOLFE_C2,
    _CurvatureHistory,
    strong_wolfe_line_search,
)


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


def quadratic(center):
    center = np.asarray(center, dtype=np.float64)

    def objective(x):
        diff = x - center
        return float(diff @ diff), 2.0 * diff

    return objective


class TestLineSearch:
    def test_wolfe_conditions_hold_on_random_problems(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            a_matrix = rng.normal(size=(dim, dim))
            h_matrix = a_matrix @ a_matrix.T + 0.1 * np.eye(dim)
            shift = rng.normal(size=dim)

            def objective(x):
                return (
                    float(0.5 * x @ h_matrix @ x + shift @ x + np.sin(x).sum()),
                    h_matrix @ x + shift + np.cos(x),
                )

            x = rng.normal(size=dim) * 2
            fval, grad = objective(x)
            direction = -grad
            if float(grad @ direction) >= 0:
                continue
            result = strong_wolfe_line_search(
                objective, x, fval, grad, direction
            )
            assert result.success
            dphi0 = float(grad @ direction)
            assert result.fval <= fval + WOLFE_C1 * result.step * dphi0 + 1e-15
            assert abs(float(result.grad @ direction)) <= -WOLFE_C2 * dphi0

    def test_non_descent_direction_fails_cleanly(self):
        objective = quadratic([0.0, 0.0])
        x = np.array([1.0, 1.0])
        fval, grad = objective(x)
        result = strong_wolfe_line_search(objective, x, fval, grad, grad)
        assert not result.success

    def test_non_finite_trials_shrink_the_step(self):
        def objective(x):
            if abs(x[0]) > 2.0:
                return np.inf, np.array([np.nan])
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        x = np.array([1.5])
        fval, grad = objective(x)
        result = strong_wolfe_line_search(
            objective, x, fval, grad, -grad, initial_step=10.0
        )
        assert result.success
        assert abs(x[0] - result.step * grad[0]) <= 2.0


class TestLbfgs:
    def test_converges_to_center_of_quadratic(self):
        rng = np.random.default_rng(2)
        cfg = TrainConfig(max_iterations=20, gradient_tolerance=1e-8)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            center = rng.normal(size=dim) * 3
            result = lbfgs_minimize(
                quadratic(center), rng.normal(size=dim) * 5, cfg
            )
            assert result.converged
            assert result.iterations <= 20
            np.testing.assert_allclose(result.x, center, atol=1e-8)

    def test_rosenbrock_reaches_global_minimum(self):
        cfg = TrainConfig(max_iterations=200, gradient_tolerance=1e-10)
        result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-6)
        assert result.converged

    def test_stationary_start_terminates_immediately(self):
        center = np.array([1.0, -2.0, 0.5])
        cfg = TrainConfig(max_iterations=50, gradient_tolerance=1e-8)
        result = lbfgs_minimize(quadratic(center), center.copy(), cfg)
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.x, center)

    def test_accepted_iterates_never_increase_objective(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(max_iterations=100, gradient_tolerance=1e-9)
        for _ in range(10):
            dim = int(rng.integers(2, 10))
            a_matrix = rng.normal(size=(dim, dim))
            h_matrix = a_matrix @ a_matrix.T + np.eye(dim)

            def objective(x):
                return float(0.5 * x @ h_matrix @ x), h_matrix @ x

            result = lbfgs_minimize(objective, rng.normal(size=dim) * 4, cfg)
            fvals = [it.fval for it in result.trace]
            assert all(b <= a for a, b in zip(fvals, fvals[1:]))

    def test_trace_records_every_accepted_iterate(self):
        cfg = TrainConfig(max_iterations=50, gradient_tolerance=1e-8)
        result = lbfgs_minimize(
            quadratic([2.0, 2.0]), np.array([0.0, 0.0]), cfg
        )
        assert len(result.trace) == result.iterations + 1
        assert result.trace[0].step is None
        assert result.trace[-1].fval == result.fval

    def test_max_iterations_respected(self):
        cfg = TrainConfig(max_iterations=3, gradient_tolerance=1e-16)
        result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert result.iterations == 3
        assert not result.converged

    def test_non_finite_start_raises(self):
        def objective(x):
            return np.inf, x

        cfg = TrainConfig()
        with pytest.raises(NumericalError, match="not finite"):
            lbfgs_minimize(objective, np.array([1.0]), cfg)

    def test_line_search_failure_is_flagged_and_returns_best_iterate(self):
        # |x| has no Wolfe point near the kink: the curvature condition
        # cannot be met once iterates straddle zero.
        def objective(x):
            return float(np.abs(x).sum()), np.sign(x)

        cfg = TrainConfig(max_iterations=100, gradient_tolerance=1e-12)
        result = lbfgs_minimize(objective, np.array([0.4]), cfg)
        assert result.line_search_failed
        fvals = [it.fval for it in result.trace]
        assert all(b <= a for a, b in zip(fvals, fvals[1:]))
        assert result.fval == fvals[-1]

    def test_deterministic(self):
        cfg = TrainConfig(max_iterations=60, gradient_tolerance=1e-9)
        first = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        second = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert np.array_equal(first.x, second.x)
        assert first.fval == second.fval


def drive_history(size, depth, n_steps, seed, reject_at=(), restart_at=()):
    """Feed a history the call sequence of ``lbfgs_minimize`` and yield each
    (pairs held, pairs accepted since the last clear, direction, two-loop
    oracle direction on the same pairs).

    Accepted pairs have y = C s + noise with C diagonal in [0.5, 2] and
    |noise| <= 0.1 |s|, so s.y > 0.4 |s|^2. Steps in ``reject_at`` get
    y = -c s, which the curvature guard must refuse; steps in ``restart_at``
    take the ascent-restart path. Every array of the history starts as NaN,
    so reading a row, Gram entry or inner product never written shows up.
    """
    rng = np.random.default_rng(seed)
    curvature = rng.uniform(0.5, 2.0, size)
    history = _CurvatureHistory(depth, size)
    for array in (history.rows, history.gram, history.bg):
        array.fill(np.nan)
    s_list, y_list, rho_list = [], [], []
    accepted = 0
    grad = rng.normal(size=size)
    for k in range(n_steps):
        direction = history.direction(grad)
        yield history.count, accepted, direction, two_loop_direction(
            grad, s_list, y_list, rho_list
        )
        if k in restart_at:
            history.clear()
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            accepted = 0
            direction = -grad
        step = rng.uniform(0.2, 1.5)
        s = step * direction
        if k in reject_at:
            y = -rng.uniform(0.1, 1.0) * s
        else:
            bound = 0.1 * np.linalg.norm(s) / np.sqrt(size)
            y = curvature * s + rng.uniform(-bound, bound, size)
        new_grad = grad + y
        history.update(step, direction, grad, new_grad)
        if k not in reject_at:
            accepted += 1
            y = new_grad - grad
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / float(s @ y))
            if len(s_list) > depth:
                del s_list[0], y_list[0], rho_list[0]
        assert history.count == len(s_list)
        grad = new_grad


class TestCurvatureHistory:
    @pytest.mark.parametrize("size", [1, 50, 100_003])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_direction_matches_two_loop_oracle(self, size, depth):
        n_steps = 3 * depth + 4
        states = set()
        for count, accepted, direction, expected in drive_history(
            size,
            depth,
            n_steps,
            seed=size + depth,
            reject_at={2, depth + 2},
            restart_at={2 * depth + 2},
        ):
            states.add((count < depth, accepted > depth))
            if count == 0:
                np.testing.assert_array_equal(direction, expected)
            error = np.linalg.norm(direction - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)
        # Filling ring, ring just full, ring wrapped past its depth.
        assert states >= {(True, False), (False, False), (False, True)}
