"""Tests for the limited-memory quasi-Newton minimizer and its line search."""

import numpy as np
import pytest
from conftest import two_loop_direction

from connectoml import NumericalError, TrainConfig, lbfgs
from connectoml.lbfgs import (
    WOLFE_C1,
    WOLFE_C2,
    _CurvatureHistory,
    lbfgs_minimize,
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


def euclidean(objective):
    """``objective`` as the line search calls it, with each point's image
    under M = I, the point itself."""
    return lambda x, image: objective(x)


def rosenbrock_chain(z):
    """Chained Rosenbrock function of ``z`` and its gradient."""
    head, tail = z[:-1], z[1:]
    value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
    grad = np.zeros_like(z)
    grad[:-1] += -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    grad[1:] += 200.0 * (tail - head**2)
    return value, grad


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
            dphi0 = float(grad @ direction)
            result = strong_wolfe_line_search(
                euclidean(objective), x, fval, direction, dphi0,
                image=x, direction_image=direction,
            )
            assert result.success
            assert result.fval <= fval + WOLFE_C1 * result.step * dphi0 + 1e-15
            assert abs(float(result.grad @ direction)) <= -WOLFE_C2 * dphi0

    def test_non_descent_direction_fails_cleanly(self):
        objective = quadratic([0.0, 0.0])
        x = np.array([1.0, 1.0])
        fval, grad = objective(x)
        result = strong_wolfe_line_search(
            euclidean(objective), x, fval, grad, float(grad @ grad),
            image=x, direction_image=grad,
        )
        assert not result.success
        assert (result.step, result.fval, result.grad) == (0.0, fval, None)

    def test_failed_search_returns_its_lowest_trial(self):
        # A linear objective never meets the curvature condition: the step
        # doubles on every trial, and the search fails at the last one.
        def objective(x):
            return float(-x[0]), np.array([-1.0])

        x = np.array([0.0])
        direction = np.array([1.0])
        result = strong_wolfe_line_search(
            euclidean(objective), x, 0.0, direction, -1.0,
            image=x, direction_image=direction,
        )
        assert not result.success
        assert result.step == 2.0 ** (lbfgs._MAX_EVALS - 1)
        assert result.fval == -result.step
        assert np.array_equal(result.grad, [-1.0])

    def test_failed_search_without_a_lower_trial_returns_the_start(self):
        def objective(x):
            if x[0] == 1.0:
                return 1.0, np.array([2.0])
            return np.inf, np.array([np.nan])

        x = np.array([1.0])
        direction = np.array([-1.0])
        result = strong_wolfe_line_search(
            euclidean(objective), x, 1.0, direction, -2.0,
            image=x, direction_image=direction,
        )
        assert not result.success
        assert (result.step, result.fval, result.grad) == (0.0, 1.0, None)

    def test_non_finite_trials_shrink_the_step(self):
        def objective(x):
            if abs(x[0]) > 2.0:
                return np.inf, np.array([np.nan])
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        x = np.array([1.5])
        fval, grad = objective(x)
        result = strong_wolfe_line_search(
            euclidean(objective), x, fval, -grad, float(grad @ -grad),
            initial_step=10.0, image=x, direction_image=-grad,
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

    @pytest.mark.parametrize(
        "size, ascent", [(2, False), (100_003, False), (50, True)]
    )
    def test_line_search_receives_the_slope_it_would_compute(
        self, size, ascent, monkeypatch
    ):
        rng = np.random.default_rng(size)
        curvature = rng.uniform(0.5, 2.0, size)

        def objective(x):
            return float(0.5 * x @ (curvature * x)), curvature * x

        slopes = []
        search = lbfgs.strong_wolfe_line_search

        def recording(objective, x, fval, direction, slope, **kwargs):
            grad = objective(x, kwargs["image"])[1]
            slopes.append((slope, float(grad @ direction)))
            return search(objective, x, fval, direction, slope, **kwargs)

        monkeypatch.setattr(lbfgs, "strong_wolfe_line_search", recording)
        if ascent:
            # Every direction is uphill, so every iteration restarts.
            monkeypatch.setattr(
                lbfgs._CurvatureHistory,
                "direction",
                lambda self, g, mg: (g.copy(), mg.copy()),
            )
        cfg = TrainConfig(max_iterations=8, gradient_tolerance=1e-300)
        lbfgs_minimize(objective, rng.normal(size=size), cfg)
        assert len(slopes) >= 2
        assert all(passed == own for passed, own in slopes)

    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_metric_coordinates_take_the_full_space_steps(self, start):
        # F(x) = f(A^T.x), f the Rosenbrock chain, has every gradient in
        # the range of A, so from x0 = A.v0 the full-space iterates are A.v_k
        # for the iterates v_k of the minimizer on v -> F(A.v) with gradient
        # representer grad f(A^T.A.v) under the metric A^T.A.
        rng = np.random.default_rng(start)
        mapping = rng.normal(size=(9, 4))
        gram = mapping.T @ mapping

        def full(x):
            value, grad = rosenbrock_chain(mapping.T @ x)
            return value, mapping @ grad

        def in_coordinates(v, image):
            # The image of v is A^T.A.v, the point f is evaluated at.
            return rosenbrock_chain(image)

        v0 = 0.1 * rng.normal(size=4)
        cfg = TrainConfig(max_iterations=30, gradient_tolerance=1e-300)
        expected = lbfgs_minimize(full, mapping @ v0, cfg)
        got = lbfgs_minimize(
            in_coordinates,
            v0,
            cfg,
            norm=lambda g, order: lbfgs.gradient_norm(mapping @ g, order),
            metric=lambda v: gram @ v,
        )
        assert got.iterations == expected.iterations == 30
        for ours, theirs in zip(got.trace, expected.trace):
            assert ours.fval == pytest.approx(theirs.fval, rel=1e-9, abs=1e-12)
            assert ours.step == pytest.approx(theirs.step, rel=1e-9)
        np.testing.assert_allclose(mapping @ got.x, expected.x, rtol=1e-8)

    def test_carried_images_stay_the_metric_images(self):
        # The minimizer never applies the metric to a point: each image is
        # carried along the steps. Over 200 iterations of a 30-link
        # Rosenbrock chain in mapped coordinates, every image the objective
        # receives must still be metric(x) to 1e-12 relative.
        rng = np.random.default_rng(0)
        mapping = rng.normal(size=(63, 30))
        gram = mapping.T @ mapping
        calls = []

        def in_coordinates(v, image):
            exact = gram @ v
            error = np.linalg.norm(image - exact)
            assert error <= 1e-12 * np.linalg.norm(exact)
            calls.append(1)
            return rosenbrock_chain(image)

        v0 = np.linalg.solve(gram, np.tile([-1.2, 1.0], 15))
        cfg = TrainConfig(max_iterations=200, gradient_tolerance=1e-300)
        result = lbfgs_minimize(
            in_coordinates,
            v0,
            cfg,
            norm=lambda g, order: lbfgs.gradient_norm(mapping @ g, order),
            metric=lambda v: gram @ v,
        )
        assert result.iterations == 200
        assert len(calls) > 200

    def test_identity_metric_takes_the_euclidean_steps_bit_for_bit(self):
        cfg = TrainConfig(max_iterations=40, gradient_tolerance=1e-12)
        plain = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        images = []

        def identity(v):
            images.append(1)
            return v.copy()

        metric = lbfgs_minimize(
            euclidean(rosenbrock), np.array([-1.2, 1.0]), cfg, metric=identity
        )
        assert np.array_equal(plain.x, metric.x)
        assert [it.fval for it in plain.trace] == [
            it.fval for it in metric.trace
        ]
        assert len(images) >= metric.iterations


def drive_history(
    size, depth, n_steps, seed, reject_at=(), restart_at=(), mapping=None
):
    """Feed a history the call sequence of ``lbfgs_minimize`` and yield each
    (pairs held, pairs accepted since the last clear, direction, two-loop
    oracle direction on the same pairs).

    Accepted pairs have y = C s + noise with C diagonal in [0.5, 2] and
    |noise| <= 0.1 |s|, so s.y > 0.4 |s|^2. Steps in ``reject_at`` get
    y = -c s, which the curvature guard must refuse; steps in ``restart_at``
    take the ascent-restart path.

    With an injective ``mapping`` A the history works under the metric
    M = A^T.A: accepted pairs have M.y = C s + noise instead, and the
    direction yielded is A.direction, the oracle's that of the A-mapped
    gradients and pairs. The history's image of each direction must be
    M.direction; without a mapping it must equal the direction itself.
    """
    rng = np.random.default_rng(seed)
    curvature = rng.uniform(0.5, 2.0, size)
    history = _CurvatureHistory(depth)
    metric = None if mapping is None else mapping.T @ mapping

    def image(v):
        return v if mapping is None else mapping @ v

    def metric_image(v):
        return v if metric is None else metric @ v

    s_list, y_list, rho_list = [], [], []
    accepted = 0
    grad = rng.normal(size=size)
    for k in range(n_steps):
        direction, mdirection = history.direction(grad, metric_image(grad))
        if metric is None:
            assert np.array_equal(mdirection, direction)
        else:
            expected_image = metric @ direction
            error = np.linalg.norm(mdirection - expected_image)
            assert error <= 1e-12 * np.linalg.norm(expected_image)
        yield (
            len(history.pairs),
            accepted,
            image(direction),
            two_loop_direction(image(grad), s_list, y_list, rho_list),
        )
        if k in restart_at:
            history.clear()
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            accepted = 0
            direction = -grad
            mdirection = metric_image(direction)
        step = rng.uniform(0.2, 1.5)
        s = step * direction
        if k in reject_at:
            y = -rng.uniform(0.1, 1.0) * s
        else:
            bound = 0.1 * np.linalg.norm(s) / np.sqrt(size)
            y = curvature * s + rng.uniform(-bound, bound, size)
            if metric is not None:
                y = np.linalg.solve(metric, y)
        new_grad = grad + y
        history.update(
            step, direction, mdirection, grad, new_grad,
            metric_image(grad), metric_image(new_grad),
        )
        if k not in reject_at:
            accepted += 1
            s, y = image(s), image(new_grad - grad)
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / float(s @ y))
            if len(s_list) > depth:
                del s_list[0], y_list[0], rho_list[0]
        assert len(history.pairs) == len(s_list)
        grad = new_grad


def assert_directions_match_the_oracle(size, depth, mapping=None):
    n_steps = 3 * depth + 4
    states = set()
    for count, accepted, direction, expected in drive_history(
        size,
        depth,
        n_steps,
        seed=size + depth,
        reject_at={2, depth + 2},
        restart_at={2 * depth + 2},
        mapping=mapping,
    ):
        states.add((count < depth, accepted > depth))
        if count == 0:
            np.testing.assert_array_equal(direction, expected)
        error = np.linalg.norm(direction - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)
    # Filling ring, ring just full, ring wrapped past its depth.
    assert states >= {(True, False), (False, False), (False, True)}


class TestCurvatureHistory:
    @pytest.mark.parametrize("size", [1, 50, 100_003])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_direction_matches_two_loop_oracle(self, size, depth):
        assert_directions_match_the_oracle(size, depth)

    @pytest.mark.parametrize("size", [1, 50])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_direction_under_a_metric_matches_the_mapped_oracle(
        self, size, depth
    ):
        # A tall Gaussian A is injective; M = A^T.A is far from the
        # identity, so a Euclidean inner product anywhere would show.
        mapping = np.random.default_rng(size * depth).normal(
            size=(2 * size + 3, size)
        )
        assert_directions_match_the_oracle(size, depth, mapping)


class TestGradientNorm:
    @pytest.mark.parametrize(
        "grad",
        [
            [3.0, -7.5, 2.0],
            [-1e-300, 5e-324, -0.0],
            [-0.0, -0.0],
            [0.0, -0.0, 0.0],
            [np.inf, -1.0],
            [1.0, -np.inf],
            [1.0, np.nan, -2.0],
            [-np.nan, 4.0],
            [[-2.5, 1.0], [0.5, 2.25]],
            [],
        ],
    )
    def test_infinity_norm_is_the_largest_magnitude_bit_for_bit(self, grad):
        grad = np.asarray(grad, dtype=np.float64)
        # initial=0.0 gives the empty gradient its norm, 0.0.
        expected = np.abs(grad).max(initial=0.0)
        value = lbfgs.gradient_norm(grad, np.inf)
        assert type(value) is float
        assert np.float64(value).tobytes() == expected.tobytes()

    def test_l1_norm_is_the_sum_of_magnitudes(self):
        grad = np.array([3.0, -7.5, -0.0, 2.0])
        assert lbfgs.gradient_norm(grad, 1) == 12.5
        assert lbfgs.gradient_norm(np.zeros(0), 1) == 0.0
