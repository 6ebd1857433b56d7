"""Tests for the MLP: initialization, forward pass, loss, gradient, training."""

import math

import numpy as np
import pytest
from conftest import train_classifier_reference

from connectoml import (
    TrainConfig,
    ValidationError,
    fit_normalizer,
    forward,
    init_parameters,
    loss_and_gradient,
    predict_proba,
    train_classifier,
)
import connectoml.neuralnet as neuralnet
from connectoml.neuralnet import (
    HIDDEN_UNITS,
    MlpParameters,
    _forward_pass,
    flatten_parameters,
    unflatten_parameters,
)


def concatenated_gradient(params, xs, ys, l2_alpha):
    """Backward pass with one temporary per layer gradient, joined at the end
    by np.concatenate."""
    n = xs.shape[0]
    w1, w2, w3 = params.layer_weights
    z1, a1, z2, a2, prob = _forward_pass(params, xs)
    dz3 = ((prob - ys) / n)[:, None]
    grad_w3 = a2.T @ dz3 + 2.0 * l2_alpha * w3
    grad_b3 = dz3.sum(axis=0)
    dz2 = (dz3 @ w3.T) * (z2 > 0)
    grad_w2 = a1.T @ dz2 + 2.0 * l2_alpha * w2
    grad_b2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2.T) * (z1 > 0)
    grad_w1 = xs.T @ dz1 + 2.0 * l2_alpha * w1
    grad_b1 = dz1.sum(axis=0)
    return np.concatenate(
        [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2,
         grad_w3.ravel(), grad_b3]
    )


def zero_parameters(input_dim):
    shapes = ((input_dim, HIDDEN_UNITS), (HIDDEN_UNITS, HIDDEN_UNITS),
              (HIDDEN_UNITS, 1))
    return MlpParameters(
        tuple(np.zeros(s) for s in shapes),
        tuple(np.zeros(s[1]) for s in shapes),
    )


def reference_loss(params, xs, ys, l2_alpha):
    """Independent per-sample re-implementation of the objective."""
    total = 0.0
    for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
        h1 = np.maximum(x @ params.layer_weights[0] + params.layer_biases[0], 0)
        h2 = np.maximum(h1 @ params.layer_weights[1] + params.layer_biases[1], 0)
        z = float(h2 @ params.layer_weights[2][:, 0] + params.layer_biases[2][0])
        p = 1.0 / (1.0 + math.exp(-z))
        p = min(max(p, 1e-12), 1 - 1e-12)
        total += y * math.log(p) + (1 - y) * math.log(1 - p)
    penalty = l2_alpha * sum(float((w**2).sum()) for w in params.layer_weights)
    return -total / len(ys) + penalty


def _activation_pattern(params, xs):
    x = np.asarray(xs, float)
    z1 = x @ params.layer_weights[0] + params.layer_biases[0]
    a1 = np.maximum(z1, 0)
    z2 = a1 @ params.layer_weights[1] + params.layer_biases[1]
    return (z1 > 0).tobytes() + (z2 > 0).tobytes()


def finite_difference_gradient(params, xs, ys, l2_alpha, indices, step=1e-6):
    """Central differences per coordinate.

    Coordinates whose perturbation flips a ReLU activation inside the step
    interval are skipped: across a kink the secant is not a derivative
    estimate, so comparing it against backprop would be meaningless.
    """
    theta = flatten_parameters(params)
    input_dim = params.input_dim
    out = {}
    for i in indices:
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        params_plus = unflatten_parameters(plus, input_dim)
        params_minus = unflatten_parameters(minus, input_dim)
        if _activation_pattern(params_plus, xs) != _activation_pattern(
            params_minus, xs
        ):
            continue
        f_plus = loss_and_gradient(params_plus, xs, ys, l2_alpha)[0]
        f_minus = loss_and_gradient(params_minus, xs, ys, l2_alpha)[0]
        out[i] = (f_plus - f_minus) / (2 * step)
    return out


def assert_gradient_matches(
    params, xs, ys, l2_alpha, indices, tol=1e-5, noise_floor=1e-7
):
    """Central differences at step 1e-6 carry an absolute noise floor of
    roughly eps(loss evaluation) / step, around 1e-8 here. Above that floor
    the comparison is relative at ``tol``; below it only agreement within
    the floor itself is meaningful."""
    analytic = loss_and_gradient(params, xs, ys, l2_alpha)[1]
    numeric = finite_difference_gradient(params, xs, ys, l2_alpha, indices)
    assert numeric, "every sampled coordinate straddled a kink"
    for i, fd in numeric.items():
        scale = max(abs(fd), abs(analytic[i]))
        if scale >= noise_floor / tol:
            assert abs(analytic[i] - fd) / scale <= tol, f"coordinate {i}"
        else:
            assert abs(analytic[i] - fd) <= noise_floor, f"coordinate {i}"


class TestInitParameters:
    def test_shapes_and_zero_biases(self):
        params = init_parameters(4, seed=0)
        assert [w.shape for w in params.layer_weights] == [
            (4, 32), (32, 32), (32, 1)
        ]
        assert all(np.all(b == 0) for b in params.layer_biases)
        assert params.input_dim == 4

    def test_deterministic_per_seed(self):
        first = init_parameters(10, seed=7)
        second = init_parameters(10, seed=7)
        for a, b in zip(first.layer_weights, second.layer_weights):
            assert np.array_equal(a, b)
        different = init_parameters(10, seed=8)
        assert not np.array_equal(
            first.layer_weights[0], different.layer_weights[0]
        )

    def test_weights_within_fan_scaled_bound_and_near_zero_mean(self):
        params = init_parameters(300, seed=1)
        w = params.layer_weights[0]  # 300 * 32 = 9600 draws
        bound = np.sqrt(6.0 / (300 + 32))
        assert np.all(np.abs(w) <= bound)
        assert abs(w.mean()) < bound / 20

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValidationError):
            init_parameters(0, seed=0)


class TestForward:
    def test_zero_parameters_give_half(self):
        params = zero_parameters(3)
        assert np.array_equal(
            forward(params, np.array([[5.0, -2.0, 0.1], [0.0, 1.0, 9.0]])),
            [0.5, 0.5],
        )

    def test_hand_computed_single_unit_path(self):
        # Only one unit per layer carries signal; the rest stay at zero.
        params = zero_parameters(1)
        params.layer_weights[0][0, 0] = 2.0
        params.layer_weights[1][0, 0] = -1.5
        params.layer_weights[2][0, 0] = 3.0
        params.layer_biases[0][0] = 0.5
        params.layer_biases[1][0] = 4.0
        params.layer_biases[2][0] = -1.0
        inputs = (1.25, -3.0)
        expected = []
        for x in inputs:
            h1 = max(2.0 * x + 0.5, 0.0)
            h2 = max(-1.5 * h1 + 4.0, 0.0)
            z = 3.0 * h2 - 1.0
            expected.append(1.0 / (1.0 + math.exp(-z)))
        np.testing.assert_allclose(
            forward(params, np.array(inputs)[:, None]), expected, rtol=1e-14
        )

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        params = init_parameters(8, seed=3)
        p = forward(params, rng.normal(size=(20, 8)) * 100)
        assert p.shape == (20,)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_dimension_mismatch_rejected(self):
        params = init_parameters(4, seed=0)
        with pytest.raises(ValidationError, match="features"):
            forward(params, np.zeros((2, 5)))
        # One feature row must still come as a (1, input_dim) batch.
        with pytest.raises(ValidationError, match="features"):
            forward(params, np.zeros(4))


class TestLoss:
    def test_single_sample_at_half_is_log_two(self):
        params = zero_parameters(2)
        value = loss_and_gradient(
            params, np.array([[1.0, 2.0]]), np.array([1.0]), 0.0
        )[0]
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_correct_predictions_give_tiny_loss(self):
        params = zero_parameters(1)
        # Positive input drives the logit strongly positive; zero input
        # leaves only the strongly negative output bias.
        params.layer_weights[0][0, 0] = 50.0
        params.layer_weights[1][0, 0] = 10.0
        params.layer_weights[2][0, 0] = 1.0
        params.layer_biases[2][0] = -100.0
        xs = np.array([[1.0], [0.0]])
        ys = np.array([1.0, 0.0])
        assert loss_and_gradient(params, xs, ys, 0.0)[0] <= 1e-10

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            params = init_parameters(d, seed=int(rng.integers(100)))
            xs = rng.normal(size=(int(rng.integers(1, 9)), d))
            ys = (rng.random(xs.shape[0]) < 0.5).astype(float)
            alpha = float(rng.uniform(0, 0.01))
            np.testing.assert_allclose(
                loss_and_gradient(params, xs, ys, alpha)[0],
                reference_loss(params, xs, ys, alpha),
                rtol=1e-12,
            )

    def test_l2_penalty_strictly_increases_loss(self):
        params = init_parameters(3, seed=4)
        xs = np.array([[0.2, 0.4, 0.6], [0.9, 0.1, 0.5]])
        ys = np.array([0.0, 1.0])
        assert (
            loss_and_gradient(params, xs, ys, 1e-3)[0]
            > loss_and_gradient(params, xs, ys, 0.0)[0]
        )


class TestGradient:
    def test_matches_finite_differences_at_random_points(self):
        rng = np.random.default_rng(12)
        for d in (4, 128):
            xs = rng.normal(size=(16, d))
            ys = (rng.random(16) < 0.5).astype(float)
            for point in range(5):
                params = init_parameters(d, seed=point)
                theta = flatten_parameters(params)
                theta = theta + rng.normal(0, 0.2, theta.size)
                params = unflatten_parameters(theta, d)
                indices = rng.choice(theta.size, 40, replace=False)
                assert_gradient_matches(params, xs, ys, 1e-4, indices)

    def test_output_bias_derivative_closed_form(self):
        params = zero_parameters(2)
        xs = np.array([[3.0, -1.0]])
        ys = np.array([1.0])
        grad = loss_and_gradient(params, xs, ys, 0.0)[1]
        # Last flattened coordinate is the output bias: (h - y) / N.
        assert grad[-1] == pytest.approx(-0.5, rel=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        params = init_parameters(5, seed=2)
        xs = rng.normal(size=(8, 5))
        ys = (rng.random(8) < 0.5).astype(float)
        first = loss_and_gradient(params, xs, ys, 1e-4)[1]
        second = loss_and_gradient(params, xs, ys, 1e-4)[1]
        assert np.array_equal(first, second)

    def test_bit_identical_to_concatenated_layer_gradients(self):
        rng = np.random.default_rng(14)
        for d, n, l2_alpha in ((1, 3, 0.0), (7, 40, 1e-4), (300, 105, 1e-2)):
            xs = rng.random(size=(n, d))
            ys = (rng.random(n) < 0.5).astype(float)
            params = init_parameters(d, seed=d)
            theta = flatten_parameters(params)
            theta = theta + rng.normal(0, 0.2, theta.size)
            params = unflatten_parameters(theta, d)
            grad = loss_and_gradient(params, xs, ys, l2_alpha)[1]
            assert np.array_equal(
                grad, concatenated_gradient(params, xs, ys, l2_alpha)
            )

    def test_flatten_unflatten_roundtrip(self):
        params = init_parameters(6, seed=5)
        theta = flatten_parameters(params)
        rebuilt = unflatten_parameters(theta, 6)
        for a, b in zip(params.layer_weights, rebuilt.layer_weights):
            assert np.array_equal(a, b)
        for a, b in zip(params.layer_biases, rebuilt.layer_biases):
            assert np.array_equal(a, b)
        with pytest.raises(ValidationError):
            unflatten_parameters(theta[:-1], 6)


class TestNormalizer:
    def test_affine_map_to_unit_interval(self):
        norm = fit_normalizer(np.array([[2.0], [4.0], [6.0]]))
        out = norm.transform(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_degenerate_column_maps_to_zero(self):
        norm = fit_normalizer(np.array([[3.0], [3.0], [3.0]]))
        out = norm.transform(np.array([[3.0], [7.0], [-1.0]]))
        assert np.array_equal(out[:, 0], [0.0, 0.0, 0.0])

    def test_out_of_range_values_clipped(self):
        norm = fit_normalizer(np.array([[0.0], [10.0]]))
        out = norm.transform(np.array([[20.0], [-5.0]]))
        assert np.array_equal(out[:, 0], [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            fit_normalizer(np.zeros((0, 3)))


class TestTrainClassifier:
    def test_separable_blobs_reach_high_training_accuracy(self):
        rng = np.random.default_rng(14)
        xs = np.vstack(
            [rng.normal(0.0, 0.5, (50, 2)), rng.normal(3.0, 0.5, (50, 2))]
        )
        ys = np.concatenate([np.zeros(50), np.ones(50)])
        model = train_classifier(xs, ys, TrainConfig(seed=1))
        accuracy = ((predict_proba(model, xs) >= 0.5) == ys).mean()
        assert accuracy >= 0.95

    def test_deterministic_per_data_and_config(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(30, 3))
        ys = (xs[:, 0] > 0).astype(float)
        cfg = TrainConfig(seed=9, max_iterations=40)
        first = train_classifier(xs, ys, cfg)
        second = train_classifier(xs, ys, cfg)
        for a, b in zip(
            first.parameters.layer_weights, second.parameters.layer_weights
        ):
            assert np.array_equal(a, b)
        for a, b in zip(
            first.parameters.layer_biases, second.parameters.layer_biases
        ):
            assert np.array_equal(a, b)

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(40, 4))
        ys = (rng.random(40) < 0.5).astype(float)
        cfg = TrainConfig(seed=3, max_iterations=30)
        model = train_classifier(xs, ys, cfg)
        norm = model.normalizer
        initial = loss_and_gradient(
            init_parameters(4, cfg.seed), norm.transform(xs), ys, cfg.l2_alpha
        )[0]
        final = loss_and_gradient(
            model.parameters, norm.transform(xs), ys, cfg.l2_alpha
        )[0]
        assert final <= initial

    def test_single_class_rejected(self):
        xs = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValidationError, match="single class"):
            train_classifier(xs, np.zeros(10), TrainConfig())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            train_classifier(np.zeros((0, 2)), np.zeros(0), TrainConfig())

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValidationError, match="binary"):
            train_classifier(
                np.zeros((2, 2)), np.array([0.5, 1.0]), TrainConfig()
            )

    def test_data_checked_once_per_fit(self, monkeypatch):
        # The objective trusts the data train_classifier checked: however
        # many evaluations the optimizer makes, the check runs once.
        checks = []
        evaluations = []
        check = neuralnet._validate_dataset
        objective = neuralnet.loss_and_gradient

        def counting_check(*args):
            checks.append(1)
            return check(*args)

        def counting_objective(*args):
            evaluations.append(1)
            return objective(*args)

        monkeypatch.setattr(neuralnet, "_validate_dataset", counting_check)
        monkeypatch.setattr(neuralnet, "loss_and_gradient", counting_objective)
        rng = np.random.default_rng(22)
        xs = rng.normal(size=(30, 3))
        ys = (xs[:, 0] > 0).astype(float)
        train_classifier(xs, ys, TrainConfig(seed=1, max_iterations=10))
        assert len(evaluations) >= 5
        assert len(checks) == 1

    def test_normalizer_fitted_on_training_rows_only(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(25, 3))
        ys = (rng.random(25) < 0.5).astype(float)
        model = train_classifier(xs, ys, TrainConfig(max_iterations=5))
        assert np.array_equal(model.normalizer.minimum, xs.min(axis=0))
        assert np.array_equal(model.normalizer.maximum, xs.max(axis=0))


def row_space_problem(
    n, d, seed, duplicate_rows=0, constant_columns=0, n_test=30
):
    """Seeded (train x, train y, test x) with a class signal in a fifth of
    the columns; optionally the last training rows repeat the first ones
    (with their labels) and the first columns are constant."""
    rng = np.random.default_rng(seed)
    ys = (np.arange(n + n_test) % 2).astype(float)
    xs = rng.normal(size=(n + n_test, d))
    xs += 0.8 * ys[:, None] * (rng.random(d) < 0.2)
    if duplicate_rows:
        xs[n - duplicate_rows : n] = xs[:duplicate_rows]
        ys[n - duplicate_rows : n] = ys[:duplicate_rows]
    xs[:, :constant_columns] = 3.0
    return xs[:n], ys[:n], xs[n:]


ROW_SPACE_PROBLEMS = {
    "d_much_larger_than_n": dict(n=24, d=400),
    "d_slightly_larger_than_n": dict(n=24, d=30),
    "duplicate_rows": dict(n=24, d=200, duplicate_rows=4),
    "constant_columns": dict(n=24, d=200, constant_columns=50),
    "d_at_most_n": dict(n=40, d=10),
}


def fit_with_outcome(monkeypatch, xs, ys, cfg):
    """train_classifier's model and the LbfgsResult it was built from."""
    outcomes = []
    minimize = neuralnet.lbfgs_minimize

    def recording_minimize(*args, **kwargs):
        outcomes.append(minimize(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(neuralnet, "lbfgs_minimize", recording_minimize)
    model = train_classifier(xs, ys, cfg)
    (outcome,) = outcomes
    return model, outcome


class TestRowSpaceFit:
    """The fit in kernel coordinates against the full-space oracle."""

    @pytest.mark.parametrize(
        "problem", ROW_SPACE_PROBLEMS.values(), ids=ROW_SPACE_PROBLEMS.keys()
    )
    def test_probabilities_match_the_full_space_fit(self, problem):
        # Both fits take the same steps up to rounding. Nonconvex
        # trajectories amplify rounding differences: on these problems the
        # test probabilities differ by about 1e-10 after 25 iterations,
        # 1e-7 after 40 and 1e-3 after 60. So the fits stop at 25.
        xs, ys, test = row_space_problem(seed=5, **problem)
        cfg = TrainConfig(seed=3, max_iterations=25)
        reference, _ = train_classifier_reference(xs, ys, cfg)
        expected = predict_proba(reference, test)
        got = predict_proba(train_classifier(xs, ys, cfg), test)
        if xs.shape[1] <= xs.shape[0]:
            # When d <= n the fit is the full-space fit itself.
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("max_iterations", [15, 200])
    @pytest.mark.parametrize(
        "problem", ROW_SPACE_PROBLEMS.values(), ids=ROW_SPACE_PROBLEMS.keys()
    )
    def test_converged_exactly_when_the_full_gradient_is_small(
        self, monkeypatch, problem, max_iterations
    ):
        xs, ys, _ = row_space_problem(seed=6, **problem)
        cfg = TrainConfig(seed=4, max_iterations=max_iterations)
        model, outcome = fit_with_outcome(monkeypatch, xs, ys, cfg)
        full = loss_and_gradient(
            model.parameters, model.normalizer.transform(xs), ys, cfg.l2_alpha
        )[1]
        full_inf = np.abs(full).max()
        assert outcome.converged == (full_inf <= cfg.gradient_tolerance)
        if outcome.converged:
            np.testing.assert_allclose(outcome.grad_inf, full_inf, rtol=1e-6)
        else:
            assert outcome.iterations == max_iterations
        if max_iterations == 200 and problem["d"] > problem["n"]:
            # The kernel-coordinate fits do converge, so both sides are
            # exercised.
            assert outcome.converged

    @pytest.mark.parametrize(
        "problem", ROW_SPACE_PROBLEMS.values(), ids=ROW_SPACE_PROBLEMS.keys()
    )
    def test_metric_is_the_full_space_inner_product(self, problem):
        # Repeated rows make x.x^T singular and constant columns normalize
        # to zero; the metric needs neither to be invertible.
        xs, ys, _ = row_space_problem(seed=7, **problem)
        x = fit_normalizer(xs).transform(xs)
        init = init_parameters(x.shape[1], 0)
        coords = neuralnet._KernelCoordinates(x, init.layer_weights[0])
        start = coords.start(init)
        assert np.array_equal(coords.lift(start), flatten_parameters(init))
        rng = np.random.default_rng(x.size)
        for _ in range(3):
            u, v = rng.normal(size=(2, start.size))
            lifted_u, lifted_v = coords.lift(u), coords.lift(v)
            scale = np.linalg.norm(lifted_u) * np.linalg.norm(lifted_v)
            expected = float(lifted_u @ lifted_v)
            assert abs(u @ coords.metric(v) - expected) <= 1e-12 * scale
            assert abs(v @ coords.metric(u) - expected) <= 1e-12 * scale
            np.testing.assert_array_equal(
                coords.metric(u)[coords.split : -1], u[coords.split : -1]
            )

    @pytest.mark.parametrize(
        "problem", ROW_SPACE_PROBLEMS.values(), ids=ROW_SPACE_PROBLEMS.keys()
    )
    def test_objective_is_the_full_space_objective(self, problem):
        xs, ys, _ = row_space_problem(seed=8, **problem)
        x = fit_normalizer(xs).transform(xs)
        d = x.shape[1]
        init = init_parameters(d, 1)
        coords = neuralnet._KernelCoordinates(x, init.layer_weights[0])
        rng = np.random.default_rng(d)
        theta = coords.start(init)
        for point in range(3):
            value, grad = coords.loss_and_gradient(theta, ys, 1e-2)
            full_value, full_grad = loss_and_gradient(
                unflatten_parameters(coords.lift(theta), d), x, ys, 1e-2
            )
            assert value == pytest.approx(full_value, rel=1e-12)
            np.testing.assert_allclose(
                coords.lift(grad),
                full_grad,
                rtol=0,
                atol=1e-12 * np.abs(full_grad).max(),
            )
            theta = theta + rng.normal(0, 0.05, theta.size)


class TestPredictProba:
    def test_composition_with_normalizer(self):
        rng = np.random.default_rng(18)
        xs = rng.normal(size=(20, 3)) * 10
        ys = (rng.random(20) < 0.5).astype(float)
        model = train_classifier(xs, ys, TrainConfig(max_iterations=10))
        x = xs[4:7]
        expected = forward(model.parameters, model.normalizer.transform(x))
        assert np.array_equal(predict_proba(model, x), expected)

    def test_batch_equals_per_sample_loop(self):
        rng = np.random.default_rng(19)
        xs = rng.normal(size=(15, 4))
        ys = (rng.random(15) < 0.5).astype(float)
        model = train_classifier(xs, ys, TrainConfig(max_iterations=10))
        batch = predict_proba(model, xs)
        singles = np.concatenate(
            [predict_proba(model, xs[i : i + 1]) for i in range(len(xs))]
        )
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(20)
        xs = rng.normal(size=(12, 2))
        ys = (rng.random(12) < 0.5).astype(float)
        model = train_classifier(xs, ys, TrainConfig(max_iterations=10))
        probs = predict_proba(model, rng.normal(size=(50, 2)) * 100)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        xs = rng.normal(size=(10, 3))
        ys = (rng.random(10) < 0.5).astype(float)
        model = train_classifier(xs, ys, TrainConfig(max_iterations=5))
        with pytest.raises(ValidationError, match="features"):
            predict_proba(model, np.zeros((1, 4)))
        with pytest.raises(ValidationError, match="features"):
            predict_proba(model, np.zeros(3))


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            TrainConfig(l2_alpha=-1.0)
        with pytest.raises(ValidationError):
            TrainConfig(lbfgs_history=0)
        with pytest.raises(ValidationError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            TrainConfig(gradient_tolerance=0.0)
