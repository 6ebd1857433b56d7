"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS criterion NN`` line on success (visible
with ``pytest -s``); a failing criterion fails its test. Criteria with a
stated runtime budget assert on wall-clock time as well. The end-to-end
checks (criteria 09 and 10) train hundreds of models and dominate the
suite's runtime.
"""

import json
import time

import numpy as np
import pytest
from conftest import (
    make_cohort,
    mann_whitney_exact_oracle,
    random_connectome,
    shortest_path_oracle,
    taylor_expm,
)

from connectoml import (
    SamplerConfig,
    TrainConfig,
    ValidationError,
    run_experiment,
    validate_matrix,
)
from connectoml.connectome import (
    MEASURES,
    communicability_matrix,
    normalized_adjacency,
    shortest_path_matrix,
)
from connectoml.evaluation import STRATEGIES, auc, mann_whitney_u
from connectoml.folds import stratified_kfold
from connectoml.lbfgs import lbfgs_minimize
from connectoml.sampling import (
    instance_hardness_threshold,
    near_miss_3,
    random_undersample,
)
from connectoml.dataio import SyntheticCohortConfig, generate_synthetic_cohort
from connectoml.neuralnet import (
    flatten_parameters,
    forward,
    init_parameters,
    unflatten_parameters,
)
from test_neuralnet import assert_gradient_matches
from test_sampling import near_miss_oracle


def _passed(number, message):
    print(f"PASS criterion {number:02d}: {message}")


# Shared configuration for the model-training criteria: smaller optimizer
# budget than the library defaults, chosen for wall-clock speed; every
# assertion below holds with wide margins at these settings.
ACCEPTANCE_TRAIN = TrainConfig(
    l2_alpha=1e-4, lbfgs_history=5, max_iterations=15, seed=0
)


def test_criterion_01_communicability_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(20):
        matrix = random_connectome(rng, 10, density=float(rng.uniform(0.3, 0.9)))
        computed = communicability_matrix(matrix)
        expected = taylor_expm(normalized_adjacency(matrix), terms=60)
        assert np.max(np.abs(computed - expected)) <= 1e-8
        assert np.all(computed >= -1e-12)
        assert np.all(np.diag(computed) >= 1.0 - 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"communicability oracle took {elapsed:.2f}s"
    _passed(1, "communicability matches 60-term series oracle on 20 matrices")


def test_criterion_02_shortest_path_oracle():
    # Weights are powers of two, so inverted lengths and their path sums are
    # exactly representable and bitwise equality across different summation
    # orders (Dijkstra vs Floyd-Warshall) is well defined.
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    graphs = 0
    disconnected_seen = 0
    from conftest import floyd_warshall

    while graphs < 99:
        n = int(rng.integers(2, 31))
        density = float(rng.uniform(0.08, 0.9))
        matrix = random_connectome(rng, n, density, dyadic=True)
        off_diag = ~np.eye(n, dtype=bool)
        with np.errstate(divide="ignore"):
            lengths = np.where(matrix.weights > 0, 1.0 / matrix.weights, np.inf)
        raw_distances = floyd_warshall(lengths)
        missing = ~np.isfinite(raw_distances[off_diag])
        graphs += 1
        if missing.all():
            with pytest.raises(ValidationError):
                shortest_path_matrix(matrix, "max_finite")
            with pytest.raises(ValidationError):
                shortest_path_matrix(matrix, "error")
            constant = shortest_path_matrix(matrix, ("constant", 7.0))
            assert np.all(constant[off_diag] == 7.0)
            disconnected_seen += 1
            continue
        if missing.any():
            disconnected_seen += 1
            np.testing.assert_array_equal(
                shortest_path_matrix(matrix, "max_finite"),
                shortest_path_oracle(matrix.weights, "max_finite"),
            )
            np.testing.assert_array_equal(
                shortest_path_matrix(matrix, ("constant", 5.0)),
                shortest_path_oracle(
                    matrix.weights, "constant", constant=5.0
                ),
            )
            with pytest.raises(ValidationError):
                shortest_path_matrix(matrix, "error")
        else:
            expected = shortest_path_oracle(matrix.weights)
            for policy in ("max_finite", ("constant", 5.0), "error"):
                np.testing.assert_array_equal(
                    shortest_path_matrix(matrix, policy), expected
                )
    # One fully disconnected instance rounds the count to 100 graphs.
    zero = validate_matrix(np.zeros((6, 6)))
    with pytest.raises(ValidationError):
        shortest_path_matrix(zero, "max_finite")
    graphs += 1
    elapsed = time.perf_counter() - start
    assert graphs == 100
    assert disconnected_seen >= 10
    assert elapsed < 5.0, f"shortest-path oracle took {elapsed:.2f}s"
    _passed(2, "Dijkstra agrees exactly with Floyd-Warshall on 100 graphs")


def test_criterion_03_gradient_check():
    # All coordinates are checked at input dim 4; at 128 and 7140 a random
    # sample of coordinates from every layer is checked (a full per-
    # coordinate sweep at 7140 would need ~4.6M evaluations).
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    # The finite-difference noise floor scales with the rounding error of
    # one loss evaluation, which grows with the dot-product length.
    for input_dim, n_coords, floor in (
        (4, None, 1e-7), (128, 120, 1e-6), (7140, 40, 1e-6)
    ):
        xs = rng.normal(size=(12, input_dim))
        ys = (rng.random(12) < 0.5).astype(float)
        # Perturb on the initialization scale so the sigmoid stays away
        # from float saturation, where the evaluated loss is exactly flat
        # and no finite difference can see the mathematical gradient.
        spread = 0.5 * np.sqrt(6.0 / (input_dim + 32))
        for point in range(5):
            params = init_parameters(input_dim, seed=point)
            theta = flatten_parameters(params)
            theta = theta + rng.normal(0.0, spread, theta.size)
            params = unflatten_parameters(theta, input_dim)
            probs = forward(params, xs)
            assert np.all((probs > 1e-10) & (probs < 1 - 1e-10))
            if n_coords is None:
                indices = np.arange(theta.size)
            else:
                indices = rng.choice(theta.size, n_coords, replace=False)
                indices[0] = theta.size - 1  # always include the output bias
            assert_gradient_matches(
                params, xs, ys, 1e-4, indices, noise_floor=floor
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.2f}s"
    _passed(3, "backprop matches central differences at dims 4, 128, 7140")


def test_criterion_04_optimizer():
    rng = np.random.default_rng(1004)
    cfg = TrainConfig(max_iterations=20, gradient_tolerance=1e-8)
    traces = []

    def check(result):
        fvals = [it.fval for it in result.trace]
        assert all(b <= a for a, b in zip(fvals, fvals[1:]))
        traces.append(result)

    for _ in range(20):
        dim = int(rng.integers(2, 13))
        center = rng.normal(size=dim) * 3

        def sphere(x, center=center):
            diff = x - center
            return float(diff @ diff), 2.0 * diff

        result = lbfgs_minimize(sphere, rng.normal(size=dim) * 5, cfg)
        assert result.converged and result.iterations <= 20
        np.testing.assert_allclose(result.x, center, atol=1e-7)
        check(result)

    for _ in range(30):
        dim = int(rng.integers(2, 13))
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        hessian = (basis * rng.uniform(0.5, 2.0, dim)) @ basis.T
        center = rng.normal(size=dim) * 3

        def quad(x, h=hessian, c=center):
            diff = x - c
            return float(0.5 * diff @ h @ diff), h @ diff

        result = lbfgs_minimize(quad, rng.normal(size=dim) * 5, cfg)
        assert result.converged and result.iterations <= 20
        check(result)

    def rosenbrock(x):
        f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        g = np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return f, g

    result = lbfgs_minimize(
        rosenbrock,
        np.array([-1.2, 1.0]),
        TrainConfig(max_iterations=200, gradient_tolerance=1e-10),
    )
    assert np.max(np.abs(result.x - 1.0)) <= 1e-6
    check(result)
    _passed(4, "quadratics converge in <= 20 iterations; Rosenbrock reaches (1,1)")


def test_criterion_05_auc_pair_counting():
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        size = int(rng.integers(2, 201))
        labels = (rng.random(size) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.random(size)
        else:  # coarse grid forces ties
            scores = rng.integers(0, 6, size) / 5.0
        positives = scores[labels == 1]
        negatives = scores[labels == 0]
        wins = (
            (positives[:, None] > negatives[None, :]).sum()
            + 0.5 * (positives[:, None] == negatives[None, :]).sum()
        )
        expected = wins / (positives.size * negatives.size)
        assert auc(labels, scores) == expected
    _passed(5, "rank AUC equals brute-force pair counting on 1000 instances")


def test_criterion_06_mann_whitney():
    rng = np.random.default_rng(1006)
    for n in range(1, 9):
        for m in range(n, 10):
            if rng.random() < 0.5:
                a = rng.random(n)
                b = rng.random(m)
            else:
                a = rng.integers(0, 3, n).astype(float)
                b = rng.integers(0, 3, m).astype(float)
            u, p = mann_whitney_u(a, b, method="exact")
            u_expected, p_expected = mann_whitney_exact_oracle(a, b)
            assert u == u_expected
            assert abs(p - p_expected) <= 1e-12
    for _ in range(60):
        a = rng.normal(size=8)
        b = rng.normal(loc=rng.uniform(-1.5, 1.5), size=8)
        _, p_exact = mann_whitney_u(a, b, method="exact")
        _, p_normal = mann_whitney_u(a, b, method="normal")
        assert abs(p_exact - p_normal) <= 0.01
    _passed(6, "exact enumeration verified for min(n,m) <= 8; normal within 0.01")


def test_criterion_07_samplers():
    rng = np.random.default_rng(1007)

    # Balance and minority preservation for all three strategies.
    xs = np.vstack(
        [rng.normal(0, 0.4, (10, 2)), rng.normal(3, 0.4, (22, 2))]
    )
    ys = np.concatenate([np.zeros(10), np.ones(22)]).astype(int)
    cohort = make_cohort(xs, ys)
    minority_ids = set(cohort.subject_ids[:10])
    iht_train = TrainConfig(seed=2, max_iterations=20)
    for sampled in (
        random_undersample(cohort, seed=5),
        near_miss_3(cohort, k=3),
        instance_hardness_threshold(cohort, 1, iht_train),
    ):
        counts = sampled.class_counts()
        assert counts["HC"] == counts["MCI"] == 10
        assert minority_ids <= set(sampled.subject_ids)

    # Near-miss-3 equals the exhaustive two-step oracle on hand-built toys.
    for _ in range(10):
        n_minority = int(rng.integers(2, 5))
        n_majority = int(rng.integers(n_minority + 2, 12))
        points = rng.normal(size=(n_minority + n_majority, 2)) * 2
        labels = np.concatenate(
            [np.zeros(n_minority), np.ones(n_majority)]
        ).astype(int)
        toy = make_cohort(points, labels)
        retained = near_miss_3(toy, k=3)
        expected = near_miss_oracle(points, labels, k=3)
        assert sorted(retained.subject_ids) == sorted(
            toy.subject_ids[i] for i in expected
        )

    # Planted flipped-label majority points are removed first by hardness.
    minority = rng.normal(0.0, 0.3, (10, 2))
    majority = rng.normal(4.0, 0.3, (14, 2))
    flipped = rng.normal(0.0, 0.3, (4, 2))
    planted = make_cohort(
        np.vstack([minority, majority, flipped]),
        np.concatenate([np.zeros(10), np.ones(18)]).astype(int),
        ids=[f"min{i}" for i in range(10)]
        + [f"maj{i}" for i in range(14)]
        + [f"flip{i}" for i in range(4)],
    )
    hardened = instance_hardness_threshold(planted, 1, iht_train)
    assert not any(s.startswith("flip") for s in hardened.subject_ids)
    assert hardened.class_counts() == {"HC": 10, "MCI": 10}
    _passed(7, "all samplers balance; near-miss and hardness match oracles")


def test_criterion_08_cv_protocol():
    labels = np.concatenate([np.zeros(49), np.ones(108)]).astype(int)
    for seed in (0, 1, 2, 3, 4):
        folds = stratified_kfold(labels, k=10, seed=seed)
        seen = np.concatenate([f.test_indices for f in folds])
        assert sorted(seen.tolist()) == list(range(157))
        for fold in folds:
            hc = int(np.sum(labels[fold.test_indices] == 0))
            mci = int(np.sum(labels[fold.test_indices] == 1))
            assert hc in (4, 5)
            assert mci in (10, 11)

    cohort = generate_synthetic_cohort(
        SyntheticCohortConfig(n_nodes=16, n_hc=12, n_mci=15, seed=9)
    )
    kwargs = dict(k=10, repetitions=2, seed=17)
    sampler = SamplerConfig(method="random")
    fast = TrainConfig(max_iterations=5)
    first = run_experiment(cohort, sampler, fast, **kwargs)
    second = run_experiment(cohort, sampler, fast, **kwargs)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    _passed(8, "stratified folds hold 4-5 HC / 10-11 MCI; rerun byte-identical")


def test_criterion_09_end_to_end_signal_recovery():
    signal_cfg = SyntheticCohortConfig(
        n_nodes=120, n_hc=49, n_mci=108, effect_size=1.5,
        affected_edge_fraction=0.2, noise_scale=0.25, seed=42,
    )
    null_cfg = SyntheticCohortConfig(
        n_nodes=120, n_hc=49, n_mci=108, effect_size=0.0,
        affected_edge_fraction=0.2, noise_scale=0.25, seed=43,
    )
    sampler = SamplerConfig(method="none")

    start = time.perf_counter()
    signal = generate_synthetic_cohort(signal_cfg)
    report = run_experiment(
        signal, sampler, ACCEPTANCE_TRAIN, k=10, repetitions=10, seed=11
    )
    elapsed = time.perf_counter() - start
    aucs = {s: report.strategies[s]["auc"]["mean"] for s in STRATEGIES}
    assert aucs["ensemble"] >= 0.95, aucs
    best_single = max(aucs[m] for m in MEASURES)
    assert aucs["ensemble"] >= best_single - 0.02, aucs
    assert elapsed <= 600.0, f"signal run took {elapsed:.0f}s"

    null_report = run_experiment(
        generate_synthetic_cohort(null_cfg),
        sampler,
        ACCEPTANCE_TRAIN,
        k=10,
        repetitions=10,
        seed=11,
    )
    null_aucs = {
        s: null_report.strategies[s]["auc"]["mean"] for s in STRATEGIES
    }
    for strategy, value in null_aucs.items():
        assert 0.4 <= value <= 0.6, null_aucs
    _passed(
        9,
        f"signal ensemble AUC {aucs['ensemble']:.3f} in {elapsed:.0f}s;"
        f" null AUCs within [0.4, 0.6]",
    )


def test_criterion_10_imbalance_shape():
    cohort = generate_synthetic_cohort(
        SyntheticCohortConfig(
            n_nodes=60, n_hc=49, n_mci=108, effect_size=0.15,
            affected_edge_fraction=0.15, noise_scale=0.7, seed=7,
        )
    )
    unbalanced = run_experiment(
        cohort, SamplerConfig(method="none"), ACCEPTANCE_TRAIN,
        k=10, repetitions=2, seed=5,
    )
    rebalanced = run_experiment(
        cohort, SamplerConfig(method="random"), ACCEPTANCE_TRAIN,
        k=10, repetitions=2, seed=5,
    )
    for strategy in STRATEGIES:
        sens = unbalanced.strategies[strategy]["sensitivity"]["mean"]
        spec = unbalanced.strategies[strategy]["specificity"]["mean"]
        assert sens > spec, (strategy, sens, spec)
        gap_before = abs(sens - spec)
        sens_r = rebalanced.strategies[strategy]["sensitivity"]["mean"]
        spec_r = rebalanced.strategies[strategy]["specificity"]["mean"]
        gap_after = abs(sens_r - spec_r)
        assert gap_after < gap_before, (strategy, gap_before, gap_after)
    _passed(10, "sensitivity exceeds specificity unbalanced; gap shrinks after RUS")
