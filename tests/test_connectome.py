"""Tests for matrix validation and the three graph feature sets."""

import re

import numpy as np
import pytest
from conftest import (
    dijkstra_all_sources_reference,
    floyd_warshall,
    needs_openblas,
    random_connectome,
    shortest_path_oracle,
    taylor_expm,
)

from connectoml import (
    NumericalError,
    ValidationError,
    extract_features,
    validate_matrix,
)
from connectoml.cli import EXIT_DATA, EXIT_NUMERICAL, main as run_cli
from connectoml.connectome import (
    MEASURES,
    communicability,
    communicability_matrix,
    feature_length,
    flatten_upper_triangle,
    matrix_exponential_symmetric,
    normalized_adjacency,
    shortest_path_lengths,
    shortest_path_matrix,
    unflatten_upper_triangle,
    weight_features,
)
from connectoml.dataio import write_matrix_file


class TestValidateMatrix:
    def test_zero_matrix_accepted(self):
        m = validate_matrix(np.zeros((2, 2)))
        assert m.n_nodes == 2
        assert np.all(m.weights == 0)

    def test_asymmetry_beyond_tolerance_rejected(self):
        raw = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            validate_matrix(raw)

    def test_small_asymmetry_averaged_away(self):
        raw = np.array([[0.0, 1.0 + 1e-13], [1.0, 0.0]])
        m = validate_matrix(raw)
        assert np.array_equal(m.weights, m.weights.T)
        assert m.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_weight_rejected(self):
        raw = np.array([[0.0, -3.0], [-3.0, 0.0]])
        with pytest.raises(ValidationError, match="negative weight"):
            validate_matrix(raw)

    def test_non_finite_rejected(self):
        raw = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            validate_matrix(raw)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="not square"):
            validate_matrix(np.zeros((2, 3)))

    def test_zero_nodes_rejected_naming_the_subject(self):
        message = "connectivity matrix for subject 's7' has no nodes"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_matrix(np.zeros((0, 0)), subject_id="s7")
        with pytest.raises(ValidationError, match="^connectivity matrix has"):
            validate_matrix(np.empty((0, 0)))

    @pytest.mark.parametrize("weight", [1e-309, 1e-308])
    def test_weight_whose_lengths_overflow_rejected(self, weight, tmp_path):
        # At 3 nodes the smallest weight accepted is 6 / max, 3.3e-308.
        chain = np.diag([weight, 1.0], 1)
        message = (
            f"weight {weight} at (0, 1) is below 3.33761e-308, so its path"
            " lengths overflow, in connectivity matrix for subject 's3'"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_matrix(chain + chain.T, subject_id="s3")
        write_matrix_file(tmp_path / "s3.csv", chain + chain.T)
        (tmp_path / "manifest.csv").write_text(
            "subject_id,label,path\ns3,HC,s3.csv\n", encoding="utf-8"
        )
        assert run_cli(
            ["extract", "--manifest", str(tmp_path / "manifest.csv"),
             "--out-dir", str(tmp_path / "features")]
        ) == EXIT_DATA

    @pytest.mark.parametrize("n", [2, 3, 17, 120])
    def test_weights_at_the_bound_give_finite_lengths(self, n):
        # pytest turns numpy's overflow warning into an error.
        bound = 2 * n / np.finfo(np.float64).max
        chain = np.diag(np.full(n - 1, bound), 1)
        for weights in (chain + chain.T, np.full((n, n), bound)):
            dist = shortest_path_matrix(validate_matrix(weights), "error")
            assert np.isfinite(dist).all()

    @pytest.mark.parametrize(
        "weights, message",
        [
            # A pair sum overflows.
            (
                [[0.0, 1e308, 0.0], [1e308, 0.0, 1.0], [0.0, 1.0, 0.0]],
                "weight 1e+308 at (0, 1) is above 2.99616e+307",
            ),
            # Each pair sum is finite; node 0's strength overflows.
            (
                [[0.0, 7e307, 7e307, 7e307], [7e307, 0.0, 0.0, 0.0],
                 [7e307, 0.0, 0.0, 0.0], [7e307, 0.0, 0.0, 0.0]],
                "weight 7e+307 at (0, 1) is above 2.24712e+307",
            ),
        ],
        ids=["pair_sum", "strength"],
    )
    def test_weight_whose_strengths_overflow_rejected(
        self, weights, message, tmp_path
    ):
        message += (
            ", so its node strengths overflow, in connectivity matrix for"
            " subject 's3'"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_matrix(weights, subject_id="s3")
        write_matrix_file(tmp_path / "s3.csv", np.array(weights))
        (tmp_path / "manifest.csv").write_text(
            "subject_id,label,path\ns3,HC,s3.csv\n", encoding="utf-8"
        )
        assert run_cli(
            ["extract", "--manifest", str(tmp_path / "manifest.csv"),
             "--out-dir", str(tmp_path / "features")]
        ) == EXIT_DATA

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3, 17, 120])
    def test_weights_at_the_upper_bound_give_finite_features(self, n):
        bound = np.finfo(np.float64).max / (2 * n)
        chain = np.diag(np.full(n - 1, bound), 1)
        for weights in (chain + chain.T, np.full((n, n), bound)):
            features = extract_features(validate_matrix(weights))
            for measure in MEASURES:
                assert np.isfinite(features[measure].values).all()

    def test_the_diagonal_does_not_widen_the_tolerance(self):
        message = (
            "asymmetry 3 exceeds tolerance 1e-09 * 5 in connectivity matrix"
        )
        for diagonal in (1e12, 0.0):
            raw = [[diagonal, 1.0, 5.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
            with pytest.raises(
                ValidationError, match=f"^{re.escape(message)}$"
            ):
                validate_matrix(raw)

    def test_a_large_diagonal_is_zeroed_before_the_sums(self):
        weights = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        raw = weights + np.diag([1.7976931348623157e308, 1e308, 0.0])
        assert validate_matrix(raw).weights.tobytes() == weights.tobytes()

    def test_diagonal_forced_to_zero(self):
        raw = np.array([[5.0, 1.0], [1.0, 7.0]])
        m = validate_matrix(raw)
        assert np.all(np.diag(m.weights) == 0)
        assert m.weights[0, 1] == 1.0


class TestNormalizedAdjacency:
    def test_single_edge(self):
        m = validate_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(
            normalized_adjacency(m), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_zero_matrix(self):
        m = validate_matrix(np.zeros((4, 4)))
        assert np.array_equal(normalized_adjacency(m), np.zeros((4, 4)))

    def test_matches_row_sum_oracle(self):
        rng = np.random.default_rng(11)
        m = random_connectome(rng, 6)
        strengths = [sum(m.weights[i][j] for j in range(6)) for i in range(6)]
        expected = [
            [
                m.weights[i][j] / (strengths[i] ** 0.5 * strengths[j] ** 0.5)
                for j in range(6)
            ]
            for i in range(6)
        ]
        np.testing.assert_allclose(
            normalized_adjacency(m), expected, rtol=1e-14
        )


class TestFlatten:
    def test_length_for_120_nodes(self):
        assert feature_length(120) == 7140
        values = flatten_upper_triangle(np.zeros((120, 120)))
        assert values.shape == (7140,)

    def test_two_nodes(self):
        out = flatten_upper_triangle([[0.0, 5.0], [5.0, 0.0]])
        assert np.array_equal(out, [5.0])

    def test_three_node_ordering(self):
        matrix = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        )
        assert np.array_equal(flatten_upper_triangle(matrix), [1.0, 2.0, 3.0])

    def test_unflatten_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 7, 15):
            values = rng.random(feature_length(n))
            matrix = unflatten_upper_triangle(values, n)
            assert np.array_equal(matrix, matrix.T)
            assert np.all(np.diag(matrix) == 0)
            assert np.array_equal(flatten_upper_triangle(matrix), values)


class TestShortestPaths:
    def test_single_edge_inverts_weight(self):
        m = validate_matrix([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(shortest_path_lengths(m), [0.5])

    def test_detour_beats_direct_edge(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        weights[1, 2] = weights[2, 1] = 1.0
        weights[0, 2] = weights[2, 0] = 0.25
        m = validate_matrix(weights)
        dist = shortest_path_matrix(m)
        oracle = shortest_path_oracle(m.weights)
        np.testing.assert_array_equal(dist, oracle)
        assert dist[0, 2] == 2.0

    def test_isolated_node_max_finite_policy(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        m = validate_matrix(weights)
        dist = shortest_path_matrix(m)
        assert dist[0, 2] == 1.0
        assert dist[1, 2] == 1.0

    def test_constant_policy(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 2.0
        m = validate_matrix(weights)
        dist = shortest_path_matrix(m, ("constant", 9.0))
        assert dist[0, 2] == 9.0
        assert dist[0, 1] == 0.5
        string_form = shortest_path_matrix(m, "constant:9.0")
        np.testing.assert_array_equal(dist, string_form)

    @pytest.mark.parametrize(
        "policy",
        [
            "constant:inf",
            "constant:nan",
            "constant:-inf",
            "constant:x",
            ("constant", np.inf),
            ("constant", np.nan),
            ("constant", "x"),
            ("constant", None),
        ],
    )
    def test_constant_must_be_a_finite_number_in_both_forms(self, policy):
        # Rejected even for a fully connected subject, where the constant
        # would never be written: the policy is checked before any path.
        m = validate_matrix(np.ones((3, 3)))
        message = f"unknown disconnected-pair policy {policy!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            shortest_path_matrix(m, policy)

    def test_error_policy_raises(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        m = validate_matrix(weights)
        with pytest.raises(ValidationError, match="no path"):
            shortest_path_matrix(m, "error")

    def test_all_pairs_disconnected_raises_for_max_finite(self):
        m = validate_matrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="disconnected"):
            shortest_path_matrix(m)

    def test_unknown_policy_rejected(self):
        m = validate_matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="policy"):
            shortest_path_matrix(m, "nearest")

    def test_agrees_with_dijkstra_exactly_on_dyadic_weights(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            n = int(rng.integers(2, 31))
            density = float(rng.uniform(0.15, 0.9))
            m = random_connectome(rng, n, density, dyadic=True)
            try:
                oracle = shortest_path_oracle(m.weights)
            except AssertionError:
                continue  # no finite distance anywhere; covered elsewhere
            np.testing.assert_array_equal(
                shortest_path_matrix(m), oracle
            )

    def test_agrees_with_dijkstra_on_continuous_weights(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            n = int(rng.integers(2, 31))
            m = random_connectome(rng, n, float(rng.uniform(0.2, 0.9)))
            try:
                oracle = shortest_path_oracle(m.weights)
            except AssertionError:
                continue
            np.testing.assert_allclose(
                shortest_path_matrix(m), oracle, rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize(
        "seed, kind",
        enumerate(["dense", "sparse", "disconnected", "ties", "two_nodes"]),
    )
    def test_floyd_warshall_matches_reference_dijkstra(self, seed, kind):
        # Path sums are associated differently by the two algorithms, so
        # they agree exactly only where every path length is exact.
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = 2 if kind == "two_nodes" else int(rng.integers(3, 41))
            density = {"dense": 0.9, "sparse": 0.08}.get(
                kind, float(rng.uniform(0.1, 0.9))
            )
            weights = random_connectome(rng, n, density).weights.copy()
            if kind == "disconnected":
                # Cut every edge between two random node groups.
                group = rng.random(n) < 0.5
                weights[np.ix_(group, ~group)] = 0.0
                weights[np.ix_(~group, group)] = 0.0
            if kind == "ties":
                weights[weights > 0] = 1.0
            with np.errstate(divide="ignore"):
                lengths = np.where(weights > 0, 1.0 / weights, np.inf)
            expected = dijkstra_all_sources_reference(lengths)
            expected[np.isinf(expected)] = -1.0
            dist = shortest_path_matrix(
                validate_matrix(weights), ("constant", -1.0)
            )
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0)
            if kind in ("ties", "two_nodes"):
                assert np.array_equal(dist, expected)
            else:
                np.testing.assert_allclose(dist, expected, rtol=1e-13, atol=0)

    def test_symmetry_zero_diagonal_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_connectome(rng, 12, 0.5)
            dist = shortest_path_matrix(m)
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0)
            via = dist[:, :, None] + dist[None, :, :]
            assert np.all(dist[:, None, :] <= via + 1e-12)

    def test_power_of_two_weight_scaling_scales_paths_exactly(self):
        rng = np.random.default_rng(6)
        m = random_connectome(rng, 10, 0.6)
        base = shortest_path_matrix(m)
        for factor in (2.0, 0.5, 8.0):
            scaled = validate_matrix(m.weights * factor)
            np.testing.assert_array_equal(
                shortest_path_matrix(scaled), base / factor
            )

    def test_general_weight_scaling_scales_paths(self):
        rng = np.random.default_rng(8)
        m = random_connectome(rng, 10, 0.6)
        base = shortest_path_matrix(m)
        scaled = validate_matrix(m.weights * 3.0)
        np.testing.assert_allclose(
            shortest_path_matrix(scaled), base / 3.0, rtol=1e-12
        )


#: The three disconnected-pair policies, one of each kind.
POLICIES = ("max_finite", ("constant", 5.0), "error")


def broadcast_shortest_paths(weights, policy):
    """``shortest_path_matrix`` through the broadcast Floyd-Warshall of
    ``conftest.floyd_warshall``, with the policy applied; the
    ``ValidationError`` class where the policy refuses the subject."""
    with np.errstate(divide="ignore"):
        lengths = np.where(weights > 0, 1.0 / weights, np.inf)
    dist = floyd_warshall(lengths)
    off_diagonal = ~np.eye(len(dist), dtype=bool)
    missing = ~np.isfinite(dist) & off_diagonal
    if missing.any():
        finite = dist[off_diagonal & np.isfinite(dist)]
        if policy == "error" or (policy == "max_finite" and not finite.size):
            return ValidationError
        dist[missing] = finite.max() if policy == "max_finite" else policy[1]
    return dist


def assert_matches_broadcast(matrix):
    """Every policy gives the broadcast reference's bytes, or refuses the
    subject where the reference does."""
    for policy in POLICIES:
        expected = broadcast_shortest_paths(matrix.weights, policy)
        if expected is ValidationError:
            with pytest.raises(ValidationError):
                shortest_path_matrix(matrix, policy)
            continue
        # No accepted weight's path sums overflow, so neither side warns.
        dist = shortest_path_matrix(matrix, policy)
        assert dist.tobytes() == expected.tobytes(), (matrix.n_nodes, policy)


def random_weights(rng, n, density, low, high):
    """Symmetric weights, log-uniform in ``[low, high]`` on a random
    ``density`` of the node pairs, zero elsewhere."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    exponents = rng.uniform(np.log10(low), np.log10(high), (n, n))
    weights = np.where(upper, 10.0**exponents, 0.0)
    return weights + weights.T


class TestShortestPathsMatchBroadcast:
    """The rank-2 product of each pivot adds exactly what the broadcast
    sum adds, so the path lengths keep their bytes."""

    def test_every_size_from_1_to_130_nodes(self):
        rng = np.random.default_rng(33)
        for n in range(1, 131):
            density = float(rng.uniform(0.05, 0.9))
            assert_matches_broadcast(random_connectome(rng, n, density))

    @pytest.mark.parametrize(
        "low, high", [(1e-300, 1e300), ("bound", 1e-300), (1e200, 1e300)]
    )
    def test_extreme_weights(self, low, high):
        # Weights from the smallest validate_matrix accepts, 2n / max, give
        # lengths up to max / 2n, whose path sums come closest to overflow.
        rng = np.random.default_rng(34)
        for n in (3, 17, 64, 97):
            floor = 2 * n / np.finfo(np.float64).max if low == "bound" else low
            for density in (0.1, 0.6):
                weights = random_weights(rng, n, density, floor, high)
                # 10**log10(floor) may round one ulp below the floor.
                weights[weights > 0] = np.maximum(weights[weights > 0], floor)
                assert_matches_broadcast(validate_matrix(weights))

    def test_isolated_nodes_and_fully_disconnected_graphs(self):
        rng = np.random.default_rng(35)
        for n in (2, 3, 5, 16, 33, 120):
            weights = random_connectome(rng, n, 0.5).weights.copy()
            isolated = rng.random(n) < 0.3
            weights[isolated] = weights[:, isolated] = 0.0
            assert_matches_broadcast(validate_matrix(weights))
            assert_matches_broadcast(validate_matrix(np.zeros((n, n))))

    @needs_openblas
    def test_two_openblas_threads_give_the_same_bytes(self, openblas):
        # At 400 nodes each product holds 320,000 multiply-adds, enough for
        # OpenBLAS to split it over both threads.
        rng = np.random.default_rng(36)
        weights = random_connectome(rng, 400, 0.1).weights.copy()
        weights[:, :7] = weights[:7] = 0.0
        assert_matches_broadcast(validate_matrix(weights))

    def test_nan_from_the_product_is_a_numerical_error(
        self, monkeypatch, tmp_path
    ):
        assert run_cli(
            ["synth", "--out-dir", str(tmp_path / "cohort"), "--nodes", "6",
             "--hc", "2", "--mci", "2", "--seed", "1"]
        ) == 0

        def nan_product(a, b, out):
            out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "matmul", nan_product)
        matrix = random_connectome(np.random.default_rng(37), 5, 0.8)
        for policy in POLICIES:
            with pytest.raises(NumericalError, match="NaN"):
                shortest_path_matrix(matrix, policy)
        assert run_cli(
            ["extract", "--manifest", str(tmp_path / "cohort" / "manifest.csv"),
             "--out-dir", str(tmp_path / "features")]
        ) == EXIT_NUMERICAL


class TestMatrixExponential:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(
            matrix_exponential_symmetric(np.zeros((4, 4))), np.eye(4)
        )

    def test_diagonal_case(self):
        result = matrix_exponential_symmetric(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(
            result, np.diag([np.e, np.e**2]), rtol=1e-14
        )

    def test_matches_taylor_series_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            a = (a + a.T) / 2
            np.testing.assert_allclose(
                matrix_exponential_symmetric(a),
                taylor_expm(a),
                rtol=0,
                atol=1e-10,
            )

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        result = matrix_exponential_symmetric(a)
        assert np.array_equal(result, result.T)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            matrix_exponential_symmetric([[0.0, 1.0], [2.0, 0.0]])

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            matrix_exponential_symmetric([[np.inf, 0.0], [0.0, 0.0]])


class TestCommunicability:
    def test_two_node_closed_form(self):
        m = validate_matrix([[0.0, 1.0], [1.0, 0.0]])
        matrix = communicability_matrix(m)
        np.testing.assert_allclose(matrix[0, 1], np.sinh(1.0), rtol=1e-14)
        np.testing.assert_allclose(
            np.diag(matrix), np.cosh(1.0), rtol=1e-14
        )
        np.testing.assert_allclose(
            communicability(m), [np.sinh(1.0)], rtol=1e-14
        )

    def test_matches_taylor_oracle_on_random_matrices(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m = random_connectome(rng, 6, 0.6)
            expected = taylor_expm(normalized_adjacency(m))
            np.testing.assert_allclose(
                communicability_matrix(m), expected, rtol=0, atol=1e-10
            )

    def test_isolated_node_has_zero_communicability(self):
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 2.0
        weights[1, 2] = weights[2, 1] = 1.0
        m = validate_matrix(weights)
        matrix = communicability_matrix(m)
        assert np.all(np.abs(matrix[3, :3]) <= 1e-12)
        assert matrix[3, 3] == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_entries_and_diagonal_at_least_one(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            m = random_connectome(rng, 9, 0.5)
            matrix = communicability_matrix(m)
            assert np.all(matrix >= -1e-12)
            assert np.all(np.diag(matrix) >= 1.0 - 1e-12)
            assert np.array_equal(matrix, matrix.T)

    def test_normalized_adjacency_spectrum_bounded_by_one(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            m = random_connectome(rng, 8, 0.7)
            eigenvalues = np.linalg.eigvalsh(normalized_adjacency(m))
            assert np.abs(eigenvalues).max() <= 1.0 + 1e-12


class TestExtractFeatures:
    def test_three_measures_as_plain_float_arrays(self):
        rng = np.random.default_rng(35)
        m = random_connectome(rng, 7, 0.5)
        features = extract_features(m, "constant:4.0")
        assert tuple(features) == MEASURES
        expected = {
            "weights": weight_features(m),
            "shortest_path": shortest_path_lengths(m, "constant:4.0"),
            "communicability": communicability(m),
        }
        for measure in MEASURES:
            assert type(expected[measure]) is np.ndarray
            assert expected[measure].dtype == np.float64
            assert expected[measure].shape == (feature_length(7),)
            assert features[measure].measure == measure
            assert np.array_equal(features[measure].values, expected[measure])
