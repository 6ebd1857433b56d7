"""Tests for matrix validation and the three graph feature sets."""

import numpy as np
import pytest
from conftest import (
    dijkstra_all_sources_reference,
    random_connectome,
    shortest_path_oracle,
    taylor_expm,
)

from connectoml import (
    ValidationError,
    communicability,
    communicability_matrix,
    feature_length,
    flatten_upper_triangle,
    matrix_exponential_symmetric,
    node_strengths,
    normalized_adjacency,
    shortest_path_lengths,
    shortest_path_matrix,
    unflatten_upper_triangle,
    validate_matrix,
)
from connectoml.connectome import _dijkstra_all_sources


class TestValidateMatrix:
    def test_zero_matrix_accepted(self):
        m = validate_matrix(np.zeros((2, 2)))
        assert m.n_nodes == 2
        assert np.all(m.weights == 0)

    def test_asymmetry_beyond_tolerance_rejected(self):
        raw = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            validate_matrix(raw, symmetry_tolerance=1e-9)

    def test_small_asymmetry_averaged_away(self):
        raw = np.array([[0.0, 1.0 + 1e-13], [1.0, 0.0]])
        m = validate_matrix(raw, symmetry_tolerance=1e-9)
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

    def test_diagonal_forced_to_zero(self):
        raw = np.array([[5.0, 1.0], [1.0, 7.0]])
        m = validate_matrix(raw)
        assert np.all(np.diag(m.weights) == 0)
        assert m.weights[0, 1] == 1.0


class TestNodeStrengths:
    def test_single_edge(self):
        m = validate_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(node_strengths(m), [1.0, 1.0])

    def test_zero_matrix(self):
        m = validate_matrix(np.zeros((4, 4)))
        assert np.array_equal(node_strengths(m), np.zeros(4))

    def test_matches_row_sum_oracle(self):
        rng = np.random.default_rng(11)
        m = random_connectome(rng, 6)
        expected = [sum(m.weights[i][j] for j in range(6)) for i in range(6)]
        np.testing.assert_allclose(node_strengths(m), expected, rtol=1e-15)


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
        assert np.array_equal(shortest_path_lengths(m).values, [0.5])

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

    def test_agrees_with_floyd_warshall_exactly_on_dyadic_weights(self):
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

    def test_agrees_with_floyd_warshall_on_continuous_weights(self):
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
    def test_lockstep_dijkstra_bit_identical_to_reference(self, seed, kind):
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
            np.fill_diagonal(lengths, np.inf)
            expected = dijkstra_all_sources_reference(lengths)
            assert np.array_equal(_dijkstra_all_sources(lengths), expected)

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
            communicability(m).values, [np.sinh(1.0)], rtol=1e-14
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
