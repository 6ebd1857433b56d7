"""Cross-checks against scipy, in addition to the in-repo oracles.

scipy is not a dependency of connectoml; these tests are skipped when it is
not installed.
"""

import numpy as np
import pytest

from connectoml import validate_matrix
from connectoml.connectome import (
    matrix_exponential_symmetric,
    shortest_path_matrix,
)
from connectoml.evaluation import mann_whitney_u

csgraph = pytest.importorskip("scipy.sparse.csgraph")
linalg = pytest.importorskip("scipy.linalg")
stats = pytest.importorskip("scipy.stats")


def connected_weights(rng, n_nodes, density):
    """Random symmetric weights on a sparse support plus a chain through
    every node, so the graph is connected."""
    weights = np.where(
        rng.random((n_nodes, n_nodes)) < density,
        rng.uniform(0.1, 10.0, (n_nodes, n_nodes)),
        0.0,
    )
    chain = np.arange(n_nodes - 1)
    weights[chain, chain + 1] = rng.uniform(0.1, 10.0, n_nodes - 1)
    weights = np.triu(weights, k=1)
    return weights + weights.T


@pytest.mark.parametrize("n_nodes, density", [(2, 0.0), (9, 0.1), (40, 0.3)])
def test_shortest_paths_match_csgraph(n_nodes, density):
    rng = np.random.default_rng(n_nodes)
    for _ in range(10):
        weights = connected_weights(rng, n_nodes, density)
        lengths = np.divide(
            1.0, weights, out=np.zeros_like(weights), where=weights > 0
        )
        expected = csgraph.shortest_path(lengths, method="D", directed=False)
        assert np.all(np.isfinite(expected))
        np.testing.assert_allclose(
            shortest_path_matrix(validate_matrix(weights)),
            expected,
            rtol=1e-13,
            atol=0.0,
        )


@pytest.mark.parametrize("n, scale", [(1, 3.0), (5, 1.0), (30, 0.2), (30, 4.0)])
def test_matrix_exponential_matches_scipy_expm(n, scale):
    rng = np.random.default_rng(n)
    for _ in range(10):
        a = rng.normal(0.0, scale, (n, n))
        a = (a + a.T) / 2.0
        expected = linalg.expm(a)
        np.testing.assert_allclose(
            matrix_exponential_symmetric(a),
            expected,
            rtol=0.0,
            atol=1e-12 * np.abs(expected).max(),
        )


@pytest.mark.parametrize("n, m", [(1, 1), (2, 7), (5, 5), (8, 8), (3, 12)])
def test_exact_mann_whitney_matches_scipy(n, m):
    rng = np.random.default_rng(10 * n + m)
    for _ in range(10):
        # Continuous draws are tie-free; the shift varies the p-value.
        a = rng.normal(rng.uniform(0.0, 2.0), 1.0, n)
        b = rng.normal(0.0, 1.0, m)
        assert np.unique(np.concatenate([a, b])).size == n + m
        expected = stats.mannwhitneyu(
            a, b, alternative="two-sided", method="exact"
        )
        u, p = mann_whitney_u(a, b, method="exact")
        assert u == expected.statistic
        assert p == pytest.approx(expected.pvalue, rel=1e-12, abs=0.0)
