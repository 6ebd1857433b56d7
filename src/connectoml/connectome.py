"""Connectivity-matrix validation and complex-network feature extraction.

A subject's brain is modeled as a weighted undirected graph: nodes are
anatomical regions, edge weights count the fiber tracts connecting them.
Three feature sets are computed from the weight matrix:

* ``weights``: the raw edge weights themselves;
* ``shortest_path``: all-pairs shortest path lengths after converting each
  weight to a length of ``1/w`` (stronger connection, shorter path);
* ``communicability``: the matrix exponential of the strength-normalized
  adjacency, which accounts for walks of every length between two nodes.

Each measure is flattened to the upper triangle (diagonal excluded) in
row-major order, giving ``n * (n - 1) / 2`` features per subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ValidationError

MEASURE_WEIGHTS = "weights"
MEASURE_SHORTEST_PATH = "shortest_path"
MEASURE_COMMUNICABILITY = "communicability"

#: The three single-measure feature sets, in canonical order.
MEASURES = (MEASURE_WEIGHTS, MEASURE_SHORTEST_PATH, MEASURE_COMMUNICABILITY)

DEFAULT_SYMMETRY_TOLERANCE = 1e-9

#: Policies for pairs of nodes with no connecting path.
POLICY_MAX_FINITE = "max_finite"
POLICY_CONSTANT = "constant"
POLICY_ERROR = "error"


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Validated symmetric nonnegative weight matrix for one subject.

    Construct through :func:`validate_matrix`; the dataclass itself does not
    re-check the invariants (symmetry, nonnegativity, zero diagonal).
    """

    subject_id: str
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FeatureVector:
    """One measure's flattened features for one subject, as returned by
    :func:`extract_features`; ``values`` is a 1-D float64 array."""

    measure: str
    values: np.ndarray


def feature_length(n_nodes: int) -> int:
    """Number of upper-triangle entries for an ``n_nodes`` square matrix."""
    return n_nodes * (n_nodes - 1) // 2


def validate_matrix(raw, subject_id: str = "") -> ConnectivityMatrix:
    """Validate a raw square matrix and return a clean connectivity matrix.

    Parameters
    ----------
    raw : array_like
        Square matrix of edge weights. The diagonal is forced to zero
        regardless of its input values, first. Small asymmetries (parser
        rounding noise, up to :data:`DEFAULT_SYMMETRY_TOLERANCE` relative to
        the largest off-diagonal weight) are tolerated and averaged away.
    subject_id : str
        Identifier carried along for error messages and bookkeeping.

    Raises
    ------
    ValidationError
        If the input is not square, has no nodes, contains non-finite
        entries, contains negative off-diagonal weights, holds a weight
        above ``np.finfo(np.float64).max / (2 * n)`` at n nodes, whose node
        strengths would overflow, is asymmetric beyond tolerance, or holds a
        positive weight below ``2 * n / np.finfo(np.float64).max``, whose
        length ``1/w`` or path sums would overflow.
    """
    weights = np.array(raw, dtype=np.float64)
    tag = f" for subject {subject_id!r}" if subject_id else ""
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValidationError(
            f"connectivity matrix{tag} is not square: shape {weights.shape}"
        )
    if weights.size == 0:
        raise ValidationError(f"connectivity matrix{tag} has no nodes")
    if not np.all(np.isfinite(weights)):
        i, j = np.argwhere(~np.isfinite(weights))[0]
        raise ValidationError(
            f"non-finite entry at ({i}, {j}) in connectivity matrix{tag}"
        )
    off_diagonal = ~np.eye(weights.shape[0], dtype=bool)
    negative = (weights < 0) & off_diagonal
    if negative.any():
        i, j = np.argwhere(negative)[0]
        raise ValidationError(
            f"negative weight {weights[i, j]} at ({i}, {j})"
            f" in connectivity matrix{tag}"
        )
    np.fill_diagonal(weights, 0.0)
    # Under max / (2n) no pair sum overflows, nor a node strength, which is
    # at most (n - 1) / (2n) of max.
    ceiling = np.finfo(np.float64).max / (2 * weights.shape[0])
    huge = weights > ceiling
    if huge.any():
        i, j = np.argwhere(huge)[0]
        raise ValidationError(
            f"weight {weights[i, j]} at ({i}, {j}) is above {ceiling:g},"
            f" so its node strengths overflow, in connectivity matrix{tag}"
        )
    scale = weights.max()
    asymmetry = np.abs(weights - weights.T).max()
    if asymmetry > DEFAULT_SYMMETRY_TOLERANCE * scale:
        raise ValidationError(
            f"asymmetry {asymmetry:g} exceeds tolerance"
            f" {DEFAULT_SYMMETRY_TOLERANCE:g} * {scale:g}"
            f" in connectivity matrix{tag}"
        )
    weights = (weights + weights.T) / 2.0
    # A path has at most n - 1 edges, each no longer than max / (2n), so a
    # path and each pivot's sum of two paths stay finite.
    floor = 2 * weights.shape[0] / np.finfo(np.float64).max
    tiny = (weights > 0) & (weights < floor)
    if tiny.any():
        i, j = np.argwhere(tiny)[0]
        raise ValidationError(
            f"weight {weights[i, j]} at ({i}, {j}) is below {floor:g},"
            f" so its path lengths overflow, in connectivity matrix{tag}"
        )
    weights.flags.writeable = False
    return ConnectivityMatrix(subject_id=subject_id, weights=weights)


@lru_cache(maxsize=None)
def _upper_triangle(n_nodes: int) -> tuple:
    """``np.triu_indices(n_nodes, k=1)`` as read-only arrays, built once per
    node count."""
    rows, cols = np.triu_indices(n_nodes, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def flatten_upper_triangle(matrix) -> np.ndarray:
    """Flatten a square matrix's strict upper triangle in row-major order.

    The output is ``[m[0,1], m[0,2], ..., m[0,n-1], m[1,2], ..., m[n-2,n-1]]``
    with length ``n * (n - 1) / 2``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix[_upper_triangle(matrix.shape[0])]


def unflatten_upper_triangle(values, n_nodes: int) -> np.ndarray:
    """Inverse of :func:`flatten_upper_triangle`, producing a symmetric matrix
    with zero diagonal."""
    values = np.asarray(values, dtype=np.float64)
    expected = feature_length(n_nodes)
    if values.shape != (expected,):
        raise ValidationError(
            f"expected {expected} upper-triangle values for"
            f" {n_nodes} nodes, got {values.shape}"
        )
    out = np.zeros((n_nodes, n_nodes))
    out[_upper_triangle(n_nodes)] = values
    return out + out.T


def weight_features(matrix: ConnectivityMatrix) -> np.ndarray:
    """Raw-weight features: the flattened upper triangle of the weights."""
    return flatten_upper_triangle(matrix.weights)


def _normalize_disconnected_policy(policy):
    """Accept 'max_finite', 'error', ('constant', v) or 'constant:<v>'.

    The constant ``v`` must be a finite number in either form: it becomes a
    feature value, and every feature value must be finite.
    """
    if isinstance(policy, str):
        if policy in (POLICY_MAX_FINITE, POLICY_ERROR):
            return policy, None
        name, _, value = policy.partition(":")
    else:
        try:
            name, value = policy
        except (TypeError, ValueError):
            name, value = None, None
    try:
        value = float(value)
    except (TypeError, ValueError):
        value = np.nan  # rejected below, like a non-finite constant
    if name != POLICY_CONSTANT or not np.isfinite(value):
        raise ValidationError(f"unknown disconnected-pair policy {policy!r}")
    return POLICY_CONSTANT, value


def shortest_path_matrix(
    matrix: ConnectivityMatrix, disconnected="max_finite"
) -> np.ndarray:
    """All-pairs shortest path lengths with edge length ``1/weight``.

    Parameters
    ----------
    matrix : ConnectivityMatrix
        Validated weight matrix; zero weights mean no edge.
    disconnected : str or (str, float)
        What to store for node pairs with no connecting path:
        ``"max_finite"`` (default) uses the subject's largest finite
        shortest-path length, ``("constant", v)`` or ``"constant:<v>"``
        uses the fixed finite value ``v``, and ``"error"`` raises.

    Returns
    -------
    numpy.ndarray
        Symmetric matrix of path lengths with zero diagonal.

    Raises
    ------
    ValidationError
        If the policy is unknown or its constant is not finite (checked
        before any path is computed), under the ``"error"`` policy if any
        pair is disconnected, or under ``"max_finite"`` if every pair is
        disconnected so no finite maximum exists.
    NumericalError
        If the search produced a NaN, which no policy may fill.
    """
    policy, constant = _normalize_disconnected_policy(disconnected)
    weights = matrix.weights
    n = matrix.n_nodes
    with np.errstate(divide="ignore"):
        dist = np.where(weights > 0, 1.0 / weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    # Floyd-Warshall. The input is symmetric and addition commutes, so
    # ``dist`` stays exactly symmetric after every k, and column k is row k.
    # Pivot k's sums ``d_ik + d_kj`` come from one rank-2 product
    # ``[d_k | 1] @ [1 ; d_k]``: each of its products is ``x * 1``, which is
    # exact, so each entry is the one rounded addition ``d_ik + d_kj``, with
    # or without FMA, and with two terms no thread split can reorder it. Any
    # IEEE BLAS gives the bytes of the broadcast sum, which is slower.
    # OpenBLAS tail kernels raise the invalid flag from padded lanes when a
    # row holds ``inf``, though every stored entry is right; the flag is
    # masked, and a NaN that did reach ``dist`` is refused after the loop.
    left = np.ones((n, 2))
    right = np.ones((2, n))
    sums = np.empty_like(dist)
    with np.errstate(invalid="ignore"):
        for k in range(n):
            left[:, 0] = right[1] = dist[k]
            np.matmul(left, right, out=sums)
            np.minimum(dist, sums, out=dist)
    if np.isnan(dist).any():
        raise NumericalError(
            "shortest-path search produced NaN"
            f" for subject {matrix.subject_id!r}"
        )

    off_diagonal = ~np.eye(n, dtype=bool)
    missing = ~np.isfinite(dist) & off_diagonal
    if missing.any():
        if policy == POLICY_ERROR:
            i, j = np.argwhere(missing)[0]
            raise ValidationError(
                f"no path between nodes {i} and {j}"
                f" for subject {matrix.subject_id!r}"
            )
        if policy == POLICY_MAX_FINITE:
            finite = dist[off_diagonal & np.isfinite(dist)]
            if finite.size == 0:
                raise ValidationError(
                    "all node pairs are disconnected; the max_finite policy"
                    f" has no finite maximum (subject {matrix.subject_id!r})"
                )
            fill = finite.max()
        else:
            fill = constant
        dist[missing] = fill
    return dist


def shortest_path_lengths(
    matrix: ConnectivityMatrix, disconnected="max_finite"
) -> np.ndarray:
    """Shortest-path features: flattened upper triangle of path lengths."""
    return flatten_upper_triangle(shortest_path_matrix(matrix, disconnected))


def matrix_exponential_symmetric(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigendecomposition.

    Computes ``Q exp(L) Q^T`` from ``a = Q L Q^T``; the result is explicitly
    symmetrized, so symmetry is exact rather than up to rounding.

    Raises
    ------
    ValidationError
        If the input is not square, not finite, or not symmetric.
    NumericalError
        If the eigendecomposition does not converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix is not square: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix exponential requires finite entries")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-12 * max(scale, 1.0):
        raise ValidationError("matrix exponential requires a symmetric input")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    result = (eigenvectors * np.exp(eigenvalues)) @ eigenvectors.T
    return (result + result.T) / 2.0


def normalized_adjacency(matrix: ConnectivityMatrix) -> np.ndarray:
    """Strength-normalized adjacency ``D^{-1/2} W D^{-1/2}``.

    D holds each node's strength, the sum of its edge weights (row sums).
    Rows and columns of isolated nodes (strength zero) are set to zero,
    the continuous limit of the normalization.
    """
    strengths = matrix.weights.sum(axis=1)
    inv_sqrt = np.zeros_like(strengths)
    positive = strengths > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(strengths[positive])
    return inv_sqrt[:, None] * matrix.weights * inv_sqrt[None, :]


def communicability_matrix(matrix: ConnectivityMatrix) -> np.ndarray:
    """Communicability between all node pairs.

    Entry (i, j) of ``exp(D^{-1/2} W D^{-1/2})``, a walk-weighted measure of
    how easily node i communicates with node j through every available route,
    not only the shortest one.
    """
    return matrix_exponential_symmetric(normalized_adjacency(matrix))


def communicability(matrix: ConnectivityMatrix) -> np.ndarray:
    """Communicability features: flattened upper triangle."""
    return flatten_upper_triangle(communicability_matrix(matrix))


def extract_features(
    matrix: ConnectivityMatrix, disconnected="max_finite"
) -> dict[str, FeatureVector]:
    """All three feature sets for one subject, keyed by measure."""
    features = {
        MEASURE_WEIGHTS: weight_features(matrix),
        MEASURE_SHORTEST_PATH: shortest_path_lengths(matrix, disconnected),
        MEASURE_COMMUNICABILITY: communicability(matrix),
    }
    return {m: FeatureVector(m, values) for m, values in features.items()}
