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

import numpy as np

from .errors import NumericalError, ValidationError

MEASURE_WEIGHTS = "weights"
MEASURE_SHORTEST_PATH = "shortest_path"
MEASURE_COMMUNICABILITY = "communicability"
MEASURE_FUSED = "fused"

#: The three single-measure feature sets, in canonical order.
MEASURES = (MEASURE_WEIGHTS, MEASURE_SHORTEST_PATH, MEASURE_COMMUNICABILITY)

KNOWN_MEASURES = MEASURES + (MEASURE_FUSED,)

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
    """Flattened feature values for one subject under one measure."""

    measure: str
    values: np.ndarray

    def __post_init__(self):
        if self.measure not in KNOWN_MEASURES:
            raise ValidationError(f"unknown measure tag {self.measure!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError("feature values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValidationError(
                f"non-finite value in {self.measure!r} feature vector"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def feature_length(n_nodes: int) -> int:
    """Number of upper-triangle entries for an ``n_nodes`` square matrix."""
    return n_nodes * (n_nodes - 1) // 2


def validate_matrix(
    raw,
    symmetry_tolerance: float = DEFAULT_SYMMETRY_TOLERANCE,
    subject_id: str = "",
) -> ConnectivityMatrix:
    """Validate a raw square matrix and return a clean connectivity matrix.

    Parameters
    ----------
    raw : array_like
        Square matrix of edge weights. Small asymmetries (parser rounding
        noise) are tolerated and averaged away; the diagonal is forced to
        zero regardless of its input values.
    symmetry_tolerance : float
        Relative tolerance for asymmetry: the largest ``|raw - raw.T|``
        entry may not exceed ``symmetry_tolerance * max(|raw|)``.
    subject_id : str
        Identifier carried along for error messages and bookkeeping.

    Raises
    ------
    ValidationError
        If the input is not square, contains non-finite entries, contains
        negative off-diagonal weights, or is asymmetric beyond tolerance.
    """
    weights = np.array(raw, dtype=np.float64)
    tag = f" for subject {subject_id!r}" if subject_id else ""
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValidationError(
            f"connectivity matrix{tag} is not square: shape {weights.shape}"
        )
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
    scale = np.abs(weights).max()
    asymmetry = np.abs(weights - weights.T).max()
    if asymmetry > symmetry_tolerance * scale:
        raise ValidationError(
            f"asymmetry {asymmetry:g} exceeds tolerance"
            f" {symmetry_tolerance:g} * {scale:g} in connectivity matrix{tag}"
        )
    weights = (weights + weights.T) / 2.0
    np.fill_diagonal(weights, 0.0)
    weights.flags.writeable = False
    return ConnectivityMatrix(subject_id=subject_id, weights=weights)


def node_strengths(matrix: ConnectivityMatrix) -> np.ndarray:
    """Per-node strength: the sum of each node's edge weights (row sums)."""
    return matrix.weights.sum(axis=1)


def flatten_upper_triangle(matrix) -> np.ndarray:
    """Flatten a square matrix's strict upper triangle in row-major order.

    The output is ``[m[0,1], m[0,2], ..., m[0,n-1], m[1,2], ..., m[n-2,n-1]]``
    with length ``n * (n - 1) / 2``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    iu = np.triu_indices(matrix.shape[0], k=1)
    return matrix[iu].copy()


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
    out[np.triu_indices(n_nodes, k=1)] = values
    return out + out.T


def weight_features(matrix: ConnectivityMatrix) -> FeatureVector:
    """Raw-weight features: the flattened upper triangle of the weights."""
    return FeatureVector(MEASURE_WEIGHTS, flatten_upper_triangle(matrix.weights))


def _normalize_disconnected_policy(policy):
    """Accept 'max_finite', 'error', ('constant', v) or 'constant:<v>'."""
    if isinstance(policy, str):
        if policy in (POLICY_MAX_FINITE, POLICY_ERROR):
            return policy, None
        if policy.startswith(POLICY_CONSTANT + ":"):
            try:
                return POLICY_CONSTANT, float(policy.split(":", 1)[1])
            except ValueError:
                pass
        raise ValidationError(f"unknown disconnected-pair policy {policy!r}")
    try:
        name, value = policy
    except (TypeError, ValueError):
        raise ValidationError(
            f"unknown disconnected-pair policy {policy!r}"
        ) from None
    if name != POLICY_CONSTANT or not np.isfinite(value):
        raise ValidationError(f"unknown disconnected-pair policy {policy!r}")
    return POLICY_CONSTANT, float(value)


def _dijkstra_all_sources(lengths: np.ndarray) -> np.ndarray:
    """All-pairs shortest path distances on a dense length matrix.

    ``lengths[u, v]`` is the edge length from u to v, ``inf`` where there is
    no edge; lengths are never negative. Runs one dense argmin-based
    Dijkstra per source, all sources advanced in lockstep so the inner loop
    is vectorized; each row evolves exactly as an independent single-source
    run would.

    ``masked`` is ``dist`` with settled entries set to ``inf``, kept up to
    date in place. Relaxation needs no mask for settled entries: sources
    settle nodes in nondecreasing distance, so a settled entry's distance
    is at most ``current_dist``, and a candidate ``current_dist + length``
    with ``length >= 0`` is never strictly below it (rounding is monotone).
    """
    n = lengths.shape[0]
    sources = np.arange(n)
    dist = np.where(np.eye(n, dtype=bool), 0.0, np.inf)
    masked = dist.copy()
    candidate = np.empty((n, n))
    improve = np.empty((n, n), dtype=bool)
    for _ in range(n):
        current = np.argmin(masked, axis=1)
        current_dist = masked[sources, current]
        active = np.isfinite(current_dist)
        if not active.any():
            break
        masked[sources, current] = np.inf
        np.take(lengths, current, axis=0, out=candidate)
        candidate += current_dist[:, None]
        np.less(candidate, dist, out=improve)
        improve &= active[:, None]
        np.copyto(dist, candidate, where=improve)
        np.copyto(masked, candidate, where=improve)
    return dist


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
        uses the fixed value ``v``, and ``"error"`` raises.

    Returns
    -------
    numpy.ndarray
        Symmetric matrix of path lengths with zero diagonal.

    Raises
    ------
    ValidationError
        Under the ``"error"`` policy if any pair is disconnected, or under
        ``"max_finite"`` if every pair is disconnected so no finite maximum
        exists.
    """
    policy, constant = _normalize_disconnected_policy(disconnected)
    weights = matrix.weights
    n = matrix.n_nodes
    with np.errstate(divide="ignore"):
        lengths = np.where(weights > 0, 1.0 / weights, np.inf)
    np.fill_diagonal(lengths, np.inf)

    # Keep the upper triangle of the per-source runs and mirror it, so the
    # result is exactly symmetric (summation order along a path would
    # otherwise differ between the two directions at rounding level).
    dist = np.triu(_dijkstra_all_sources(lengths), k=1)
    dist = dist + dist.T

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
) -> FeatureVector:
    """Shortest-path features: flattened upper triangle of path lengths."""
    return FeatureVector(
        MEASURE_SHORTEST_PATH,
        flatten_upper_triangle(shortest_path_matrix(matrix, disconnected)),
    )


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

    Rows and columns of isolated nodes (strength zero) are set to zero,
    the continuous limit of the normalization.
    """
    strengths = node_strengths(matrix)
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


def communicability(matrix: ConnectivityMatrix) -> FeatureVector:
    """Communicability features: flattened upper triangle."""
    return FeatureVector(
        MEASURE_COMMUNICABILITY,
        flatten_upper_triangle(communicability_matrix(matrix)),
    )


def extract_features(
    matrix: ConnectivityMatrix, disconnected="max_finite"
) -> dict[str, FeatureVector]:
    """All three feature sets for one subject, keyed by measure."""
    return {
        MEASURE_WEIGHTS: weight_features(matrix),
        MEASURE_SHORTEST_PATH: shortest_path_lengths(matrix, disconnected),
        MEASURE_COMMUNICABILITY: communicability(matrix),
    }
