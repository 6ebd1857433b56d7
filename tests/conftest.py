"""Shared test oracles and toy-data builders.

The oracles here deliberately re-derive results through different algorithms
than the library uses (truncated series instead of eigendecomposition,
Floyd-Warshall instead of Dijkstra, explicit pair counting instead of rank
sums, vector two-loop recursion instead of Gram-matrix coefficients) so that
agreement is evidence, not tautology. The bit-identity oracles
(``dijkstra_all_sources_reference``, ``write_feature_csvs_reference``) are
the straightforward forms of optimized library code, kept so tests can
require exactly the same floats and bytes.
"""

import csv
import itertools
from pathlib import Path

import numpy as np

from connectoml import LabeledCohort, MEASURES, validate_matrix
from connectoml.cohort import LABEL_NAMES


def taylor_expm(a, terms=60):
    """Matrix exponential by truncated Taylor series sum_k a^k / k!."""
    a = np.asarray(a, dtype=np.float64)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        result = result + term
    return result


def floyd_warshall(lengths):
    """All-pairs shortest paths on a dense length matrix (inf = no edge)."""
    dist = np.array(lengths, dtype=np.float64)
    np.fill_diagonal(dist, 0.0)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def dijkstra_all_sources_reference(lengths):
    """Lockstep all-sources Dijkstra that rebuilds the settled mask every
    round and masks settled entries out of each relaxation."""
    n = lengths.shape[0]
    sources = np.arange(n)
    dist = np.where(np.eye(n, dtype=bool), 0.0, np.inf)
    done = np.zeros((n, n), dtype=bool)
    for _ in range(n):
        masked = np.where(done, np.inf, dist)
        current = np.argmin(masked, axis=1)
        current_dist = masked[sources, current]
        active = np.isfinite(current_dist)
        if not active.any():
            break
        done[sources[active], current[active]] = True
        candidate = current_dist[:, None] + lengths[current]
        improve = (candidate < dist) & ~done & active[:, None]
        dist[improve] = candidate[improve]
    return dist


def shortest_path_oracle(weights, disconnected="max_finite", constant=None):
    """Independent route: invert weights to lengths, run Floyd-Warshall,
    then apply the disconnected-pair policy."""
    weights = np.asarray(weights, dtype=np.float64)
    with np.errstate(divide="ignore"):
        lengths = np.where(weights > 0, 1.0 / weights, np.inf)
    dist = floyd_warshall(lengths)
    off_diag = ~np.eye(dist.shape[0], dtype=bool)
    missing = ~np.isfinite(dist) & off_diag
    if missing.any():
        if disconnected == "error":
            raise AssertionError("oracle asked to error on disconnection")
        if disconnected == "max_finite":
            finite = dist[off_diag & np.isfinite(dist)]
            if finite.size == 0:
                raise AssertionError("no finite distance for max_finite")
            fill = finite.max()
        else:
            fill = constant
        dist[missing] = fill
    return dist


def random_connectome(rng, n_nodes, density=0.5, dyadic=False, subject_id=""):
    """Random valid connectivity matrix.

    With ``dyadic=True`` the weights are powers of two, so inverted edge
    lengths and their path sums are exactly representable in binary floating
    point and different summation orders agree bit for bit.
    """
    upper = np.triu_indices(n_nodes, k=1)
    mask = rng.random(len(upper[0])) < density
    if dyadic:
        values = 2.0 ** rng.integers(-4, 5, size=len(upper[0]))
    else:
        values = rng.uniform(0.1, 10.0, size=len(upper[0]))
    weights = np.zeros((n_nodes, n_nodes))
    weights[upper] = np.where(mask, values, 0.0)
    weights = weights + weights.T
    return validate_matrix(weights, subject_id=subject_id)


def brute_force_auc(true_labels, scores):
    """Explicit double loop over all positive-negative pairs, ties at 1/2."""
    y = np.asarray(true_labels)
    s = np.asarray(scores, dtype=np.float64)
    positives = s[y == 1]
    negatives = s[y == 0]
    wins = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def mann_whitney_exact_oracle(sample_a, sample_b):
    """Exact permutation p-value via pair counting on every group assignment."""
    a = list(map(float, sample_a))
    b = list(map(float, sample_b))
    pooled = a + b
    n, m = len(a), len(b)

    def u_of(group_a):
        group_b = [pooled[i] for i in range(n + m) if i not in set(group_a)]
        wins = 0.0
        for x in (pooled[i] for i in group_a):
            for y in group_b:
                if x > y:
                    wins += 1.0
                elif x == y:
                    wins += 0.5
        return wins

    observed = u_of(range(n))
    center = n * m / 2.0
    extreme = 0
    total = 0
    for combo in itertools.combinations(range(n + m), n):
        if abs(u_of(combo) - center) >= abs(observed - center):
            extreme += 1
        total += 1
    return observed, extreme / total


def two_loop_direction(grad, s_history, y_history, rho_history):
    """L-BFGS search direction -H.g by the classic two-loop recursion over
    lists of pairs (oldest first), as explicit level-1 vector updates."""
    q = grad.copy()
    depth = len(s_history)
    alphas = np.empty(depth)
    for i in range(depth - 1, -1, -1):
        alphas[i] = rho_history[i] * float(s_history[i] @ q)
        q -= alphas[i] * y_history[i]
    if depth:
        s, y = s_history[-1], y_history[-1]
        q *= float(s @ y) / float(y @ y)
    for i in range(depth):
        beta = rho_history[i] * float(y_history[i] @ q)
        q += (alphas[i] - beta) * s_history[i]
    return -q


def write_feature_csvs_reference(cohort, out_dir):
    """Feature store written cell by cell through ``csv.writer``, every
    value formatted by ``format(v, ".17g")``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for measure in MEASURES:
        matrix = cohort.features[measure]
        path = out_dir / f"features_{measure}.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["subject_id", "label"]
                + [f"f{i}" for i in range(matrix.shape[1])]
            )
            for row_index in range(cohort.size):
                writer.writerow(
                    [
                        cohort.subject_ids[row_index],
                        LABEL_NAMES[int(cohort.labels[row_index])],
                    ]
                    + [format(v, ".17g") for v in matrix[row_index]]
                )
        paths.append(path)
    return paths


def make_cohort(features, labels, ids=None):
    """Toy cohort where every measure shares the same feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if ids is None:
        ids = tuple(f"s{i:03d}" for i in range(features.shape[0]))
    return LabeledCohort(
        subject_ids=tuple(ids),
        labels=labels,
        features={m: features.copy() for m in MEASURES},
    )


def make_measure_cohort(features_by_measure, labels, ids=None):
    """Toy cohort with distinct per-measure feature matrices."""
    first = next(iter(features_by_measure.values()))
    if ids is None:
        ids = tuple(f"s{i:03d}" for i in range(np.asarray(first).shape[0]))
    return LabeledCohort(
        subject_ids=tuple(ids),
        labels=np.asarray(labels),
        features={
            m: np.asarray(features_by_measure[m], dtype=np.float64)
            for m in MEASURES
        },
    )
