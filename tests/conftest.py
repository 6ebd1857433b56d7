"""Shared test oracles and toy-data builders.

The oracles here deliberately re-derive results through different algorithms
than the library uses (truncated series instead of eigendecomposition,
Dijkstra (``dijkstra_all_sources_reference``) instead of Floyd-Warshall,
explicit pair counting instead of rank sums, vector two-loop recursion
instead of Gram-matrix coefficients) so that agreement is evidence, not
tautology. The bit-identity oracles (``write_feature_csvs_reference``,
``fit_fold_reference``, ``midranks_reference``, ``minmax_reference``)
are the straightforward or earlier forms of library code, kept so tests can
require exactly the same floats and bytes.
``train_classifier_reference`` is the full-space fit that the
kernel-coordinate fit of ``train_classifier`` must reproduce. The
``openblas`` fixture runs a test with the loaded OpenBLAS on two threads;
mark such a test ``needs_openblas``. ``time_limit`` fails a test whose
forked workers hang.
"""

import contextlib
import csv
import itertools
import signal
from pathlib import Path

import numpy as np
import pytest

import connectoml._pool
from connectoml import validate_matrix
from connectoml.connectome import MEASURES
from connectoml.cohort import LABEL_NAMES, LabeledCohort
from connectoml.lbfgs import lbfgs_minimize
from connectoml.neuralnet import (
    fit_normalizer,
    flatten_parameters,
    init_parameters,
    loss_and_gradient,
    predict_proba,
    train_classifier,
    unflatten_parameters,
)
from connectoml.evaluation import STRATEGY_ENSEMBLE, STRATEGY_FUSION


def numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


needs_openblas = pytest.mark.skipif(
    not numpy_uses_openblas(),
    reason="numpy's BLAS is not OpenBLAS, the only BLAS that is pinned",
)


@pytest.fixture
def openblas():
    """The loaded OpenBLAS, set to two threads for the test."""
    controls = connectoml._pool._loaded_openblas()
    assert controls, "numpy uses OpenBLAS, but it was not found loaded"
    before = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(2)
    yield controls
    for (setter, _), count in zip(controls, before):
        setter(count)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a test whose forked workers hang instead of waiting forever."""

    def expired(signum, frame):
        raise AssertionError(f"forked workers took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    """All-pairs shortest paths on a dense length matrix (inf = no edge)
    by lockstep all-sources Dijkstra, which rebuilds the settled mask every
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
    """Independent route: invert weights to lengths, run the reference
    Dijkstra, then apply the disconnected-pair policy."""
    weights = np.asarray(weights, dtype=np.float64)
    with np.errstate(divide="ignore"):
        lengths = np.where(weights > 0, 1.0 / weights, np.inf)
    dist = dijkstra_all_sources_reference(lengths)
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


def midranks_reference(values):
    """Ranks starting at 1, tied values sharing the average rank, by walking
    the sorted values one tie group at a time."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    start = 0
    while start < values.size:
        stop = start
        while (
            stop + 1 < values.size
            and sorted_values[stop + 1] == sorted_values[start]
        ):
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


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


def train_classifier_reference(xs, ys, cfg):
    """The classifier fitted by L-BFGS on every parameter in the full space:
    each vector is as long as all the weights, and the first layer's
    products run over every input. Returns (MlpParameters, LbfgsResult)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    input_dim = x.shape[1]
    theta0 = flatten_parameters(init_parameters(input_dim, cfg.seed))

    def objective(theta):
        return loss_and_gradient(
            unflatten_parameters(theta, input_dim), x, y, cfg.l2_alpha
        )

    result = lbfgs_minimize(objective, theta0, cfg)
    return unflatten_parameters(result.x, input_dim), result


def minmax_reference(normalizer, x):
    """``normalizer.transform(x)`` through a zeroed output, a masked divide
    and a clip into a new array."""
    x = np.asarray(x, dtype=np.float64)
    span = normalizer.maximum - normalizer.minimum
    scaled = np.zeros_like(x, dtype=np.float64)
    np.divide(x - normalizer.minimum, span, out=scaled, where=span > 0)
    return np.clip(scaled, 0.0, 1.0)


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


def _fit_scaled(train_rows, labels, test_rows, cfg):
    """One model with its own normalizer, fitted on its training rows."""
    normalizer = fit_normalizer(train_rows)
    model = train_classifier(normalizer.transform(train_rows), labels, cfg)
    return predict_proba(model, normalizer.transform(test_rows))


def fit_fold_reference(train, test, cfg):
    """Train the four models of one fold and score the test subjects, each
    model with its own normalizer fitted on its own training columns, each
    member scored right after it is trained (the fold before ``fit_fold``
    scaled the fused matrix once)."""
    member_scores = {
        measure: _fit_scaled(
            train.features[measure], train.labels, test.features[measure],
            cfg,
        )
        for measure in MEASURES
    }
    scores = dict(member_scores)
    scores[STRATEGY_FUSION] = _fit_scaled(
        train.fused(), train.labels, test.fused(), cfg
    )
    scores[STRATEGY_ENSEMBLE] = np.mean(
        [member_scores[m] for m in MEASURES], axis=0
    )
    return scores


def make_cohort(features, labels, ids=None):
    """Toy cohort where every measure shares the same feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if ids is None:
        ids = tuple(f"s{i:03d}" for i in range(features.shape[0]))
    return LabeledCohort(ids, labels, np.hstack([features] * len(MEASURES)))


def make_measure_cohort(features_by_measure, labels, ids=None):
    """Toy cohort with distinct per-measure feature matrices, joined in
    measure order whatever the dict's order."""
    matrix = np.hstack(
        [np.asarray(features_by_measure[m], np.float64) for m in MEASURES]
    )
    if ids is None:
        ids = tuple(f"s{i:03d}" for i in range(matrix.shape[0]))
    return LabeledCohort(ids, labels, matrix)
