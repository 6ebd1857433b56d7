"""Repeated stratified cross-validation, metrics, and significance tests.

One experiment evaluates five classification strategies on the same folds:
the three single-measure classifiers, a classifier on the fused feature
vector, and the soft-voting ensemble (which reuses the three single-measure
models trained in the same fold). The sampler balances each fold's
training rows alone, so no test subject shapes what a fold trains on.
:func:`fit_fold` scales the training rows by one min-max normalizer and
trains the four models of one fold, and :meth:`FoldModels.scores` scales
the test rows by it and scores them under all five strategies;
:func:`run_experiment` trains and scores through these alone. Both take a
fresh gather of the cohort's rows and scale it over itself, so a unit holds
one copy of its training rows while it fits and gathers its test rows only
after the four fits return. Metrics are computed per test fold with MCI as
the positive class.

:func:`run_experiment` deals the (repetition, fold) units and checks each
training split against the sampler before any unit runs, runs the units,
and returns :func:`summarize` of their per-fold values: each metric's mean
and standard error over all repetitions * folds values, and pairwise
Mann-Whitney U tests of the strategies on those per-fold samples.

Each (repetition, fold) unit is independent of the others: they run on
every available core through :func:`~connectoml._pool.ordered_map`, the
first in this process beside the workers, and their metrics come back in
unit order, every unit on one OpenBLAS thread. Every random draw of a
unit is keyed by :func:`~connectoml.folds.derive_seed`, so reports do not
depend on the number of cores or of BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import sampling
from ._pool import ordered_map
from .cohort import LABEL_HC, LABEL_MCI, LabeledCohort, measure_columns
from .connectome import MEASURES
from .errors import ValidationError
from .folds import check_fold_minimum, derive_seed, stratified_kfold
from .neuralnet import MinMaxNormalizer, MlpParameters, TrainConfig
from .neuralnet import fit_normalizer, predict_proba, train_classifier
from .sampling import SamplerConfig, apply_sampler, check_split

STRATEGY_FUSION = "fusion"
STRATEGY_ENSEMBLE = "ensemble"

#: The five strategies every experiment reports on, in canonical order.
STRATEGIES = MEASURES + (STRATEGY_FUSION, STRATEGY_ENSEMBLE)

METRIC_NAMES = ("accuracy", "auc", "sensitivity", "specificity", "f1")

#: The ``schema`` every report is written with, and the only one
#: :func:`connectoml.dataio.load_report` reads.
REPORT_SCHEMA = "connectoml-report/1"

#: Largest min(n, m) for which the Mann-Whitney p-value is computed exactly
#: when ``method="auto"``.
EXACT_ENUMERATION_LIMIT = 8

#: Auto mode also refuses exact tests beyond this many group assignments
#: (min(n, m) can be small while comb(n + m, min) is astronomical).
_EXACT_ENUMERATION_BUDGET = 300_000


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, with tied values sharing the average rank."""
    _, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    # A tie group holds the ranks ends - counts + 1 through ends.
    ends = np.cumsum(counts)
    return ((ends - counts + ends + 1) / 2.0)[inverse]


def auc(true_labels, scores) -> float:
    """Area under the ROC curve as a rank statistic.

    Equals the probability that a uniformly chosen positive outranks a
    uniformly chosen negative, with ties counted one half: the U statistic
    of the positives over the negatives, per pair. U comes from midranks,
    which reproduces brute-force pair counting exactly.
    """
    y = np.asarray(true_labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.size == 0:
        raise ValidationError("cannot compute AUC on an empty fold")
    positives = int(np.sum(y == 1))
    negatives = int(np.sum(y == 0))
    if positives == 0 or negatives == 0:
        raise ValidationError("AUC requires both classes in the fold")
    return _u_statistic(s[y == 1], s[y == 0]) / (positives * negatives)


def compute_fold_metrics(true_labels, predicted_labels, scores) -> dict:
    """Confusion-matrix metrics plus AUC for one fold (MCI = positive), as
    ``{metric: value}`` in :data:`METRIC_NAMES` order."""
    y = np.asarray(true_labels)
    pred = np.asarray(predicted_labels)
    fold_auc = auc(y, scores)  # also rejects empty and one-class folds
    tp = int(np.sum((y == 1) & (pred == 1)))
    fn = int(np.sum((y == 1) & (pred == 0)))
    tn = int(np.sum((y == 0) & (pred == 0)))
    fp = int(np.sum((y == 0) & (pred == 1)))
    return {
        "accuracy": (tp + tn) / y.size,
        "auc": fold_auc,
        "sensitivity": tp / (tp + fn),
        "specificity": tn / (tn + fp),
        "f1": 2 * tp / (2 * tp + fp + fn),
    }


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _u_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Wins of sample a over sample b, ties counted one half."""
    combined = np.concatenate([a, b])
    rank_sum_a = float(np.sum(_midranks(combined)[: a.size]))
    return rank_sum_a - a.size * (a.size + 1) / 2.0


def _exact_p_value(a: np.ndarray, b: np.ndarray, u_observed: float) -> float:
    """Share of the ``comb(n + m, n)`` assignments of the pooled values to
    the groups whose U is at least as far from ``n * m / 2`` as observed.

    Midranks are multiples of 1/2, so doubled they are integers, and
    ``counts[j, s]`` counts the j-subsets of the values seen so far whose
    doubled rank sum is ``s``; each pooled value adds its shifted rows once.
    The counts are exact integers, so the p-value is the one of enumerating
    every assignment.
    """
    n, m = a.size, b.size
    total = math.comb(n + m, n)
    doubled = (2.0 * _midranks(np.concatenate([a, b]))).astype(np.int64)
    # Object integers do not overflow where comb(n + m, n) would in int64.
    dtype = np.int64 if total < 2**63 else object
    counts = np.zeros((n + 1, int(doubled.sum()) + 1), dtype=dtype)
    counts[0, 0] = 1
    for r in doubled:
        # The right side is copied first: row j takes the j-1 subsets as
        # they were before this value.
        counts[1:, r:] += counts[:-1, :-r].copy()
    # 2U - n*m of a subset with doubled rank sum s, in integers.
    deviation = np.abs(np.arange(counts.shape[1]) - n * (n + 1) - n * m)
    extreme = counts[n, deviation >= abs(2.0 * u_observed - n * m)].sum()
    return int(extreme) / total


def mann_whitney_u(sample_a, sample_b, method: str = "auto"):
    """Two-sided Mann-Whitney U test.

    Parameters
    ----------
    sample_a, sample_b : array_like
        Nonempty samples of real values.
    method : str
        ``"exact"`` counts every way of assigning the pooled values to the
        two groups (feasible for small samples), ``"normal"`` uses the
        normal approximation with tie-corrected variance, a continuity
        correction, and (for untied data) a fourth-cumulant Edgeworth
        refinement; ``"auto"`` picks exact when ``min(n, m) <= 8`` and there
        are at most 300,000 assignments.

    Returns
    -------
    (float, float)
        The U statistic of ``sample_a`` and the two-sided p-value. The
        p-value is symmetric in the two samples; U itself is not (the two
        statistics sum to ``n * m``).
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValidationError("both samples must be nonempty")
    if method not in ("auto", "exact", "normal"):
        raise ValidationError(f"unknown method {method!r}")
    n, m = a.size, b.size
    u_observed = _u_statistic(a, b)
    if method == "auto":
        small = (
            min(n, m) <= EXACT_ENUMERATION_LIMIT
            and math.comb(n + m, min(n, m)) <= _EXACT_ENUMERATION_BUDGET
        )
        method = "exact" if small else "normal"

    if method == "exact":
        return float(u_observed), _exact_p_value(a, b, u_observed)

    pooled = np.concatenate([a, b])
    total = n + m
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    variance = (n * m / 12.0) * (
        (total + 1) - tie_term / (total * (total - 1))
    )
    if variance <= 0:
        return float(u_observed), 1.0
    deviation = abs(u_observed - n * m / 2.0)
    z = max(0.0, deviation - 0.5) / math.sqrt(variance)
    p = 2.0 * _normal_sf(z)
    if tie_term == 0.0:
        # Fourth-cumulant (Edgeworth) refinement. The plain normal
        # approximation is off by up to 0.011 at n = m = 8; this term,
        # exact for the untied null, brings the worst case below 6e-4.
        kappa4 = -(n * m * (total + 1) / 120.0) * (
            n * n + m * m + n * m + n + m
        )
        gamma2 = kappa4 / (variance * variance)
        x = -z
        density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        p -= 2.0 * (gamma2 / 24.0) * (x**3 - 3.0 * x) * density
    return float(u_observed), min(1.0, max(0.0, p))


def aggregate_metrics(values):
    """Mean and standard error (ddof-1 standard deviation over sqrt(n)).

    A single value, or any constant sample, has standard error exactly zero.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("cannot aggregate an empty sample")
    if arr.size == 1 or arr.min() == arr.max():
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass
class EvaluationReport:
    """Experiment output: config echo, per-strategy summaries, pairwise tests.

    ``fold_values`` keeps the raw per-fold metric samples so reports can be
    compared against each other after the fact.
    """

    config: dict
    strategies: dict
    tests: dict
    fold_values: dict

    def __post_init__(self):
        missing = [s for s in STRATEGIES if s not in self.strategies]
        if missing:
            raise ValidationError(f"report is missing strategies: {missing}")

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "strategies": self.strategies,
            "tests": self.tests,
            "fold_values": self.fold_values,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvaluationReport":
        return cls(
            config=payload["config"],
            strategies=payload["strategies"],
            tests=payload["tests"],
            fold_values=payload["fold_values"],
        )


@dataclass(frozen=True)
class FoldModels:
    """The normalizer and the four models trained in one fold.

    ``normalizer`` scales the rows all four models take; ``members`` holds
    one classifier per measure, keyed by measure tag; ``fusion`` is the
    classifier on the fused (concatenated) features.
    """

    normalizer: MinMaxNormalizer
    members: dict
    fusion: MlpParameters

    def scores(self, rows: np.ndarray) -> dict:
        """MCI probabilities of the test ``rows`` under every strategy.

        ``rows`` is a writable float64 ``(n, 3*d)`` array laid out as a
        cohort's matrix, such as a fresh gather of its test rows; it is
        scaled over itself, once. Keys follow :data:`STRATEGIES`. The
        ensemble score is the mean of the three member scores (soft voting).
        """
        scaled = self.normalizer.transform_in_place(rows)
        scores = {
            measure: predict_proba(self.members[measure], block)
            for measure, block in measure_columns(scaled).items()
        }
        scores[STRATEGY_FUSION] = predict_proba(self.fusion, scaled)
        scores[STRATEGY_ENSEMBLE] = np.mean(
            [scores[m] for m in MEASURES], axis=0
        )
        return scores


def fit_fold(rows: np.ndarray, labels, cfg: TrainConfig) -> FoldModels:
    """Train one classifier per measure and one on the fused features.

    ``rows`` is a writable float64 ``(n, 3*d)`` array laid out as a
    cohort's matrix, such as a fresh gather of its training rows, and
    ``labels`` holds one 0/1 label per row. One normalizer, fitted on the
    rows, scales them over themselves; each member trains on its measure's
    columns of the result. All four models share the hyper-parameters and
    seed in ``cfg``.
    """
    normalizer = fit_normalizer(rows)
    scaled = normalizer.transform_in_place(rows)
    members = {
        measure: train_classifier(block, labels, cfg)
        for measure, block in measure_columns(scaled).items()
    }
    fusion = train_classifier(scaled, labels, cfg)
    return FoldModels(normalizer=normalizer, members=members, fusion=fusion)


def predict_label(probability, threshold: float = 0.5):
    """Binary decision: MCI (1) iff probability >= threshold, ties to MCI."""
    arr = np.asarray(probability, dtype=np.float64)
    labels = np.where(arr >= threshold, LABEL_MCI, LABEL_HC)
    return int(labels) if arr.ndim == 0 else labels


def check_experiment_settings(
    k: int, repetitions: int, seed: int, threshold: float
) -> None:
    """``ValidationError`` for the settings of :func:`run_experiment` that
    are wrong whatever the cohort; the fold count is checked against the
    labels there."""
    if repetitions < 1:
        raise ValidationError("repetitions must be positive")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold!r}")
    check_fold_minimum(k)


def _evaluate_unit(state, unit) -> list:
    """The :func:`compute_fold_metrics` dicts of the five strategies, in
    :data:`STRATEGIES` order, on one ``(repetition, fold)`` unit of
    :func:`run_experiment`, whose arguments ``state`` carries.

    The sampler picks the positions it keeps out of the fold's training
    indices. The unit gathers those rows once, straight from the cohort's
    matrix, and that gather is freed when :func:`fit_fold` returns, before
    the test rows are gathered.
    """
    cohort, sampler, train_cfg, seed, threshold = state
    repetition, fold = unit
    fold_seed = derive_seed(seed, repetition, fold.fold)
    train = apply_sampler(
        cohort, sampler, fold_seed, train_cfg, fold.train_indices
    )
    fold_cfg = replace(
        train_cfg, seed=derive_seed(train_cfg.seed, repetition, fold.fold)
    )
    models = fit_fold(cohort.fused()[train], cohort.labels[train], fold_cfg)
    scores = models.scores(cohort.fused()[fold.test_indices])
    test_labels = cohort.labels[fold.test_indices]
    return [
        compute_fold_metrics(
            test_labels,
            predict_label(scores[strategy], threshold),
            scores[strategy],
        )
        for strategy in STRATEGIES
    ]


def summarize(fold_values: dict, config: dict) -> EvaluationReport:
    """The report of per-fold metric values, with ``config`` as its echo.

    ``fold_values[strategy][metric]`` lists one value per (repetition,
    fold) unit, in unit order, for every strategy of :data:`STRATEGIES`
    and metric of :data:`METRIC_NAMES`. Each strategy's metric summary is
    its mean, standard error (:func:`aggregate_metrics`) and count, and
    every pair of strategies is compared per metric by
    :func:`mann_whitney_u`. Neither argument is modified, so a stored
    report's ``fold_values`` and ``config`` rebuild it.
    """
    strategies = {}
    for strategy in STRATEGIES:
        strategies[strategy] = {}
        for metric in METRIC_NAMES:
            values = fold_values[strategy][metric]
            mean, se = aggregate_metrics(values)
            strategies[strategy][metric] = {
                "mean": mean,
                "se": se,
                "n_folds": len(values),
            }

    tests = {}
    for metric in METRIC_NAMES:
        rows = []
        for i, first in enumerate(STRATEGIES):
            for second in STRATEGIES[i + 1 :]:
                u, p = mann_whitney_u(
                    fold_values[first][metric], fold_values[second][metric]
                )
                rows.append({"a": first, "b": second, "u": u, "p": p})
        tests[metric] = rows
    return EvaluationReport(
        config=config, strategies=strategies, tests=tests,
        fold_values=fold_values,
    )


def run_experiment(
    cohort: LabeledCohort,
    sampler: SamplerConfig,
    train_cfg: TrainConfig,
    k: int = 10,
    repetitions: int = 10,
    seed: int = 0,
    threshold: float = 0.5,
) -> EvaluationReport:
    """Repeated stratified k-fold evaluation of all five strategies.

    It deals the (repetition, fold) units and checks every training split
    with :func:`~connectoml.sampling.check_split`, so a split the sampler
    cannot balance fails before any unit spends work. It then runs the
    units (:func:`_evaluate_unit`) and returns :func:`summarize` of their
    fold values. To sample the whole cohort before cross-validation
    instead, hand this the cohort a public sampler of
    :mod:`connectoml.sampling` returns, with method ``none``. The first
    unit runs in this process while forked workers, one per available core,
    run the others (module docstring). Fold assignments, sampler draws and
    model initializations all derive deterministically from ``seed`` and
    ``train_cfg.seed``, and the pool runs every unit on one OpenBLAS
    thread (:mod:`connectoml._pool`); dealing, checking and
    :func:`summarize` call no BLAS. So identical inputs reproduce the
    report bit for bit whatever the core or BLAS thread count. Of several
    failing units, the first in order raises its own exception.
    """
    check_experiment_settings(k, repetitions, seed, threshold)
    units = [
        (repetition, fold)
        for repetition in range(repetitions)
        for fold in stratified_kfold(
            cohort.labels, k, derive_seed(seed, repetition)
        )
    ]
    for _, fold in units:
        check_split(sampler, cohort.labels[fold.train_indices])

    fold_values = {
        strategy: {metric: [] for metric in METRIC_NAMES}
        for strategy in STRATEGIES
    }
    state = (cohort, sampler, train_cfg, seed, threshold)
    for unit_metrics in ordered_map(_evaluate_unit, state, units):
        for strategy, metrics in zip(STRATEGIES, unit_metrics):
            for metric, value in metrics.items():
                fold_values[strategy][metric].append(value)

    config = {
        "n_subjects": cohort.size,
        "class_counts": cohort.class_counts(),
        "folds": k,
        "repetitions": repetitions,
        "seed": seed,
        "threshold": threshold,
        "sampler": {
            "method": sampler.method,
            "mode": "fold",
            "k_neighbors": sampling.NEAR_MISS_NEIGHBORS,
            "seed": seed,
            "iht_internal_folds": sampling.IHT_INTERNAL_FOLDS,
            "distance_space": "minmax_fused",
        },
        "train": asdict(train_cfg),
        "auc_mode": "per_fold",
        "significance_sample_unit": "fold",
    }
    return summarize(fold_values, config)
