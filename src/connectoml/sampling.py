"""Under-sampling strategies for rebalancing a majority-heavy cohort.

All three strategies remove majority-class subjects until both classes have
the original minority size; the minority class is never touched and every
retained subject keeps its rows in all three feature matrices. Distances and
hardness scores are computed on the min-max normalized fused feature vector
so that all downstream classifiers see the same retained subjects.

Samplers choose positions. :func:`apply_sampler` is handed a cohort and the
positions of the subjects it may keep (evaluation hands it a fold's training
rows) and returns the positions it keeps; it makes no cohort. Random
under-sampling reads the labels alone, near-miss-3 scales one fresh gather
of the rows over itself, and instance hardness gathers each internal fold's
rows straight from the cohort's matrix and scales them as the fold path
scales a fold, one internal fold at a time. The public functions return
``cohort.subset`` of the positions their sampler keeps; evaluating that
subset with method ``none`` balances the cohort before cross-validation,
so the kept subjects depend on the future test subjects.

Evaluation checks every training split with :func:`check_split` before the
first fit, which raises the error the sampler would raise on the split.
A :class:`SamplerConfig` names only a method. Draws follow the run's seed,
instance hardness trains under the run's ``TrainConfig``, and the two counts
are :data:`NEAR_MISS_NEIGHBORS` and :data:`IHT_INTERNAL_FOLDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cohort import LabeledCohort
from .errors import ValidationError
from .folds import derive_seed, stratified_kfold
from .neuralnet import TrainConfig, fit_normalizer, predict_proba, train_classifier

METHOD_NONE = "none"
METHOD_RANDOM = "random"
METHOD_NEAR_MISS_3 = "near_miss_3"
METHOD_INSTANCE_HARDNESS = "instance_hardness"

SAMPLER_METHODS = (
    METHOD_NONE,
    METHOD_RANDOM,
    METHOD_NEAR_MISS_3,
    METHOD_INSTANCE_HARDNESS,
)

#: Neighbors near-miss-3 short-lists and scores by.
NEAR_MISS_NEIGHBORS = 3

#: Internal cross-validation folds of the instance-hardness estimate.
IHT_INTERNAL_FOLDS = 5

# Stream tag that derives the internal fold seed of instance hardness.
_IHT_SPLIT_STREAM = 101


@dataclass(frozen=True)
class SamplerConfig:
    """Which strategy balances each training fold."""

    method: str = METHOD_NONE

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise ValidationError(f"unknown sampler method {self.method!r}")


def _split_by_class(labels: np.ndarray):
    """(minority, majority) positions in ``labels``, or None when already
    balanced."""
    zeros = np.flatnonzero(labels == 0)
    ones = np.flatnonzero(labels == 1)
    if zeros.size == 0 or ones.size == 0:
        raise ValidationError("cohort contains a single class")
    if zeros.size == ones.size:
        return None
    if zeros.size < ones.size:
        return zeros, ones
    return ones, zeros


def _kept(rows: np.ndarray, minority, kept_majority) -> np.ndarray:
    """The entries of ``rows`` at the given positions of both classes, in
    the order of ``rows``."""
    return rows[np.sort(np.concatenate([minority, kept_majority]))]


def _random_positions(cohort: LabeledCohort, rows, seed: int) -> np.ndarray:
    split = _split_by_class(cohort.labels[rows])
    if split is None:
        return rows
    minority, majority = split
    rng = np.random.default_rng(seed)
    chosen = rng.choice(majority, size=minority.size, replace=False)
    return _kept(rows, minority, chosen)


def random_undersample(cohort: LabeledCohort, seed: int) -> LabeledCohort:
    """Uniformly drop majority subjects until the classes are balanced."""
    every_row = np.arange(cohort.size)
    return cohort.subset(_random_positions(cohort, every_row, seed))


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _near_miss_3_positions(
    cohort: LabeledCohort, rows, k: int
) -> np.ndarray:
    if k < 1:
        raise ValidationError("k must be at least 1")
    split = _split_by_class(cohort.labels[rows])
    if split is None:
        return rows
    minority, majority = split
    # One fresh gather, majority subjects first, scaled over itself: the
    # normalizer's minimum and maximum do not depend on the row order, and
    # each class is a view of the result.
    features = cohort.fused()[rows[np.concatenate([majority, minority])]]
    fit_normalizer(features).transform_in_place(features)
    distances = _pairwise_distances(
        features[: majority.size], features[majority.size :]
    )

    nearest_majority = np.argsort(distances, axis=0, kind="stable")
    shortlisted = np.zeros(majority.size, dtype=bool)
    shortlisted[nearest_majority[: min(k, majority.size)]] = True
    nearest = np.sort(distances, axis=1)[:, : min(k, minority.size)]
    order = np.lexsort((majority, -nearest.mean(axis=1), ~shortlisted))
    return _kept(rows, minority, majority[order[: minority.size]])


def near_miss_3(
    cohort: LabeledCohort, k: int = NEAR_MISS_NEIGHBORS
) -> LabeledCohort:
    """Two-step neighbor-based under-sampling of the majority class.

    Step 1 short-lists, for each minority subject, its k nearest majority
    neighbors, ties of computed distance by ascending subject index. Step 2
    keeps the first minority-size majority subjects of one ordering:
    short-listed subjects first, then by average distance to their k
    nearest minority neighbors, largest first, then by ascending subject
    index. So the short-list is kept by that score, and when it is too
    small the other majority subjects fill the remaining slots by the same
    score.

    The index decides only between equal computed values. Distances come
    from the expansion ``|a|^2 + |b|^2 - 2a.b``, which can round two
    mathematically equal distances apart, and then rounding decides.

    k is clamped to the available class sizes.
    """
    every_row = np.arange(cohort.size)
    return cohort.subset(_near_miss_3_positions(cohort, every_row, k))


def _check_hardness_counts(counts: np.ndarray) -> None:
    """``ValidationError`` unless every class count of the rows instance
    hardness samples fills its internal folds."""
    if counts.min() < IHT_INTERNAL_FOLDS:
        raise ValidationError(
            f"each class needs at least {IHT_INTERNAL_FOLDS} subjects for"
            f" {IHT_INTERNAL_FOLDS}-fold hardness estimation"
            f" (class counts: {counts.tolist()})"
        )


def check_split(sampler: SamplerConfig, labels) -> None:
    """``ValidationError``, with the message :func:`apply_sampler` would
    raise, if ``sampler`` cannot balance rows with these 0/1 ``labels``.

    Only instance hardness has a minimum, and balanced rows sample nothing.
    """
    if sampler.method != METHOD_INSTANCE_HARDNESS:
        return
    counts = np.bincount(labels, minlength=2)
    if counts.min() != counts.max():
        _check_hardness_counts(counts)


def _held_out_scores(
    cohort: LabeledCohort, train, train_labels, test, cfg: TrainConfig
) -> np.ndarray:
    """MCI probabilities of the cohort's ``test`` rows under a model fitted
    on its ``train`` rows.

    Each gather is a fresh copy, scaled over itself, and is freed when this
    returns, before the next internal fold gathers its rows.
    """
    rows = cohort.fused()[train]
    normalizer = fit_normalizer(rows)
    model = train_classifier(
        normalizer.transform_in_place(rows), train_labels, cfg
    )
    return predict_proba(
        model, normalizer.transform_in_place(cohort.fused()[test])
    )


def _instance_hardness_positions(
    cohort: LabeledCohort, rows, seed: int, train_cfg: TrainConfig
) -> np.ndarray:
    labels = cohort.labels[rows]
    split = _split_by_class(labels)
    if split is None:
        return rows
    minority, majority = split
    _check_hardness_counts(np.bincount(labels))

    out_of_fold = np.empty(rows.size)
    split_seed = derive_seed(seed, _IHT_SPLIT_STREAM)
    for fold in stratified_kfold(labels, IHT_INTERNAL_FOLDS, split_seed):
        member_cfg = replace(
            train_cfg, seed=derive_seed(train_cfg.seed, fold.fold)
        )
        out_of_fold[fold.test_indices] = _held_out_scores(
            cohort,
            rows[fold.train_indices],
            labels[fold.train_indices],
            rows[fold.test_indices],
            member_cfg,
        )

    correct_class = np.where(labels == 1, out_of_fold, 1.0 - out_of_fold)
    order = np.lexsort((majority, -correct_class[majority]))
    return _kept(rows, minority, majority[order[: minority.size]])


def instance_hardness_threshold(
    cohort: LabeledCohort, seed: int, train_cfg: TrainConfig
) -> LabeledCohort:
    """Drop the majority subjects the classifier finds hardest.

    Hardness is one minus the out-of-fold probability of a subject's own
    class, estimated by internal stratified cross-validation of the MLP on
    the fused features (out-of-fold rather than resubstitution scores, so an
    overfit network cannot make every subject look easy). The majority
    subjects with the lowest correct-class probability are removed until the
    classes are balanced; probability ties are broken by ascending index.
    """
    every_row = np.arange(cohort.size)
    return cohort.subset(
        _instance_hardness_positions(cohort, every_row, seed, train_cfg)
    )


def apply_sampler(
    cohort: LabeledCohort,
    sampler: SamplerConfig,
    seed: int,
    train_cfg: TrainConfig,
    rows: np.ndarray,
) -> np.ndarray:
    """Positions in ``cohort`` of the subjects of ``rows`` that
    ``sampler.method`` keeps.

    ``rows`` holds ascending positions in ``cohort``, such as a
    fold's training indices; the sampler sees only those subjects. The
    result is the ascending subset of ``rows`` it keeps, and ``rows``
    itself when it drops none: always for ``none``, and for rows that are
    already balanced. Draws follow ``seed``; instance hardness trains under
    ``train_cfg``.
    """
    if sampler.method == METHOD_NONE:
        return rows
    if sampler.method == METHOD_RANDOM:
        return _random_positions(cohort, rows, seed)
    if sampler.method == METHOD_NEAR_MISS_3:
        return _near_miss_3_positions(cohort, rows, NEAR_MISS_NEIGHBORS)
    return _instance_hardness_positions(cohort, rows, seed, train_cfg)
