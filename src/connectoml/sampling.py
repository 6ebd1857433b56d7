"""Under-sampling strategies for rebalancing a majority-heavy cohort.

All three strategies remove majority-class subjects until both classes have
the original minority size; the minority class is never touched and every
retained subject keeps its rows in all three feature matrices. Distances and
hardness scores are computed on the min-max normalized fused feature vector
so that all downstream classifiers see the same retained subjects; instance
hardness scales each of its internal folds as the fold path scales a fold.

A :class:`SamplerConfig` names only a method and a mode. Draws follow the
run's seed, instance hardness trains under the run's ``TrainConfig``, and
the two counts are :data:`NEAR_MISS_NEIGHBORS` and :data:`IHT_INTERNAL_FOLDS`.
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

MODE_DATASET = "dataset"
MODE_FOLD = "fold"

#: Neighbors near-miss-3 short-lists and scores by.
NEAR_MISS_NEIGHBORS = 3

#: Internal cross-validation folds of the instance-hardness estimate.
IHT_INTERNAL_FOLDS = 5

# Stream tag that derives the internal fold seed of instance hardness.
_IHT_SPLIT_STREAM = 101


@dataclass(frozen=True)
class SamplerConfig:
    """Which strategy to apply, and where.

    ``mode`` controls where the sampler runs during evaluation: once on the
    full cohort before cross-validation (``dataset``, the default) or inside
    each training fold only (``fold``), which avoids test-set leakage.
    """

    method: str = METHOD_NONE
    mode: str = MODE_DATASET

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise ValidationError(f"unknown sampler method {self.method!r}")
        if self.mode not in (MODE_DATASET, MODE_FOLD):
            raise ValidationError(f"unknown sampler mode {self.mode!r}")

    @property
    def leaks(self) -> bool:
        """Whether the kept subjects depend on the future test subjects: a
        data-dependent method (near-miss-3, instance hardness) run on the
        full cohort (``dataset`` mode)."""
        return self.mode == MODE_DATASET and self.method in (
            METHOD_NEAR_MISS_3,
            METHOD_INSTANCE_HARDNESS,
        )


def _split_by_class(cohort: LabeledCohort):
    """(minority_indices, majority_indices), or None when already balanced."""
    labels = cohort.labels
    zeros = np.flatnonzero(labels == 0)
    ones = np.flatnonzero(labels == 1)
    if zeros.size == 0 or ones.size == 0:
        raise ValidationError("cohort contains a single class")
    if zeros.size == ones.size:
        return None
    if zeros.size < ones.size:
        return zeros, ones
    return ones, zeros


def _retain(cohort: LabeledCohort, keep_indices) -> LabeledCohort:
    return cohort.subset(np.sort(np.asarray(keep_indices, dtype=np.int64)))


def random_undersample(cohort: LabeledCohort, seed: int) -> LabeledCohort:
    """Uniformly drop majority subjects until the classes are balanced."""
    split = _split_by_class(cohort)
    if split is None:
        return cohort
    minority, majority = split
    rng = np.random.default_rng(seed)
    chosen = rng.choice(majority, size=minority.size, replace=False)
    return _retain(cohort, np.concatenate([minority, chosen]))


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


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
    if k < 1:
        raise ValidationError("k must be at least 1")
    split = _split_by_class(cohort)
    if split is None:
        return cohort
    minority, majority = split
    fused = cohort.fused()
    features = fit_normalizer(fused).transform(fused)
    distances = _pairwise_distances(features[majority], features[minority])

    nearest_majority = np.argsort(distances, axis=0, kind="stable")
    shortlisted = np.zeros(majority.size, dtype=bool)
    shortlisted[nearest_majority[: min(k, majority.size)]] = True
    nearest = np.sort(distances, axis=1)[:, : min(k, minority.size)]
    order = np.lexsort((majority, -nearest.mean(axis=1), ~shortlisted))
    kept = majority[order[: minority.size]]
    return _retain(cohort, np.concatenate([minority, kept]))


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
    split = _split_by_class(cohort)
    if split is None:
        return cohort
    minority, majority = split
    counts = np.bincount(cohort.labels)
    if counts.min() < IHT_INTERNAL_FOLDS:
        raise ValidationError(
            f"each class needs at least {IHT_INTERNAL_FOLDS} subjects for"
            f" {IHT_INTERNAL_FOLDS}-fold hardness estimation"
            f" (class counts: {counts.tolist()})"
        )

    fused = cohort.fused()
    labels = cohort.labels
    out_of_fold = np.empty(cohort.size)
    split_seed = derive_seed(seed, _IHT_SPLIT_STREAM)
    for fold in stratified_kfold(labels, IHT_INTERNAL_FOLDS, split_seed):
        member_cfg = replace(
            train_cfg, seed=derive_seed(train_cfg.seed, fold.fold)
        )
        # Each gather is a fresh copy, scaled over itself.
        rows = fused[fold.train_indices]
        normalizer = fit_normalizer(rows)
        model = train_classifier(
            normalizer.transform_in_place(rows),
            labels[fold.train_indices],
            member_cfg,
        )
        out_of_fold[fold.test_indices] = predict_proba(
            model, normalizer.transform_in_place(fused[fold.test_indices])
        )

    correct_class = np.where(labels == 1, out_of_fold, 1.0 - out_of_fold)
    order = np.lexsort((majority, -correct_class[majority]))
    kept = majority[order[: minority.size]]
    return _retain(cohort, np.concatenate([minority, kept]))


def apply_sampler(
    cohort: LabeledCohort,
    sampler: SamplerConfig,
    seed: int,
    train_cfg: TrainConfig,
) -> LabeledCohort:
    """Dispatch on ``sampler.method``; ``none`` returns the cohort unchanged.
    Draws follow ``seed``; instance hardness trains under ``train_cfg``."""
    if sampler.method == METHOD_NONE:
        return cohort
    if sampler.method == METHOD_RANDOM:
        return random_undersample(cohort, seed)
    if sampler.method == METHOD_NEAR_MISS_3:
        return near_miss_3(cohort)
    return instance_hardness_threshold(cohort, seed, train_cfg)
