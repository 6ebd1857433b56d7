"""Under-sampling strategies for rebalancing a majority-heavy cohort.

All three strategies remove majority-class subjects until both classes have
the original minority size; the minority class is never touched and every
retained subject keeps its rows in all three feature matrices. Distances and
hardness scores are computed on the min-max normalized fused feature vector
so that all downstream classifiers see the same retained subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

# Stream tag for deriving the internal cross-validation seed of the
# instance-hardness sampler from its master seed.
_IHT_SPLIT_STREAM = 101


@dataclass(frozen=True)
class SamplerConfig:
    """Which strategy to apply, and its knobs.

    ``mode`` controls where the sampler runs during evaluation: once on the
    full cohort before cross-validation (``dataset``, the default) or inside
    each training fold only (``fold``), which avoids test-set leakage.
    """

    method: str = METHOD_NONE
    k_neighbors: int = 3
    seed: int = 0
    iht_train_config: TrainConfig = field(default_factory=TrainConfig)
    iht_internal_folds: int = 5
    mode: str = MODE_DATASET

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise ValidationError(f"unknown sampler method {self.method!r}")
        if self.mode not in (MODE_DATASET, MODE_FOLD):
            raise ValidationError(f"unknown sampler mode {self.mode!r}")
        if self.k_neighbors < 1:
            raise ValidationError("k_neighbors must be at least 1")
        if self.iht_internal_folds < 2:
            raise ValidationError("iht_internal_folds must be at least 2")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


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


def _normalized_fused(cohort: LabeledCohort) -> np.ndarray:
    fused = cohort.fused()
    return fit_normalizer(fused).transform(fused)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _by_descending_score(scores: np.ndarray, candidates: np.ndarray):
    """Candidate indices ordered by score descending, ties by ascending index."""
    order = np.lexsort((candidates, -scores))
    return candidates[order]


def near_miss_3(cohort: LabeledCohort, k: int = 3) -> LabeledCohort:
    """Two-step neighbor-based under-sampling of the majority class.

    Step 1 short-lists, for each minority subject, its k nearest majority
    neighbors. Step 2 keeps the short-listed majority subjects whose average
    distance to their k nearest minority neighbors is largest, until the
    classes are balanced; if the short-list is too small, the remaining slots
    are filled from the other majority subjects by the same criterion.

    k is clamped to the available class sizes. Distance ties are broken by
    ascending subject index.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    split = _split_by_class(cohort)
    if split is None:
        return cohort
    minority, majority = split
    features = _normalized_fused(cohort)
    distances = _pairwise_distances(features[majority], features[minority])

    k_shortlist = min(k, majority.size)
    shortlist_positions = set()
    for col in range(minority.size):
        order = np.argsort(distances[:, col], kind="stable")
        shortlist_positions.update(order[:k_shortlist].tolist())

    k_score = min(k, minority.size)
    nearest = np.sort(distances, axis=1)[:, :k_score]
    average_distance = nearest.mean(axis=1)

    target = minority.size
    shortlist = np.array(sorted(shortlist_positions), dtype=np.int64)
    ranked_shortlist = _by_descending_score(
        average_distance[shortlist], majority[shortlist]
    )
    kept = list(ranked_shortlist[:target])
    if len(kept) < target:
        rest_mask = np.ones(majority.size, dtype=bool)
        rest_mask[shortlist] = False
        rest = np.flatnonzero(rest_mask)
        ranked_rest = _by_descending_score(
            average_distance[rest], majority[rest]
        )
        kept.extend(ranked_rest[: target - len(kept)])
    return _retain(cohort, np.concatenate([minority, np.array(kept)]))


def instance_hardness_threshold(
    cohort: LabeledCohort, cfg: SamplerConfig
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
    if counts.min() < cfg.iht_internal_folds:
        raise ValidationError(
            f"each class needs at least {cfg.iht_internal_folds} subjects for"
            f" {cfg.iht_internal_folds}-fold hardness estimation"
            f" (class counts: {counts.tolist()})"
        )

    fused = cohort.fused()
    labels = cohort.labels
    out_of_fold = np.empty(cohort.size)
    split_seed = derive_seed(cfg.seed, _IHT_SPLIT_STREAM)
    for fold in stratified_kfold(labels, cfg.iht_internal_folds, split_seed):
        member_cfg = replace(
            cfg.iht_train_config,
            seed=derive_seed(cfg.iht_train_config.seed, fold.fold),
        )
        model = train_classifier(
            fused[fold.train_indices], labels[fold.train_indices], member_cfg
        )
        out_of_fold[fold.test_indices] = predict_proba(
            model, fused[fold.test_indices]
        )

    correct_class = np.where(labels == 1, out_of_fold, 1.0 - out_of_fold)
    kept = _by_descending_score(correct_class[majority], majority)[
        : minority.size
    ]
    return _retain(cohort, np.concatenate([minority, kept]))


def apply_sampler(cohort: LabeledCohort, cfg: SamplerConfig) -> LabeledCohort:
    """Dispatch on ``cfg.method``; ``none`` returns the cohort unchanged."""
    if cfg.method == METHOD_NONE:
        return cohort
    if cfg.method == METHOD_RANDOM:
        return random_undersample(cohort, cfg.seed)
    if cfg.method == METHOD_NEAR_MISS_3:
        return near_miss_3(cohort, cfg.k_neighbors)
    return instance_hardness_threshold(cohort, cfg)
