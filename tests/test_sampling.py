"""Tests for the three under-sampling strategies."""

import numpy as np
import pytest
from conftest import make_cohort

from connectoml import SamplerConfig, TrainConfig, ValidationError
from connectoml.connectome import MEASURES
from connectoml.folds import stratified_kfold
from connectoml.sampling import (
    apply_sampler,
    check_split,
    instance_hardness_threshold,
    near_miss_3,
    random_undersample,
)


def unbalanced_cohort(rng, n_minority=8, n_majority=20, dim=3):
    xs = rng.normal(size=(n_minority + n_majority, dim))
    ys = np.concatenate([np.zeros(n_minority), np.ones(n_majority)]).astype(int)
    order = rng.permutation(len(ys))
    return make_cohort(xs[order], ys[order])


def near_miss_oracle(points, labels, k):
    """Straightforward re-evaluation of the two-step rule on raw 2-D toys.

    Distances are computed directly from the normalized coordinates; the
    short-list, ranking, and fill steps follow the documented contract.
    """
    points = np.asarray(points, dtype=np.float64)
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalized = np.where(
        (hi > lo)[None, :], (points - lo) / span, 0.0
    )
    labels = np.asarray(labels)
    minority_label = 0 if (labels == 0).sum() < (labels == 1).sum() else 1
    minority = np.flatnonzero(labels == minority_label)
    majority = np.flatnonzero(labels != minority_label)

    def distance(i, j):
        return float(np.sqrt(((normalized[i] - normalized[j]) ** 2).sum()))

    shortlist = set()
    for j in minority:
        ranked = sorted(majority, key=lambda i: (distance(i, j), i))
        shortlist.update(ranked[: min(k, len(majority))])

    def avg_distance(i):
        nearest = sorted(distance(i, j) for j in minority)
        return sum(nearest[: min(k, len(minority))]) / min(k, len(minority))

    ranked_shortlist = sorted(shortlist, key=lambda i: (-avg_distance(i), i))
    kept = ranked_shortlist[: len(minority)]
    if len(kept) < len(minority):
        rest = sorted(set(majority) - shortlist,
                      key=lambda i: (-avg_distance(i), i))
        kept += rest[: len(minority) - len(kept)]
    return sorted(set(minority) | set(kept))


class TestRandomUndersample:
    def test_balances_49_108_cohort(self):
        rng = np.random.default_rng(0)
        cohort = unbalanced_cohort(rng, n_minority=49, n_majority=108)
        out = random_undersample(cohort, seed=4)
        assert out.class_counts() == {"HC": 49, "MCI": 49}

    def test_minority_untouched_and_order_preserved(self):
        rng = np.random.default_rng(1)
        cohort = unbalanced_cohort(rng)
        out = random_undersample(cohort, seed=3)
        minority_before = [
            s
            for s, label in zip(cohort.subject_ids, cohort.labels)
            if label == 0
        ]
        minority_after = [
            s for s, label in zip(out.subject_ids, out.labels) if label == 0
        ]
        assert minority_before == minority_after
        positions = [cohort.subject_ids.index(s) for s in out.subject_ids]
        assert positions == sorted(positions)

    def test_already_balanced_returned_unchanged(self):
        rng = np.random.default_rng(2)
        cohort = unbalanced_cohort(rng, n_minority=10, n_majority=10)
        out = random_undersample(cohort, seed=9)
        assert out.subject_ids == cohort.subject_ids

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        cohort = unbalanced_cohort(rng)
        first = random_undersample(cohort, seed=11)
        second = random_undersample(cohort, seed=11)
        assert first.subject_ids == second.subject_ids
        assert first.subject_ids != random_undersample(cohort, 12).subject_ids

    def test_single_class_rejected(self):
        cohort = make_cohort(np.zeros((5, 2)), np.ones(5, dtype=int))
        with pytest.raises(ValidationError, match="single class"):
            random_undersample(cohort, seed=0)


class TestNearMiss3:
    def test_matches_exhaustive_oracle_on_hand_toy(self):
        # 3 minority points near the origin, 8 majority points spread out.
        points = np.array(
            [
                [0.0, 0.0], [0.4, 0.1], [0.1, 0.5],          # minority
                [1.0, 0.2], [1.3, 1.1], [0.2, 1.2], [2.0, 0.3],
                [2.4, 2.2], [0.3, 2.1], [3.1, 1.0], [1.1, 3.0],  # majority
            ]
        )
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        cohort = make_cohort(points, labels)
        out = near_miss_3(cohort, k=3)
        expected = near_miss_oracle(points, labels, k=3)
        kept_ids = sorted(out.subject_ids)
        assert kept_ids == sorted(cohort.subject_ids[i] for i in expected)

    def test_matches_oracle_on_random_toys(self):
        # The last 20 toys sit on a quarter lattice whose corners (0, 0) and
        # (2, 2) fix every span at 2. Their normalized coordinates and
        # squared distances are then exact, so distance ties are real ties
        # for the library and for the oracle, which is handed the same
        # fused coordinates the library measures, and the index tie-break
        # decides them.
        rng = np.random.default_rng(5)
        for trial in range(40):
            lattice = trial >= 20
            n_minority = int(rng.integers(2, 6))
            high = 40 if lattice else 14
            n_majority = int(rng.integers(n_minority + 1, high))
            if lattice:
                points = rng.integers(0, 9, (n_minority + n_majority, 2)) / 4
                points[0], points[-1] = 0.0, 2.0
            else:
                points = rng.normal(size=(n_minority + n_majority, 2)) * 3
            labels = np.concatenate(
                [np.zeros(n_minority), np.ones(n_majority)]
            ).astype(int)
            perm = rng.permutation(len(labels))
            cohort = make_cohort(points[perm], labels[perm])
            k = int(rng.integers(1, 5))
            out = near_miss_3(cohort, k=k)
            if lattice:
                points = np.hstack([points] * len(MEASURES))
            expected = near_miss_oracle(points[perm], labels[perm], k)
            assert sorted(out.subject_ids) == sorted(
                cohort.subject_ids[i] for i in expected
            )

    def test_output_balanced(self):
        rng = np.random.default_rng(6)
        cohort = unbalanced_cohort(rng, n_minority=7, n_majority=19)
        out = near_miss_3(cohort, k=3)
        counts = out.class_counts()
        assert counts["HC"] == counts["MCI"] == 7

    def test_k_larger_than_minority_clamped(self):
        rng = np.random.default_rng(7)
        cohort = unbalanced_cohort(rng, n_minority=2, n_majority=9)
        out = near_miss_3(cohort, k=50)
        counts = out.class_counts()
        assert counts["HC"] == counts["MCI"] == 2

    def test_far_majority_point_retained_when_fill_is_needed(self):
        # Four minority points share the same three nearest majority
        # neighbors, so the short-list (3) is smaller than the minority
        # count (4) and the fill step must pick up the far point.
        minority = np.array(
            [[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [0.2, 0.2]]
        )
        near_cluster = np.array([[1.0, 1.0], [1.1, 1.0], [1.0, 1.1]])
        mid = np.array([[2.0, 2.0], [2.2, 2.0]])
        far = np.array([[30.0, 30.0]])
        points = np.vstack([minority, near_cluster, mid, far])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        cohort = make_cohort(points, labels)
        out = near_miss_3(cohort, k=3)
        far_id = cohort.subject_ids[9]
        assert far_id in out.subject_ids
        counts = out.class_counts()
        assert counts["HC"] == counts["MCI"] == 4


IHT_TRAIN = TrainConfig(seed=1, max_iterations=30)


class TestInstanceHardness:

    def planted_cohort(self, rng):
        # Minority cluster at the origin, majority cluster at (4, 4), plus
        # three majority-labelled points planted inside the minority cluster.
        minority = rng.normal(0.0, 0.3, (10, 2))
        majority = rng.normal(4.0, 0.3, (13, 2))
        flipped = rng.normal(0.0, 0.3, (3, 2))
        points = np.vstack([minority, majority, flipped])
        labels = np.concatenate([np.zeros(10), np.ones(16)]).astype(int)
        ids = (
            [f"min{i}" for i in range(10)]
            + [f"maj{i}" for i in range(13)]
            + [f"flip{i}" for i in range(3)]
        )
        return make_cohort(points, labels, ids=ids)

    def test_balanced_and_minority_intact(self):
        rng = np.random.default_rng(8)
        cohort = self.planted_cohort(rng)
        out = instance_hardness_threshold(cohort, 0, IHT_TRAIN)
        counts = out.class_counts()
        assert counts["HC"] == counts["MCI"] == 10
        assert all(f"min{i}" in out.subject_ids for i in range(10))

    def test_flipped_points_removed_first(self):
        rng = np.random.default_rng(9)
        cohort = self.planted_cohort(rng)
        out = instance_hardness_threshold(cohort, 0, IHT_TRAIN)
        assert not any(s.startswith("flip") for s in out.subject_ids)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        cohort = self.planted_cohort(rng)
        first = instance_hardness_threshold(cohort, 2, IHT_TRAIN)
        second = instance_hardness_threshold(cohort, 2, IHT_TRAIN)
        assert first.subject_ids == second.subject_ids

    def test_insufficient_samples_for_folds_rejected(self):
        rng = np.random.default_rng(11)
        cohort = unbalanced_cohort(rng, n_minority=3, n_majority=9)
        with pytest.raises(ValidationError, match="fold"):
            instance_hardness_threshold(cohort, 0, IHT_TRAIN)

    def test_check_split_raises_what_the_sampler_raises(self):
        cohort = unbalanced_cohort(
            np.random.default_rng(11), n_minority=3, n_majority=9
        )
        iht = SamplerConfig(method="instance_hardness")
        with pytest.raises(ValidationError) as raised:
            apply_sampler(cohort, iht, 0, IHT_TRAIN, np.arange(cohort.size))
        with pytest.raises(ValidationError) as checked:
            check_split(iht, cohort.labels)
        assert str(checked.value) == str(raised.value)
        # Only instance hardness has a minimum, and balanced rows sample
        # nothing.
        check_split(SamplerConfig(method="random"), cohort.labels)
        check_split(iht, np.array([0, 0, 1, 1]))


SAMPLED = {
    "random": lambda cohort: random_undersample(cohort, 5),
    "near_miss_3": near_miss_3,
    "instance_hardness": lambda cohort: instance_hardness_threshold(
        cohort, 5, IHT_TRAIN
    ),
}


class TestSamplerContracts:
    def fold_rows(self, seed):
        """An unbalanced cohort and the training rows of one of its folds,
        which leave subjects of both classes out."""
        rng = np.random.default_rng(seed)
        cohort = unbalanced_cohort(rng, n_minority=12, n_majority=30)
        fold = stratified_kfold(cohort.labels, 3, seed)[1]
        return cohort, fold.train_indices

    @pytest.mark.parametrize("method", sorted(SAMPLED))
    def test_kept_positions_are_a_balanced_subset_of_rows(self, method):
        cohort, rows = self.fold_rows(12)
        kept = apply_sampler(
            cohort, SamplerConfig(method=method), 5, IHT_TRAIN, rows
        )
        assert kept.dtype == np.int64
        assert np.all(np.diff(kept) > 0)
        assert set(kept.tolist()) <= set(rows.tolist())
        labels = cohort.labels[rows]
        minority = int(np.argmin(np.bincount(labels)))
        assert set(rows[labels == minority].tolist()) <= set(kept.tolist())
        counts = np.bincount(cohort.labels[kept])
        assert counts[0] == counts[1] == np.sum(labels == minority)

    @pytest.mark.parametrize("method", sorted(SAMPLED))
    def test_positions_keep_what_the_sampler_keeps_of_the_subset(
        self, method
    ):
        # The fold path hands the sampler the cohort and a fold's training
        # rows; it keeps the subjects the sampler keeps of those rows alone.
        cohort, rows = self.fold_rows(13)
        kept = apply_sampler(
            cohort, SamplerConfig(method=method), 5, IHT_TRAIN, rows
        )
        expected = SAMPLED[method](cohort.subset(rows))
        assert expected.subject_ids == tuple(
            cohort.subject_ids[i] for i in kept
        )

    @pytest.mark.parametrize("method", sorted(SAMPLED))
    def test_public_function_subsets_the_kept_positions(self, method):
        cohort, _ = self.fold_rows(14)
        every_row = np.arange(cohort.size)
        kept = apply_sampler(
            cohort, SamplerConfig(method=method), 5, IHT_TRAIN, every_row
        )
        out = SAMPLED[method](cohort)
        expected = cohort.subset(kept)
        assert out.subject_ids == expected.subject_ids
        assert np.array_equal(out.labels, expected.labels)
        assert np.array_equal(out.fused(), expected.fused())

    @pytest.mark.parametrize("method", ["none"] + sorted(SAMPLED))
    def test_rows_come_back_as_they_are_when_none_is_dropped(self, method):
        # Sampler none keeps every row; so does any sampler handed rows
        # that are already balanced.
        rng = np.random.default_rng(13)
        cohort = unbalanced_cohort(rng, n_minority=10, n_majority=20)
        labels = cohort.labels
        rows = np.sort(
            np.concatenate(
                [np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)[:10]]
            )
        )
        if method == "none":
            rows = np.arange(cohort.size)
        out = apply_sampler(
            cohort, SamplerConfig(method=method), 0, IHT_TRAIN, rows
        )
        assert out is rows

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown sampler"):
            SamplerConfig(method="smote")

    def test_minority_can_be_the_mci_class(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(20, 3))
        ys = np.concatenate([np.zeros(15), np.ones(5)]).astype(int)
        cohort = make_cohort(xs, ys)
        out = random_undersample(cohort, seed=1)
        counts = out.class_counts()
        assert counts["HC"] == counts["MCI"] == 5
