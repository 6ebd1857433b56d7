"""Tests for the fold path: ``fit_fold`` trains the four models of a fold,
``FoldModels.scores`` soft-votes the members and scores fusion, one
normalizer per fold scales both sides over the rows handed to it, and
``predict_label`` turns scores into decisions."""

import numpy as np
import pytest
from conftest import fit_fold_reference, make_cohort, make_measure_cohort

import connectoml.evaluation
from connectoml import TrainConfig, ValidationError
from connectoml.connectome import MEASURES
from connectoml.evaluation import (
    STRATEGIES,
    FoldModels,
    auc,
    fit_fold,
    predict_label,
)
from connectoml.cohort import LabeledCohort, measure_columns
from connectoml.neuralnet import (
    HIDDEN_UNITS,
    MinMaxNormalizer,
    MlpParameters,
    fit_normalizer,
    predict_proba,
    train_classifier,
)


def separable_cohort(rng, n_per_class=40, dim=6, shift=3.0):
    xs = np.vstack(
        [
            rng.normal(0.0, 0.6, (n_per_class, dim)),
            rng.normal(shift, 0.6, (n_per_class, dim)),
        ]
    )
    ys = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return make_cohort(xs, ys)


def distinct_measure_cohort(rng, n_hc, n_mci, dim=5):
    """Different features per measure, MCI rows shifted by a per-measure
    amount."""
    labels = np.array([0] * n_hc + [1] * n_mci)
    features = {
        m: rng.normal(size=(labels.size, dim)) + (i + 0.5) * labels[:, None]
        for i, m in enumerate(MEASURES)
    }
    return make_measure_cohort(features, labels)


def rows_of(cohort):
    """A fresh, writable gather of the cohort's rows, as the fold path
    hands them to ``fit_fold`` and ``FoldModels.scores``."""
    return cohort.fused().copy()


def fit(train, cfg):
    """``fit_fold`` on a fresh gather of the training cohort's rows."""
    return fit_fold(rows_of(train), train.labels, cfg)


def split_alternating(cohort):
    """Even rows train, odd rows test; both classes land on both sides."""
    rows = np.arange(cohort.size)
    return cohort.subset(rows[0::2]), cohort.subset(rows[1::2])


def constant_model(probability, input_dim=1):
    """Model whose output is ``probability`` (up to rounding) for any input:
    zero weights and the output bias at logit(probability)."""
    shapes = (
        (input_dim, HIDDEN_UNITS),
        (HIDDEN_UNITS, HIDDEN_UNITS),
        (HIDDEN_UNITS, 1),
    )
    biases = (
        np.zeros(HIDDEN_UNITS),
        np.zeros(HIDDEN_UNITS),
        np.array([np.log(probability / (1.0 - probability))]),
    )
    return MlpParameters(tuple(np.zeros(s) for s in shapes), biases)


def models_of(fold):
    return [fold.members[m] for m in MEASURES] + [fold.fusion]


class TestFitFold:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: separable_cohort(rng, n_per_class=12, dim=4),
            lambda rng: distinct_measure_cohort(rng, 14, 14),
            lambda rng: distinct_measure_cohort(rng, 8, 22, dim=3),
            # 20 training rows: every fit's input is wider (d > n) ...
            lambda rng: distinct_measure_cohort(rng, 16, 24, dim=45),
            # ... or 45 rows, every input narrower (d <= n): each fit's
            # Gram is rank-deficient.
            lambda rng: distinct_measure_cohort(rng, 40, 50, dim=12),
        ],
        ids=[
            "shared_features",
            "distinct_measures",
            "unequal_classes",
            "d_above_n",
            "d_at_most_n",
        ],
    )
    def test_scores_bit_identical_to_reference(self, build):
        train, test = split_alternating(build(np.random.default_rng(20)))
        cfg = TrainConfig(seed=4, max_iterations=15)
        expected = fit_fold_reference(train, test, cfg)
        fold = fit_fold(rows_of(train), train.labels, cfg)
        scores = fold.scores(rows_of(test))
        assert tuple(scores) == STRATEGIES == tuple(expected)
        for strategy in STRATEGIES:
            assert np.array_equal(scores[strategy], expected[strategy])

    def test_trains_four_models_through_the_module_global(self, monkeypatch):
        widths = []
        original = connectoml.evaluation.train_classifier

        def recording_train(xs, ys, cfg):
            widths.append(np.asarray(xs).shape[1])
            return original(xs, ys, cfg)

        monkeypatch.setattr(
            connectoml.evaluation, "train_classifier", recording_train
        )
        train = distinct_measure_cohort(np.random.default_rng(21), 6, 6, 2)
        fold = fit(train, TrainConfig(seed=1, max_iterations=3))
        assert widths == [2, 2, 2, 6]
        assert [model.input_dim for model in models_of(fold)] == widths

    def test_one_normalizer_scales_each_side_once(self, monkeypatch):
        fits, transforms = [], []
        original_fit = connectoml.evaluation.fit_normalizer
        original_transform = MinMaxNormalizer.transform_in_place

        def recording_fit(x):
            fits.append(x)
            return original_fit(x)

        def recording_transform(self, rows):
            transforms.append(rows)
            return original_transform(self, rows)

        monkeypatch.setattr(
            connectoml.evaluation, "fit_normalizer", recording_fit
        )
        monkeypatch.setattr(
            MinMaxNormalizer, "transform_in_place", recording_transform
        )
        train, test = split_alternating(
            distinct_measure_cohort(np.random.default_rng(22), 8, 8, 3)
        )
        train_rows, test_rows = rows_of(train), rows_of(test)
        cfg = TrainConfig(seed=1, max_iterations=3)
        fold = fit_fold(train_rows, train.labels, cfg)
        fold.scores(test_rows)
        # One fit and one scaling of the training rows handed over, then one
        # scaling of the test rows; each is written over the rows themselves.
        assert len(fits) == 1 and fits[0] is train_rows
        assert len(transforms) == 2
        assert transforms[0] is train_rows and transforms[1] is test_rows
        normalizer = fit_normalizer(train.fused())
        assert np.array_equal(train_rows, normalizer.transform(train.fused()))
        assert np.array_equal(test_rows, normalizer.transform(test.fused()))


class TestTrainEnsemble:
    def test_identical_members_vote_like_any_single_member(self):
        rng = np.random.default_rng(0)
        cohort = separable_cohort(rng)
        fold = fit(cohort, TrainConfig(seed=5, max_iterations=20))
        scores = fold.scores(rows_of(cohort))
        first = scores[MEASURES[0]]
        for measure in MEASURES:
            assert np.array_equal(scores[measure], first)
        # (x + x + x) / 3 may round one ulp away from x.
        np.testing.assert_allclose(scores["ensemble"], first, rtol=1e-15)

    def test_held_out_auc_on_separable_cohort(self):
        rng = np.random.default_rng(1)
        train = separable_cohort(rng)
        test = separable_cohort(rng)
        fold = fit(train, TrainConfig(seed=2, max_iterations=40))
        assert auc(test.labels, fold.scores(rows_of(test))["ensemble"]) >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        cohort = distinct_measure_cohort(rng, 15, 15, dim=4)
        cfg = TrainConfig(seed=7, max_iterations=15)
        first = fit(cohort, cfg)
        second = fit(cohort, cfg)
        for a, b in zip(models_of(first), models_of(second)):
            for x, y in zip(
                a.layer_weights + a.layer_biases,
                b.layer_weights + b.layer_biases,
            ):
                assert np.array_equal(x, y)
        for strategy in STRATEGIES:
            assert np.array_equal(
                first.scores(rows_of(cohort))[strategy],
                second.scores(rows_of(cohort))[strategy],
            )

    def test_member_training_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        features = {
            m: rng.normal(size=(20, 4)) + i for i, m in enumerate(MEASURES)
        }
        labels = (rng.random(20) < 0.5).astype(int)
        labels[:2] = [0, 1]  # both classes guaranteed
        cohort = make_measure_cohort(features, labels)
        cfg = TrainConfig(seed=1, max_iterations=10)
        scores = fit(cohort, cfg).scores(rows_of(cohort))
        # Train each model on its own, in reversed order; results agree.
        scaled = fit_normalizer(cohort.fused()).transform(cohort.fused())
        fusion = train_classifier(scaled, cohort.labels, cfg)
        np.testing.assert_array_equal(
            predict_proba(fusion, scaled), scores["fusion"]
        )
        blocks = measure_columns(scaled)
        for measure in reversed(MEASURES):
            model = train_classifier(blocks[measure], cohort.labels, cfg)
            np.testing.assert_array_equal(
                predict_proba(model, blocks[measure]), scores[measure]
            )


class TestSoftVote:
    def test_mean_of_member_probabilities(self):
        rng = np.random.default_rng(4)
        train, test = split_alternating(distinct_measure_cohort(rng, 12, 16))
        fold = fit(train, TrainConfig(seed=3, max_iterations=10))
        blocks = measure_columns(fold.normalizer.transform(test.fused()))
        members = np.array(
            [predict_proba(fold.members[m], blocks[m]) for m in MEASURES]
        )
        assert np.array_equal(
            fold.scores(rows_of(test))["ensemble"], members.mean(axis=0)
        )

    def test_hand_values_average(self):
        fold = FoldModels(
            normalizer=MinMaxNormalizer(np.zeros(3), np.ones(3)),
            members={
                m: constant_model(p) for m, p in zip(MEASURES, (0.2, 0.4, 0.9))
            },
            fusion=constant_model(0.7, input_dim=3),
        )
        cohort = make_cohort(np.arange(4.0)[:, None], [0, 1, 0, 1])
        scores = fold.scores(rows_of(cohort))
        np.testing.assert_allclose(scores["ensemble"], 0.5, rtol=1e-12)
        np.testing.assert_allclose(scores["fusion"], 0.7, rtol=1e-12)
        for measure, p in zip(MEASURES, (0.2, 0.4, 0.9)):
            np.testing.assert_allclose(scores[measure], p, rtol=1e-12)

    def test_vote_stays_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        cohort = separable_cohort(rng, n_per_class=10)
        fold = fit(cohort, TrainConfig(seed=5, max_iterations=5))
        votes = fold.scores(rows_of(cohort))["ensemble"]
        assert np.all(votes > 0) and np.all(votes < 1)


class TestFuseFeatures:
    def test_lengths_concatenate(self):
        cohort = make_cohort(np.zeros((2, 7140)), [0, 1])
        assert cohort.fused().shape == (2, 21420)

    def test_tiny_example(self):
        cohort = make_measure_cohort(
            {
                "weights": [[1.0]],
                "shortest_path": [[2.0]],
                "communicability": [[3.0]],
            },
            [1],
        )
        assert np.array_equal(cohort.fused(), [[1.0, 2.0, 3.0]])

    def test_order_follows_measure_tags_not_argument_order(self):
        rng = np.random.default_rng(8)
        labels = np.array([0, 1] * 6)
        shifts = {"communicability": 30.0, "weights": 10.0,
                  "shortest_path": 20.0}
        blocks = {m: rng.normal(size=(12, 2)) + s for m, s in shifts.items()}
        cohort = make_measure_cohort(blocks, labels)
        for measure in MEASURES:
            assert np.array_equal(cohort.features[measure], blocks[measure])
        fold = fit(cohort, TrainConfig(seed=2, max_iterations=3))
        # The fold's one normalizer covers the measures in the same order.
        assert np.array_equal(
            fold.normalizer.minimum,
            np.concatenate(
                [cohort.features[m].min(axis=0) for m in MEASURES]
            ),
        )

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 4), "same number of columns for every measure"),
            ((3, 6), "one row per subject"),
            ((6,), "one row per subject"),
        ],
        ids=["width_not_three_blocks", "extra_row", "one_dimensional"],
    )
    def test_mismatched_lengths_rejected(self, shape, message):
        with pytest.raises(ValidationError, match=message):
            LabeledCohort(("a", "b"), [0, 1], np.zeros(shape))


class TestCohortIdentity:
    def test_equality_and_hash_follow_identity(self):
        # Cohorts hold arrays, so they compare by identity: a copy is a
        # different cohort, and every cohort can key a dict or set.
        cohort = make_cohort(np.zeros((2, 3)), [0, 1])
        twin = make_cohort(np.zeros((2, 3)), [0, 1])
        assert cohort == cohort
        assert cohort != twin
        assert {cohort: 1, twin: 2}[cohort] == 1
        assert hash(cohort) == hash(cohort)


class TestPredictLabel:
    def test_below_threshold_is_hc(self):
        assert predict_label(0.49) == 0

    def test_above_threshold_is_mci(self):
        assert predict_label(0.51) == 1

    def test_tie_goes_to_mci(self):
        assert predict_label(0.50) == 1

    def test_custom_threshold_and_batch(self):
        out = predict_label(np.array([0.2, 0.7, 0.35]), threshold=0.35)
        assert np.array_equal(out, [0, 1, 1])
