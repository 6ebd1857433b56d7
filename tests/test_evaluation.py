"""Tests for fold assignment, metrics, significance tests, and the harness."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    brute_force_auc,
    make_cohort,
    mann_whitney_exact_oracle,
    mann_whitney_exact_reference,
    midranks_reference,
    needs_openblas,
    stratified_kfold_reference,
    time_limit,
)

from connectoml import (
    SamplerConfig,
    TrainConfig,
    ValidationError,
    run_experiment,
)
from connectoml.dataio import (
    SyntheticCohortConfig,
    generate_synthetic_cohort,
    load_feature_csvs,
    write_feature_csvs,
)
from connectoml.evaluation import (
    METRIC_NAMES,
    STRATEGIES,
    EvaluationReport,
    aggregate_metrics,
    auc,
    compute_fold_metrics,
    mann_whitney_u,
)
from connectoml.cohort import LabeledCohort
from connectoml.folds import derive_seed, stratified_kfold
from connectoml.neuralnet import HIDDEN_UNITS
import connectoml
import connectoml._pool as pool
import connectoml.cli as cli
import connectoml.evaluation


class TestStratifiedKfold:
    def test_49_108_cohort_fold_counts(self):
        labels = np.concatenate([np.zeros(49), np.ones(108)]).astype(int)
        folds = stratified_kfold(labels, k=10, seed=3)
        assert len(folds) == 10
        for fold in folds:
            hc = int(np.sum(labels[fold.test_indices] == 0))
            mci = int(np.sum(labels[fold.test_indices] == 1))
            assert hc in (4, 5)
            assert mci in (10, 11)

    def test_folds_partition_the_cohort(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(57) < 0.6).astype(int)
        folds = stratified_kfold(labels, k=5, seed=1)
        seen = np.concatenate([f.test_indices for f in folds])
        assert sorted(seen.tolist()) == list(range(57))
        for fold in folds:
            assert set(fold.train_indices) & set(fold.test_indices) == set()
            combined = sorted(
                fold.train_indices.tolist() + fold.test_indices.tolist()
            )
            assert combined == list(range(57))

    def test_deterministic_per_seed(self):
        labels = np.concatenate([np.zeros(20), np.ones(30)]).astype(int)
        first = stratified_kfold(labels, k=5, seed=9)
        second = stratified_kfold(labels, k=5, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.test_indices, b.test_indices)
        third = stratified_kfold(labels, k=5, seed=10)
        assert any(
            not np.array_equal(a.test_indices, b.test_indices)
            for a, b in zip(first, third)
        )

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_the_dealing_loop(self, k):
        rng = np.random.default_rng(k)
        for _ in range(40):
            minority = int(rng.integers(k, 3 * k + 2))
            majority = int(rng.integers(minority + 1, 6 * minority + 1))
            labels = np.repeat([0, 1], [minority, majority])
            if rng.random() < 0.5:
                labels = 1 - labels
            labels = rng.permutation(labels)
            seed = int(rng.integers(2**32))
            folds = stratified_kfold(labels, k, seed)
            expected = stratified_kfold_reference(labels, k, seed)
            assert [fold.fold for fold in folds] == list(range(k))
            for fold, (train, test) in zip(folds, expected, strict=True):
                for got, want in (
                    (fold.train_indices, train),
                    (fold.test_indices, test),
                ):
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want)

    def test_class_smaller_than_k_rejected(self):
        labels = np.concatenate([np.zeros(3), np.ones(30)]).astype(int)
        with pytest.raises(ValidationError) as excinfo:
            stratified_kfold(labels, k=5, seed=0)
        assert str(excinfo.value) == (
            "class 0 has 3 members, fewer than k=5 folds"
        )

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, k):
        labels = np.concatenate([np.zeros(10), np.ones(10)]).astype(int)
        with pytest.raises(ValidationError) as excinfo:
            stratified_kfold(labels, k=k, seed=0)
        assert str(excinfo.value) == "k must be at least 2"


class TestFoldMetrics:
    def test_perfect_predictions(self):
        y = np.array([1, 1, 0, 0, 1])
        scores = np.array([0.9, 0.8, 0.1, 0.2, 0.7])
        metrics = compute_fold_metrics(y, y, scores)
        assert tuple(metrics) == METRIC_NAMES
        assert metrics["accuracy"] == 1.0
        assert metrics["auc"] == 1.0
        assert metrics["sensitivity"] == 1.0
        assert metrics["specificity"] == 1.0
        assert metrics["f1"] == 1.0

    def test_hand_confusion_matrix(self):
        # TP=8, FN=2, TN=3, FP=2.
        y = np.array([1] * 10 + [0] * 5)
        pred = np.array([1] * 8 + [0] * 2 + [0] * 3 + [1] * 2)
        scores = pred.astype(float)
        metrics = compute_fold_metrics(y, pred, scores)
        assert metrics["sensitivity"] == pytest.approx(0.8)
        assert metrics["specificity"] == pytest.approx(0.6)
        assert metrics["accuracy"] == pytest.approx(11 / 15)
        assert metrics["f1"] == pytest.approx(0.8)
        assert all(type(value) is float for value in metrics.values())

    def test_all_predicted_positive(self):
        y = np.array([1, 0, 1, 0])
        pred = np.ones(4, dtype=int)
        metrics = compute_fold_metrics(y, pred, np.full(4, 0.9))
        assert metrics["sensitivity"] == 1.0
        assert metrics["specificity"] == 0.0

    def test_empty_and_single_class_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            compute_fold_metrics(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValidationError, match="both classes"):
            compute_fold_metrics(
                np.ones(3, dtype=int), np.ones(3, dtype=int), np.ones(3)
            )


class TestAuc:
    def test_perfect_ranking(self):
        y = np.array([0, 0, 1, 1])
        assert auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_all_scores_identical(self):
        y = np.array([0, 1, 0, 1])
        assert auc(y, np.full(4, 0.5)) == 0.5

    def test_exactly_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            y = (rng.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # Mix continuous scores and coarse ones that force ties.
            if rng.random() < 0.5:
                scores = rng.random(n)
            else:
                scores = rng.integers(0, 4, n) / 3.0
            assert auc(y, scores) == brute_force_auc(y, scores)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="both classes"):
            auc(np.ones(4, dtype=int), np.ones(4))

    def test_midranks_match_the_tie_group_walk_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            # Coarse values force ties of every size, fine ones few or none.
            levels = int(rng.choice([1, 2, 5, 50, 10**9]))
            values = rng.integers(0, levels, n) / levels
            if rng.random() < 0.3:
                values[rng.random(n) < 0.3] = -0.0
            ranks = connectoml.evaluation._midranks(values)
            assert np.array_equal(ranks, midranks_reference(values))


class TestMannWhitney:
    def test_textbook_example_exact(self):
        u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
        assert u == 0.0
        assert p == pytest.approx(1 / 3, abs=1e-15)

    def test_identical_samples_give_p_one(self):
        sample = [1.0, 2.0, 3.0]
        u, p = mann_whitney_u(sample, sample)
        assert p == 1.0
        u_n, p_n = mann_whitney_u(sample, sample, method="normal")
        assert p_n == 1.0

    def test_exact_mode_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            if rng.random() < 0.5:
                a = rng.random(n)
                b = rng.random(m)
            else:  # heavy ties
                a = rng.integers(0, 3, n).astype(float)
                b = rng.integers(0, 3, m).astype(float)
            u, p = mann_whitney_u(a, b, method="exact")
            u_expected, p_expected = mann_whitney_exact_oracle(a, b)
            assert u == u_expected
            assert p == pytest.approx(p_expected, abs=1e-12)

    def test_exact_counts_give_the_enumerated_p_value_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            levels = int(rng.choice([2, 3, 5, 10**9]))
            a = rng.integers(0, levels, n) / levels
            b = rng.integers(0, levels, m) / levels
            expected = mann_whitney_exact_reference(a, b)
            assert mann_whitney_u(a, b, method="exact") == expected

    def test_exact_counts_do_not_overflow_past_int64(self):
        # comb(67, 33) = 1.4e19 assignments exceeds int64; of them only
        # the two that separate the groups are as extreme as this one.
        a = np.arange(33.0)
        b = np.arange(33.0, 67.0)
        u, p = mann_whitney_u(a, b, method="exact")
        assert u == 0.0
        assert p == 2 / math.comb(67, 33)

    def test_normal_approximation_close_to_exact_at_8_vs_8(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.normal(size=8)
            b = rng.normal(loc=rng.uniform(-1, 1), size=8)
            _, p_exact = mann_whitney_u(a, b, method="exact")
            _, p_normal = mann_whitney_u(a, b, method="normal")
            assert abs(p_exact - p_normal) <= 0.01

    def test_p_value_symmetric_in_samples(self):
        rng = np.random.default_rng(4)
        for method in ("exact", "normal"):
            a = rng.normal(size=6)
            b = rng.normal(size=9) + 0.5
            u_ab, p_ab = mann_whitney_u(a, b, method=method)
            u_ba, p_ba = mann_whitney_u(b, a, method=method)
            assert p_ab == p_ba
            assert u_ab + u_ba == pytest.approx(6 * 9)

    def test_auto_switches_on_sample_size(self):
        rng = np.random.default_rng(5)
        small_a, small_b = rng.random(5), rng.random(8)
        auto = mann_whitney_u(small_a, small_b, method="auto")
        exact = mann_whitney_u(small_a, small_b, method="exact")
        assert auto == exact
        big_a, big_b = rng.random(30), rng.random(25)
        auto_big = mann_whitney_u(big_a, big_b, method="auto")
        normal_big = mann_whitney_u(big_a, big_b, method="normal")
        assert auto_big == normal_big

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            mann_whitney_u([], [1.0])


class TestAggregateMetrics:
    def test_constant_values(self):
        mean, se = aggregate_metrics([0.4, 0.4, 0.4])
        assert mean == 0.4
        assert se == 0.0
        mean, se = aggregate_metrics([1.0] * 100)
        assert (mean, se) == (1.0, 0.0)

    def test_hand_example(self):
        mean, se = aggregate_metrics([0.5, 0.7])
        assert mean == pytest.approx(0.6)
        assert se == pytest.approx(0.1)

    def test_single_value(self):
        assert aggregate_metrics([0.73]) == (0.73, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            aggregate_metrics([])


def quick_cohort(rng, n_hc=15, n_mci=25, dim=4, shift=2.5):
    xs = np.vstack(
        [rng.normal(0, 1, (n_hc, dim)), rng.normal(shift, 1, (n_mci, dim))]
    )
    ys = np.concatenate([np.zeros(n_hc), np.ones(n_mci)]).astype(int)
    order = rng.permutation(len(ys))
    return make_cohort(xs[order], ys[order])


FAST_TRAIN = TrainConfig(max_iterations=15)


class TestRunExperiment:
    def test_report_shape_and_values(self):
        rng = np.random.default_rng(6)
        cohort = quick_cohort(rng)
        report = run_experiment(
            cohort,
            SamplerConfig(method="none"),
            FAST_TRAIN,
            k=5,
            repetitions=2,
            seed=1,
        )
        assert set(report.strategies) == set(STRATEGIES)
        for strategy in STRATEGIES:
            assert set(report.strategies[strategy]) == set(METRIC_NAMES)
            for metric in METRIC_NAMES:
                cell = report.strategies[strategy][metric]
                assert cell["n_folds"] == 10
                assert 0.0 <= cell["mean"] <= 1.0
                assert cell["se"] >= 0.0
                assert len(report.fold_values[strategy][metric]) == 10
        n_pairs = len(STRATEGIES) * (len(STRATEGIES) - 1) // 2
        for metric in METRIC_NAMES:
            assert len(report.tests[metric]) == n_pairs

    @pytest.mark.parametrize("threshold", [7.0, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        cohort = quick_cohort(np.random.default_rng(6))
        with pytest.raises(ValidationError) as excinfo:
            run_experiment(
                cohort, SamplerConfig(method="none"), FAST_TRAIN,
                k=2, repetitions=1, threshold=threshold,
            )
        assert str(excinfo.value) == (
            f"threshold must be in [0, 1], got {threshold!r}"
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SyntheticCohortConfig(seed=-1),
            lambda: run_experiment(
                quick_cohort(np.random.default_rng(6)),
                SamplerConfig(method="none"), FAST_TRAIN,
                k=2, repetitions=1, seed=-1,
            ),
        ],
        ids=["synthetic_cohort", "run_experiment"],
    )
    def test_negative_seed_rejected(self, build):
        with pytest.raises(ValidationError, match="^seed must be nonnegative$"):
            build()

    def test_byte_identical_rerun(self):
        rng = np.random.default_rng(7)
        cohort = quick_cohort(rng)
        kwargs = dict(k=5, repetitions=2, seed=3)
        first = run_experiment(
            cohort, SamplerConfig(method="random"), FAST_TRAIN, **kwargs
        )
        second = run_experiment(
            cohort, SamplerConfig(method="random"), FAST_TRAIN, **kwargs
        )
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_ensemble_score_is_mean_of_member_scores(self, monkeypatch):
        recorded = []
        original = connectoml.evaluation.predict_proba

        def recording_predict(model, x):
            out = original(model, x)
            recorded.append(np.asarray(out))
            return out

        monkeypatch.setattr(
            connectoml.evaluation, "predict_proba", recording_predict
        )
        # Forked workers cannot append to this process's list.
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        rng = np.random.default_rng(8)
        cohort = quick_cohort(rng, n_hc=10, n_mci=14)
        report = run_experiment(
            cohort,
            SamplerConfig(method="none"),
            FAST_TRAIN,
            k=2,
            repetitions=1,
            seed=0,
        )
        # Per fold the harness calls predict_proba four times: the three
        # members (in measure order) then fusion. The ensemble fold AUC must
        # equal the AUC of the member mean.
        assert len(recorded) == 8
        fold_members = recorded[0:3]
        ensemble_auc = report.fold_values["ensemble"]["auc"][0]
        folds = stratified_kfold(cohort.labels, 2, derive_seed(0, 0))
        y_test = cohort.labels[folds[0].test_indices]
        assert ensemble_auc == auc(y_test, np.mean(fold_members, axis=0))

    def test_null_cohort_auc_near_half(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(40, 4))
        ys = np.concatenate([np.zeros(16), np.ones(24)]).astype(int)
        cohort = make_cohort(xs, ys)
        report = run_experiment(
            cohort,
            SamplerConfig(method="none"),
            FAST_TRAIN,
            k=4,
            repetitions=3,
            seed=5,
        )
        for strategy in STRATEGIES:
            assert 0.3 <= report.strategies[strategy]["auc"]["mean"] <= 0.7

    def test_fold_mode_normalizers_see_training_rows_only(self, monkeypatch):
        # Column 0 of every feature matrix equals the subject index, so the
        # rows each fold's normalizer was fitted on can be read back exactly.
        rng = np.random.default_rng(10)
        n = 30
        xs = rng.normal(size=(n, 3))
        xs[:, 0] = np.arange(n)
        ys = np.concatenate([np.zeros(12), np.ones(18)]).astype(int)
        cohort = make_cohort(xs, ys)

        fitted_rows = []
        original = connectoml.evaluation.fit_fold

        def recording_fit_fold(rows, labels, cfg):
            # fit_fold scales the rows over themselves: read them first.
            unscaled = rows.copy()
            fold = original(rows, labels, cfg)
            assert np.array_equal(
                fold.normalizer.minimum, unscaled.min(axis=0)
            )
            assert np.array_equal(
                fold.normalizer.maximum, unscaled.max(axis=0)
            )
            fitted_rows.append(unscaled[:, 0])
            return fold

        monkeypatch.setattr(
            connectoml.evaluation, "fit_fold", recording_fit_fold
        )
        # Forked workers cannot append to this process's list.
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        k, reps = 3, 1
        run_experiment(
            cohort,
            SamplerConfig(method="random", mode="fold"),
            FAST_TRAIN,
            k=k,
            repetitions=reps,
            seed=6,
        )
        folds = stratified_kfold(cohort.labels, k, derive_seed(6, 0))
        # One normalizer per fold, fitted on the sampled training rows.
        assert len(fitted_rows) == k
        for fold, rows in zip(folds, fitted_rows):
            seen = set(int(v) for v in rows)
            assert seen <= set(fold.train_indices.tolist())
            assert seen & set(fold.test_indices.tolist()) == set()

    @pytest.mark.parametrize("mode", ["dataset", "fold"])
    def test_sampler_takes_the_run_seed_and_train_config(
        self, monkeypatch, mode
    ):
        calls = []
        original = connectoml.evaluation.apply_sampler

        def recording_sampler(cohort, sampler, seed, train_cfg):
            calls.append((seed, train_cfg))
            return original(cohort, sampler, seed, train_cfg)

        monkeypatch.setattr(
            connectoml.evaluation, "apply_sampler", recording_sampler
        )
        # Forked workers cannot append to this process's list.
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        cohort = quick_cohort(np.random.default_rng(12), n_hc=12, n_mci=18)
        train_cfg = TrainConfig(max_iterations=5, seed=4)
        k, reps, seed = 3, 2, 9
        run_experiment(
            cohort, SamplerConfig(method="random", mode=mode), train_cfg,
            k=k, repetitions=reps, seed=seed,
        )
        if mode == "dataset":
            expected = [seed]
        else:
            expected = [
                derive_seed(seed, repetition, fold)
                for repetition in range(reps)
                for fold in range(k)
            ]
        assert [call_seed for call_seed, _ in calls] == expected
        # The run's config object itself, not a per-fold copy.
        assert all(cfg is train_cfg for _, cfg in calls)

    @pytest.mark.parametrize("method", ["random", "near_miss_3",
                                        "instance_hardness"])
    @pytest.mark.parametrize("mode", ["dataset", "fold"])
    def test_every_sampler_runs_in_both_modes(self, method, mode):
        rng = np.random.default_rng(11)
        cohort = quick_cohort(rng, n_hc=14, n_mci=22)
        sampler = SamplerConfig(method=method, mode=mode)
        report = run_experiment(
            cohort, sampler, TrainConfig(max_iterations=5),
            k=2, repetitions=1, seed=8,
        )
        leakage = [("leakage", True)] if (
            mode == "dataset" and method != "random"
        ) else []
        assert list(report.config["sampler"].items()) == [
            ("method", method),
            ("mode", mode),
            ("k_neighbors", 3),
            ("seed", 8),
            ("iht_internal_folds", 5),
            ("distance_space", "minmax_fused"),
        ] + leakage
        expected_subjects = 36 if mode == "fold" else 28
        assert report.config["n_subjects"] == expected_subjects
        for strategy in STRATEGIES:
            assert report.strategies[strategy]["auc"]["n_folds"] == 2

    def test_missing_strategy_rejected_by_report(self):
        with pytest.raises(ValidationError, match="missing strategies"):
            EvaluationReport(
                config={}, strategies={"weights": {}}, tests={}, fold_values={}
            )


class TestFoldMemory:
    def test_a_unit_holds_one_copy_of_its_training_rows(self):
        # 300 subjects x 3 x 1,000 features: a unit's training rows (200 x
        # 3,000, 4.8 MB) outweigh the fused first-layer weights (3,000 x
        # 32, 0.77 MB) six times. The fused fit holds about four arrays of
        # that size (the initial weights, the lift, its c.W1_0 term and the
        # inf-norm's absolute values), and the members' models stay alive
        # beside it: 5.2 of them in all, measured with numpy 2.4. A unit
        # that scaled a copy of its training rows, or gathered its test
        # rows before fitting, read 11.2 MB above the rows.
        rng = np.random.default_rng(0)
        n, width = 300, 1000
        labels = np.repeat([0, 1], n // 2)
        matrix = rng.random((n, 3 * width)) + 0.1 * labels[:, None]
        cohort = LabeledCohort([f"s{i}" for i in range(n)], labels, matrix)
        fold = stratified_kfold(labels, 3, 0)[0]
        state = (
            cohort, SamplerConfig(), TrainConfig(max_iterations=3), 0, 0.5
        )
        train_bytes = fold.train_indices.size * 3 * width * 8
        weight_bytes = 3 * width * HIDDEN_UNITS * 8
        tracemalloc.start()
        try:
            connectoml.evaluation._evaluate_unit(state, (0, fold))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < train_bytes + 6 * weight_bytes


@needs_openblas
class TestOneBlasThread:
    """``run_experiment`` runs OpenBLAS on one thread and gives the caller
    back the count it had."""

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_thread_count_is_restored(self, openblas, monkeypatch, fails):
        def counts():
            return [getter() for _, getter in openblas]

        before = counts()
        inside = []
        original = connectoml.evaluation.fit_fold

        def recording(rows, labels, cfg):
            inside.append(counts())
            if fails:
                raise RuntimeError("fit failed")
            return original(rows, labels, cfg)

        monkeypatch.setattr(connectoml.evaluation, "fit_fold", recording)
        cohort = quick_cohort(np.random.default_rng(6))
        expected = pytest.raises(RuntimeError, match="fit failed")
        with expected if fails else contextlib.nullcontext():
            run_experiment(
                cohort, SamplerConfig(method="none"), FAST_TRAIN,
                k=2, repetitions=1,
            )
        assert inside and all(c == [1] * len(openblas) for c in inside)
        assert counts() == before

    def test_reports_do_not_depend_on_openblas_threads(self, tmp_path):
        # A cohort whose fold values are not saturated: without the pin, 26
        # of its 250 fold values differed between 1 and 2 threads (2 cores,
        # OpenBLAS 0.3.31). A smaller run (3 folds, 1 repeat, 30
        # iterations) showed no difference.
        cohort = tmp_path / "cohort"
        features = tmp_path / "features"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(
                ["synth", "--out-dir", str(cohort), "--nodes", "40",
                 "--hc", "30", "--mci", "70", "--seed", "3",
                 "--effect-size", "0.06"]
            ) == 0
            assert cli.main(
                ["extract", "--manifest", str(cohort / "manifest.csv"),
                 "--out-dir", str(features)]
            ) == 0
        source = str(Path(connectoml.__file__).parents[1])
        outputs = {}
        for threads in ("1", "2"):
            report = tmp_path / f"report{threads}.json"
            folds = tmp_path / f"folds{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [source, env.get("PYTHONPATH")])
            )
            subprocess.run(
                [sys.executable, "-m", "connectoml.cli", "evaluate",
                 "--features-dir", str(features),
                 "--folds", "5", "--repeats", "2", "--seed", "0",
                 "--out", str(report), "--dump-folds", str(folds)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            outputs[threads] = (report.read_bytes(), folds.read_bytes())
        assert outputs["1"] == outputs["2"]


@pytest.fixture(scope="module")
def weak_store(tmp_path_factory):
    """A feature store whose fold values are not saturated (effect 0.06),
    so a fold value out of order or from the wrong seed shows."""
    store = tmp_path_factory.mktemp("weak") / "features"
    cfg = SyntheticCohortConfig(
        n_nodes=10, n_hc=15, n_mci=21, seed=3, effect_size=0.06
    )
    write_feature_csvs(generate_synthetic_cohort(cfg), store)
    return store


def evaluate_on_workers(monkeypatch, workers, store, out, *flags):
    """``evaluate`` on the store with the core count forced to ``workers``;
    returns the exit code."""
    monkeypatch.setattr(pool, "available_cores", lambda: workers)
    with time_limit(120), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(
            ["evaluate", "--features-dir", str(store), "--folds", "3",
             "--repeats", "2", "--seed", "0", "--max-iter", "15",
             "--out", str(out), *flags]
        )


class TestParallelFolds:
    """The first (repetition, fold) unit runs in this process and the rest
    in forked workers; the report does not depend on how many."""

    @pytest.mark.parametrize(
        "flags",
        [("--sampler", "none"), ("--sampler", "iht", "--sampler-mode", "fold")],
        ids=["none", "iht_fold"],
    )
    def test_report_bytes_do_not_depend_on_workers(
        self, tmp_path, monkeypatch, weak_store, flags
    ):
        # Six units, five of them in the pool: two workers keep four in
        # flight, five workers take one each.
        written = {}
        for workers in (1, 2, 5):
            out = tmp_path / f"report{workers}.json"
            assert evaluate_on_workers(
                monkeypatch, workers, weak_store, out, *flags
            ) == 0
            written[workers] = out.read_bytes()
        assert written[2] == written[1]
        assert written[5] == written[1]
        fold_values = json.loads(written[1])["fold_values"]
        assert len(set(fold_values["ensemble"]["auc"])) > 1

    def test_a_later_units_validation_error_reaches_the_caller(
        self, tmp_path, monkeypatch, weak_store, capsys
    ):
        parent = os.getpid()
        failing_seed = derive_seed(0, 1, 2)  # repetition 1, fold 2
        original = connectoml.evaluation.fit_fold

        def fail_in_worker(rows, labels, cfg):
            if os.getpid() != parent and cfg.seed == failing_seed:
                raise ValidationError("unit (1, 2) failed in a worker")
            return original(rows, labels, cfg)

        monkeypatch.setattr(connectoml.evaluation, "fit_fold", fail_in_worker)
        out = tmp_path / "report.json"
        assert evaluate_on_workers(monkeypatch, 2, weak_store, out) == 2
        assert capsys.readouterr().err == (
            "error: unit (1, 2) failed in a worker\n"
        )
        assert not out.exists()
        cohort = load_feature_csvs(weak_store)
        with time_limit(120), pytest.raises(
            ValidationError, match=r"^unit \(1, 2\) failed in a worker$"
        ):
            run_experiment(
                cohort, SamplerConfig(method="none"), FAST_TRAIN,
                k=3, repetitions=2,
            )

    def test_a_worker_that_dies_raises_instead_of_hanging(
        self, monkeypatch, weak_store
    ):
        parent = os.getpid()
        dying_seed = derive_seed(0, 1, 0)  # repetition 1, fold 0
        original = connectoml.evaluation.fit_fold

        def die_in_worker(rows, labels, cfg):
            if os.getpid() != parent and cfg.seed == dying_seed:
                os._exit(1)
            return original(rows, labels, cfg)

        monkeypatch.setattr(connectoml.evaluation, "fit_fold", die_in_worker)
        monkeypatch.setattr(pool, "available_cores", lambda: 2)
        cohort = load_feature_csvs(weak_store)
        with time_limit(120), pytest.raises(BrokenProcessPool):
            run_experiment(
                cohort, SamplerConfig(method="none"), FAST_TRAIN,
                k=3, repetitions=2,
            )


class TestDatasetModeLeakage:
    """Dataset-mode IHT scores hardness with the future test subjects
    included, so on a null cohort it reports a signal that fold mode does
    not see, and only its report records the leakage."""

    @pytest.fixture(scope="class")
    def null_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("null")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(
                ["synth", "--out-dir", str(root / "cohort"), "--nodes", "40",
                 "--hc", "30", "--mci", "70", "--seed", "3",
                 "--effect-size", "0"]
            ) == 0
            assert cli.main(
                ["extract", "--manifest", str(root / "cohort/manifest.csv"),
                 "--out-dir", str(root / "features")]
            ) == 0
        return root

    @pytest.mark.parametrize("seed", [1, 2])
    def test_iht_in_dataset_mode_inflates_the_null_auc(self, null_store, seed):
        features = str(null_store / "features")
        reports = {}
        for mode in ("dataset", "fold"):
            out = null_store / f"report_{mode}_{seed}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(
                    ["evaluate", "--features-dir", features,
                     "--sampler", "iht", "--sampler-mode", mode,
                     "--max-iter", "15", "--folds", "5", "--repeats", "2",
                     "--seed", str(seed), "--out", str(out)]
                ) == 0
            reports[mode] = json.loads(out.read_text(encoding="utf-8"))

        def ensemble_auc(mode):
            return reports[mode]["strategies"]["ensemble"]["auc"]["mean"]

        # Measured (2 cores, OpenBLAS 0.3.31): 0.728 / 0.496 at seed 1 and
        # 0.711 / 0.479 at seed 2.
        assert ensemble_auc("dataset") > ensemble_auc("fold") + 0.1
        assert reports["dataset"]["config"]["sampler"].get("leakage") is True
        assert "leakage" not in reports["fold"]["config"]["sampler"]
