"""Tests for manifest loading, the synthetic generator, and report files."""

import json
import re

import numpy as np
import pytest
from conftest import make_measure_cohort, write_feature_csvs_reference

from connectoml import (
    MEASURES,
    SamplerConfig,
    TrainConfig,
    ValidationError,
    load_cohort,
    mann_whitney_u,
    run_experiment,
)
from connectoml.dataio import (
    SyntheticCohortConfig,
    dump_fold_values_csv,
    export_report,
    generate_synthetic_cohort,
    generate_synthetic_matrices,
    load_feature_csvs,
    load_matrix_file,
    load_report,
    materialize_cohort,
    write_feature_csvs,
    write_matrix_file,
)


def write_manifest(path, rows):
    lines = ["subject_id,label,path"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tiny_matrix_file(path, weights):
    write_matrix_file(path, np.asarray(weights, dtype=np.float64))


class TestMatrixFiles:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0, 100, (7, 7))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 0)
        path = tmp_path / "m.csv"
        write_matrix_file(path, weights)
        assert np.array_equal(load_matrix_file(path), weights)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,zero\n", encoding="utf-8")
        message = f"{path}: line 2: could not convert string to float: 'zero'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    @pytest.mark.parametrize("cell", ["0x10", "", "1__0", "1.5e", "١x"])
    def test_rejected_cell_message_is_pinned(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1\n\n{cell},0\n", encoding="utf-8")
        message = (
            f"{path}: line 3: could not convert string to float: {cell!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    def test_accepts_what_float_accepts(self, tmp_path):
        path = tmp_path / "lenient.csv"
        path.write_text(
            "\n0, 1_000 ,\t2.5\n\n  1000,0,1e-320\n2.5,1e-320,-0\n\n",
            encoding="utf-8",
        )
        parsed = load_matrix_file(path)
        expected = [[0.0, 1000.0, 2.5], [1000.0, 0.0, 1e-320],
                    [2.5, 1e-320, -0.0]]
        assert parsed.tolist() == expected
        assert np.signbit(parsed[2, 2])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n1\n", encoding="utf-8")
        message = f"{path}: line 2: expected 2 columns, got 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)


class TestLoadCohort:
    def test_manifest_order_and_labels(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        tiny_matrix_file(tmp_path / "b.csv", [[0, 2], [2, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(
            manifest, [("s1", "HC", "a.csv"), ("s2", "MCI", "b.csv")]
        )
        cohort = load_cohort(manifest)
        assert cohort.subject_ids == ("s1", "s2")
        assert cohort.labels.tolist() == [0, 1]
        assert cohort.size == 2
        assert cohort.features["weights"][0].tolist() == [1.0]
        assert cohort.features["weights"][1].tolist() == [2.0]

    def test_missing_matrix_file_names_subject_and_path(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "HC", "gone.csv")])
        with pytest.raises(FileNotFoundError, match="s1"):
            load_cohort(manifest)
        with pytest.raises(FileNotFoundError, match="gone.csv"):
            load_cohort(manifest)

    def test_unknown_label_rejected(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "AD", "a.csv")])
        with pytest.raises(ValidationError, match="unknown label 'AD'"):
            load_cohort(manifest)

    def test_duplicate_subject_id_rejected(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(
            manifest, [("s1", "HC", "a.csv"), ("s1", "MCI", "a.csv")]
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_cohort(manifest)

    def test_validation_error_names_subject(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, -1], [-1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s9", "HC", "a.csv")])
        with pytest.raises(ValidationError, match="s9"):
            load_cohort(manifest)


class TestSyntheticCohort:
    def test_subject_counts(self):
        cfg = SyntheticCohortConfig(
            n_nodes=20, n_hc=5, n_mci=9, seed=1, effect_size=0.5
        )
        cohort = generate_synthetic_cohort(cfg)
        assert cohort.class_counts() == {"HC": 5, "MCI": 9}
        assert cohort.size == 14
        for measure in MEASURES:
            assert cohort.features[measure].shape == (14, 190)

    def test_default_counts_mirror_unbalanced_cohort(self):
        cfg = SyntheticCohortConfig()
        assert (cfg.n_hc, cfg.n_mci, cfg.n_nodes) == (49, 108, 120)

    def test_matrices_valid_and_deterministic(self):
        cfg = SyntheticCohortConfig(n_nodes=15, n_hc=4, n_mci=6, seed=7)
        ids_a, labels_a, mats_a = generate_synthetic_matrices(cfg)
        ids_b, labels_b, mats_b = generate_synthetic_matrices(cfg)
        assert ids_a == ids_b
        assert labels_a == labels_b
        for a, b in zip(mats_a, mats_b):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.weights, a.weights.T)
            assert np.all(a.weights >= 0)
            assert np.all(np.diag(a.weights) == 0)

    def test_null_effect_gives_null_edgewise_statistics(self):
        cfg = SyntheticCohortConfig(
            n_nodes=60, n_hc=30, n_mci=30, effect_size=0.0, seed=3
        )
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        weights = np.array(
            [m.weights[np.triu_indices(60, 1)] for m in matrices]
        )
        labels = np.asarray(labels)
        support = np.flatnonzero(weights.min(axis=0) > 0)
        significant = 0
        for edge in support:
            _, p = mann_whitney_u(
                weights[labels == 0, edge],
                weights[labels == 1, edge],
                method="normal",
            )
            significant += p < 0.05
        fraction = significant / support.size
        assert 0.02 <= fraction <= 0.09

    def test_effect_size_separates_groups_on_affected_edges(self):
        cfg = SyntheticCohortConfig(
            n_nodes=30, n_hc=15, n_mci=15, effect_size=2.0, seed=5,
            affected_edge_fraction=0.5,
        )
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        labels = np.asarray(labels)
        mean_hc = np.mean([m.weights.sum() for m, l in zip(matrices, labels) if l == 0])
        mean_mci = np.mean([m.weights.sum() for m, l in zip(matrices, labels) if l == 1])
        assert mean_mci < mean_hc

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(n_nodes=1)
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(affected_edge_fraction=1.5)
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(noise_scale=0.0)

    def test_materialized_cohort_reloads_identically(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=12, n_hc=4, n_mci=5, seed=11)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        in_memory = generate_synthetic_cohort(cfg)
        manifest = materialize_cohort(ids, labels, matrices, tmp_path / "cohort")
        reloaded = load_cohort(manifest)
        assert reloaded.subject_ids == in_memory.subject_ids
        assert np.array_equal(reloaded.labels, in_memory.labels)
        for measure in MEASURES:
            np.testing.assert_allclose(
                reloaded.features[measure],
                in_memory.features[measure],
                rtol=1e-12,
                atol=0,
            )


def small_report():
    cfg = SyntheticCohortConfig(n_nodes=10, n_hc=6, n_mci=8, seed=2)
    cohort = generate_synthetic_cohort(cfg)
    return run_experiment(
        cohort,
        SamplerConfig(method="none"),
        TrainConfig(max_iterations=5),
        k=2,
        repetitions=1,
        seed=4,
    )


class TestReportFiles:
    def test_export_then_reload_is_identical(self, tmp_path):
        report = small_report()
        path = export_report(report, tmp_path / "report.json")
        reloaded = load_report(path)
        assert reloaded.to_dict() == report.to_dict()
        assert json.dumps(reloaded.to_dict()) == json.dumps(report.to_dict())

    def test_schema_has_every_strategy_metric_cell(self, tmp_path):
        report = small_report()
        payload = json.loads(
            export_report(report, tmp_path / "r.json").read_text()
        )
        for strategy in (
            "weights", "shortest_path", "communicability", "fusion",
            "ensemble",
        ):
            for metric in ("accuracy", "auc", "sensitivity", "specificity",
                           "f1"):
                cell = payload["strategies"][strategy][metric]
                assert set(cell) == {"mean", "se", "n_folds"}
        assert "config" in payload and "tests" in payload

    def test_refuses_to_overwrite_without_flag(self, tmp_path):
        report = small_report()
        path = export_report(report, tmp_path / "report.json")
        with pytest.raises(FileExistsError):
            export_report(report, path)
        export_report(report, path, overwrite=True)

    def test_fold_values_csv(self, tmp_path):
        report = small_report()
        path = dump_fold_values_csv(report, tmp_path / "folds.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "strategy,metric,fold_index,value"
        assert len(lines) == 1 + 5 * 5 * 2  # strategies * metrics * folds


class TestFeatureStore:
    def test_write_then_load_roundtrip(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=10, n_hc=4, n_mci=5, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        reloaded = load_feature_csvs(tmp_path)
        assert reloaded.subject_ids == cohort.subject_ids
        assert np.array_equal(reloaded.labels, cohort.labels)
        for measure in MEASURES:
            assert np.array_equal(
                reloaded.features[measure], cohort.features[measure]
            )

    def test_missing_measure_file_rejected(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=4, n_mci=4, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        (tmp_path / "features_communicability.csv").unlink()
        with pytest.raises(FileNotFoundError, match="communicability"):
            load_feature_csvs(tmp_path)

    def test_bytes_equal_reference_writer(self, tmp_path):
        values = np.array(
            [
                [0.0, 1e-300, 1e300],
                [0.1, 30.0, -0.0],
                [1 / 3, 2.5e-7, 7.0],
                [5e-324, 1.7976931348623157e308, 123456789.125],
            ]
        )
        cohort = make_measure_cohort(
            {
                "weights": values,
                "shortest_path": values[:, ::-1],
                "communicability": values / 3.0,
            },
            [0, 1, 1, 0],
            ids=("a,b", 'say "hi"', " padded", "two\nlines"),
        )
        new_paths = write_feature_csvs(cohort, tmp_path / "new")
        old_paths = write_feature_csvs_reference(cohort, tmp_path / "old")
        for new, old in zip(new_paths, old_paths):
            assert new.name == old.name
            assert new.read_bytes() == old.read_bytes()
        assert new_paths[0].read_bytes().splitlines(keepends=True)[1:3] == [
            b'"a,b",HC,0,1e-300,1.0000000000000001e+300\r\n',
            b'"say ""hi""",MCI,0.10000000000000001,30,-0\r\n',
        ]
        reloaded = load_feature_csvs(tmp_path / "new")
        assert reloaded.subject_ids == cohort.subject_ids
        assert np.array_equal(reloaded.labels, cohort.labels)
        for measure in MEASURES:
            assert np.array_equal(
                reloaded.features[measure], cohort.features[measure]
            )

    def test_bad_cell_message_is_pinned(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=2, n_mci=2, seed=6)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        path = tmp_path / "features_shortest_path.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}: line 3: could not convert string to float: 'x'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_feature_csvs(tmp_path)
