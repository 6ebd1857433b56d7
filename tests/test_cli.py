"""End-to-end command-line tests: synth, extract, evaluate, compare."""

import csv
import hashlib
import json

import pytest
from conftest import numpy_uses_openblas

import connectoml.cli as cli
import connectoml.sampling as sampling
from connectoml.errors import NumericalError


def run_cli(args):
    return cli.main(args)


SYNTH_ARGS = [
    "synth",
    "--nodes", "10",
    "--hc", "6",
    "--mci", "9",
    "--effect-size", "1.5",
    "--seed", "3",
]

EVAL_SPEED = ["--max-iter", "5", "--folds", "3", "--repeats", "1"]


@pytest.fixture()
def cohort_dir(tmp_path):
    out = tmp_path / "cohort"
    assert run_cli(SYNTH_ARGS + ["--out-dir", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_manifest_and_matrices(self, cohort_dir):
        manifest = cohort_dir / "manifest.csv"
        assert manifest.exists()
        lines = manifest.read_text().strip().splitlines()
        assert lines[0] == "subject_id,label,path"
        assert len(lines) == 1 + 15
        assert (cohort_dir / "HC0001.csv").exists()
        assert (cohort_dir / "MCI0009.csv").exists()


class TestExtract:
    def test_writes_three_feature_files(self, cohort_dir, tmp_path):
        features = tmp_path / "features"
        code = run_cli(
            [
                "extract",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out-dir", str(features),
            ]
        )
        assert code == 0
        for measure in ("weights", "shortest_path", "communicability"):
            assert (features / f"features_{measure}.csv").exists()


class TestEvaluate:
    def test_manifest_to_report(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(out),
                "--seed", "5",
            ]
            + EVAL_SPEED
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["folds"] == 3
        assert "ensemble" in payload["strategies"]
        stdout = capsys.readouterr().out
        assert "ensemble" in stdout

    def test_identical_flags_give_byte_identical_reports(
        self, cohort_dir, tmp_path
    ):
        args = [
            "evaluate",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--seed", "9",
            "--sampler", "random",
        ] + EVAL_SPEED
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_feature_store_input_and_fold_dump(self, cohort_dir, tmp_path):
        features = tmp_path / "features"
        run_cli(
            [
                "extract",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out-dir", str(features),
            ]
        )
        out = tmp_path / "report.json"
        folds_csv = tmp_path / "folds.csv"
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(out),
                "--dump-folds", str(folds_csv),
            ]
            + EVAL_SPEED
        )
        assert code == 0
        assert folds_csv.exists()

    def test_both_loaders_give_the_same_report(self, cohort_dir, tmp_path):
        # The feature store holds every value to 17 significant digits, so
        # the cohort it rebuilds is the manifest's, bit for bit.
        features = tmp_path / "features"
        manifest = str(cohort_dir / "manifest.csv")
        assert run_cli(
            ["extract", "--manifest", manifest, "--out-dir", str(features)]
        ) == 0
        outputs = {}
        for source, where in (
            ("--manifest", manifest), ("--features-dir", str(features))
        ):
            out = tmp_path / f"report{source}.json"
            folds_csv = tmp_path / f"folds{source}.csv"
            code = run_cli(
                [
                    "evaluate", source, where,
                    "--sampler", "iht",
                    "--seed", "4",
                    "--out", str(out),
                    "--dump-folds", str(folds_csv),
                ]
                + EVAL_SPEED
            )
            assert code == 0
            outputs[source] = (out.read_bytes(), folds_csv.read_bytes())
        assert outputs["--manifest"] == outputs["--features-dir"]

    def test_existing_output_without_overwrite_is_data_error(
        self, cohort_dir, tmp_path
    ):
        out = tmp_path / "report.json"
        out.write_text("{}")
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(out),
            ]
            + EVAL_SPEED
        )
        assert code == 2

    @pytest.mark.parametrize("existing", ["--out", "--dump-folds"])
    def test_existing_output_is_refused_before_any_work(
        self, cohort_dir, tmp_path, capsys, monkeypatch, existing
    ):
        calls = {"load_cohort": 0, "run_experiment": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            cli.dataio, "load_cohort",
            counted("load_cohort", cli.dataio.load_cohort),
        )
        monkeypatch.setattr(
            cli, "run_experiment",
            counted("run_experiment", cli.run_experiment),
        )
        outputs = {
            "--out": tmp_path / "report.json",
            "--dump-folds": tmp_path / "folds.csv",
        }
        outputs[existing].write_text("keep\n")
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(outputs["--out"]),
                "--dump-folds", str(outputs["--dump-folds"]),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        message = f"refusing to overwrite existing file: {outputs[existing]}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"load_cohort": 0, "run_experiment": 0}
        assert outputs[existing].read_text() == "keep\n"
        assert [flag for flag, path in outputs.items() if path.exists()] == [
            existing
        ]

    @pytest.mark.parametrize("flag", ["--out", "--dump-folds"])
    @pytest.mark.parametrize("fault", ["missing directory", "directory"])
    def test_bad_output_path_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, flag, fault
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the cohort was read")

        monkeypatch.setattr(cli.dataio, "load_cohort", unread)
        outputs = {
            "--out": tmp_path / "report.json",
            "--dump-folds": tmp_path / "folds.csv",
        }
        if fault == "directory":
            outputs[flag] = tmp_path / "existing"
            outputs[flag].mkdir()
            message = f"output path is a directory: {outputs[flag]}"
        else:
            outputs[flag] = tmp_path / "missing" / outputs[flag].name
            message = f"output directory not found: {tmp_path / 'missing'}"
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(tmp_path / "manifest.csv"),
                "--out", str(outputs["--out"]),
                "--dump-folds", str(outputs["--dump-folds"]),
                "--overwrite",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(path.is_file() for path in outputs.values())

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]])
    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_fold_dump_naming_the_report_is_one(
        self, tmp_path, capsys, monkeypatch, overwrite, spelling
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the cohort was read")

        monkeypatch.setattr(cli.dataio, "load_cohort", unread)
        out = tmp_path / "report.json"
        out.write_text("keep\n")
        dump = {"same": str(out), "dotted": f"{tmp_path}/./report.json"}
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                [
                    "evaluate",
                    "--manifest", str(tmp_path / "manifest.csv"),
                    "--out", str(out),
                    "--dump-folds", dump[spelling],
                ]
                + overwrite
            )
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.endswith(
            "connectoml: error: --dump-folds must name a different file"
            " from --out\n"
        )
        assert out.read_text() == "keep\n"

    def test_overwrite_replaces_report_and_fold_dump(
        self, cohort_dir, tmp_path
    ):
        out = tmp_path / "report.json"
        folds_csv = tmp_path / "folds.csv"
        out.write_text("old\n")
        folds_csv.write_text("old\n")
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(out),
                "--dump-folds", str(folds_csv),
                "--overwrite",
            ]
            + EVAL_SPEED
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["folds"] == 3
        assert folds_csv.read_text().startswith(
            "strategy,metric,fold_index,value\n"
        )


class TestCompare:
    def test_comparison_table(self, cohort_dir, tmp_path, capsys):
        base = [
            "evaluate",
            "--manifest", str(cohort_dir / "manifest.csv"),
        ] + EVAL_SPEED
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(base + ["--out", str(out_a), "--seed", "1"]) == 0
        assert run_cli(base + ["--out", str(out_b), "--seed", "2"]) == 0
        capsys.readouterr()
        assert run_cli(["compare", str(out_a), str(out_b)]) == 0
        stdout = capsys.readouterr().out
        assert "strategy" in stdout
        assert "ensemble" in stdout

    @pytest.mark.parametrize(
        "corrupt, where",
        [
            (lambda folds: folds.clear(), "['weights']['accuracy']"),
            (lambda folds: folds["fusion"].pop("f1"), "['fusion']['f1']"),
            (
                lambda folds: folds["ensemble"]["auc"].__setitem__(1, "0.7"),
                "['ensemble']['auc']",
            ),
        ],
        ids=["missing_strategy", "missing_metric", "non_numeric_value"],
    )
    def test_malformed_report_is_two(
        self, cohort_dir, tmp_path, capsys, corrupt, where
    ):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        assert run_cli(
            ["evaluate", "--manifest", str(cohort_dir / "manifest.csv")]
            + EVAL_SPEED
            + ["--out", str(good)]
        ) == 0
        payload = json.loads(good.read_text())
        corrupt(payload["fold_values"])
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: fold_values{where} must be a non-empty list of"
            " finite numbers\n"
        )

    @pytest.mark.parametrize(
        "schema", ["connectoml-report/2", None], ids=["schema_2", "no_schema"]
    )
    def test_report_of_another_schema_is_two(
        self, cohort_dir, tmp_path, capsys, schema
    ):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        assert run_cli(
            ["evaluate", "--manifest", str(cohort_dir / "manifest.csv")]
            + EVAL_SPEED
            + ["--out", str(good)]
        ) == 0
        payload = json.loads(good.read_text())
        assert payload["schema"] == "connectoml-report/1"
        if schema is None:
            del payload["schema"]
        else:
            payload["schema"] = schema
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: report schema {schema!r} is not"
            " 'connectoml-report/1'\n"
        )

    @pytest.mark.parametrize("value", ["7", "1", "0", "-0.5", "nan"])
    def test_significance_outside_unit_interval_is_two(
        self, tmp_path, capsys, value
    ):
        # Refused before either report is read: neither file exists.
        capsys.readouterr()
        code = run_cli(
            [
                "compare",
                str(tmp_path / "a.json"),
                str(tmp_path / "b.json"),
                "--significance", value,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: significance must be in (0, 1), got {float(value)!r}\n"
        )


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["evaluate", "--nonsense"])
        assert excinfo.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_manifest_is_two(self, tmp_path):
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_empty_manifest_path_is_two(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject_id,label,path\ns1,HC,\n")
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(manifest),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2: empty path\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_invalid_matrix_is_two(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,-5\n-5,0\n")
        (tmp_path / "manifest.csv").write_text(
            "subject_id,label,path\ns1,HC,m.csv\n"
        )
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(tmp_path / "manifest.csv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["extract", "--out-dir", "features"],
            ["evaluate", "--out", "r.json"] + EVAL_SPEED,
        ],
        ids=["extract", "evaluate"],
    )
    def test_mixed_node_counts_are_two(self, tmp_path, capsys, command):
        (tmp_path / "a.csv").write_text("0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n")
        (tmp_path / "b.csv").write_text(
            "0,1,1,1,1\n1,0,1,1,1\n1,1,0,1,1\n1,1,1,0,1\n1,1,1,1,0\n"
        )
        (tmp_path / "manifest.csv").write_text(
            "subject_id,label,path\ns1,HC,a.csv\ns2,MCI,b.csv\n"
        )
        flag, out = command[1:3]
        capsys.readouterr()
        code = run_cli(
            [command[0], "--manifest", str(tmp_path / "manifest.csv"),
             flag, str(tmp_path / out)]
            + command[3:]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: connectivity matrix for subject 's2' has 5 nodes; the"
            " cohort's first subject has 4\n"
        )
        assert not (tmp_path / out).exists()

    def test_bad_feature_store_cell_is_two(self, cohort_dir, tmp_path, capsys):
        features = tmp_path / "features"
        extract = [
            "extract",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--out-dir", str(features),
        ]
        assert run_cli(extract) == 0
        path = features / "features_weights.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[3] = "1.5.2"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(tmp_path / "r.json"),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 5: could not convert string to float:"
            " '1.5.2'\n"
        )

    def test_oversized_field_in_feature_store_is_two(
        self, cohort_dir, tmp_path, capsys
    ):
        features = tmp_path / "features"
        extract = [
            "extract",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--out-dir", str(features),
        ]
        assert run_cli(extract) == 0
        path = features / "features_shortest_path.csv"
        records = path.read_bytes().split(b"\r\n")
        limit = csv.field_size_limit()
        records[2] = b"x" * (limit + 1) + records[2][len(b"HC0002"):]
        path.write_bytes(b"\r\n".join(records))
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(tmp_path / "r.json"),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: field larger than field limit"
            f" ({limit})\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_oversized_field_in_manifest_is_two(
        self, cohort_dir, tmp_path, capsys
    ):
        manifest = cohort_dir / "manifest.csv"
        records = manifest.read_bytes().split(b"\r\n")
        limit = csv.field_size_limit()
        records[1] = b"x" * (limit + 1) + records[1][len(b"HC0001"):]
        manifest.write_bytes(b"\r\n".join(records))
        capsys.readouterr()
        code = run_cli(
            [
                "extract",
                "--manifest", str(manifest),
                "--out-dir", str(tmp_path / "features"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2: field larger than field limit"
            f" ({limit})\n"
        )
        assert not (tmp_path / "features").exists()

    def test_duplicate_subject_in_feature_store_is_two(
        self, cohort_dir, tmp_path, capsys
    ):
        features = tmp_path / "features"
        extract = [
            "extract",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--out-dir", str(features),
        ]
        assert run_cli(extract) == 0
        # Repeat subject row 2 at the end of every file, on line 17.
        for measure in ("weights", "shortest_path", "communicability"):
            path = features / f"features_{measure}.csv"
            records = path.read_bytes().split(b"\r\n")
            assert len(records) == 17 and records[-1] == b""
            records.insert(-1, records[2])
            path.write_bytes(b"\r\n".join(records))
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(tmp_path / "r.json"),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {features / 'features_weights.csv'}: line 17:"
            " duplicate subject id 'HC0002'\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_value_is_two(
        self, cohort_dir, tmp_path, capsys, cell
    ):
        features = tmp_path / "features"
        extract = [
            "extract",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--out-dir", str(features),
        ]
        assert run_cli(extract) == 0
        path = features / "features_shortest_path.csv"
        records = path.read_bytes().split(b"\r\n")
        cells = records[3].split(b",")
        cells[4] = cell.encode()
        records[3] = b",".join(cells)
        path.write_bytes(b"\r\n".join(records))
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(tmp_path / "r.json"),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 4: feature f2 is not finite: '{cell}'\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_disconnected_constant_is_two(
        self, cohort_dir, tmp_path, capsys
    ):
        capsys.readouterr()
        code = run_cli(
            [
                "extract",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out-dir", str(tmp_path / "features"),
                "--disconnected", "constant:inf",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown disconnected-pair policy 'constant:inf'\n"
        )

    def test_feature_store_with_mismatched_widths_is_two(
        self, cohort_dir, tmp_path, capsys
    ):
        features = tmp_path / "features"
        extract = [
            "extract",
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--out-dir", str(features),
        ]
        assert run_cli(extract) == 0
        # Drop the last feature column of one measure, header included.
        path = features / "features_communicability.csv"
        records = path.read_bytes().split(b"\r\n")
        path.write_bytes(
            b"\r\n".join(r.rsplit(b",", 1)[0] if r else r for r in records)
        )
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--features-dir", str(features),
                "--out", str(tmp_path / "r.json"),
            ]
            + EVAL_SPEED
        )
        assert code == 2
        assert "same number of columns for every measure" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--folds", "1"], "k must be at least 2"),
            (["--threshold", "7"], "threshold must be in [0, 1], got 7.0"),
            (["--threshold", "nan"], "threshold must be in [0, 1], got nan"),
        ],
        ids=["one_fold", "threshold_7", "threshold_nan"],
    )
    def test_bad_evaluate_configuration_is_two(
        self, cohort_dir, tmp_path, capsys, flags, message
    ):
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "r.json"),
                "--max-iter", "5",
                "--folds", "3",
                "--repeats", "1",
            ]
            + flags
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "folds, message",
        [
            ("1", "k must be at least 2"),
            ("7", "class 0 has 6 members, fewer than k=7 folds"),
        ],
        ids=["one_fold", "more_folds_than_hc"],
    )
    def test_bad_folds_exit_before_the_dataset_sampler_trains(
        self, cohort_dir, tmp_path, capsys, monkeypatch, folds, message
    ):
        # The IHT sampler trains its models through this module global; a
        # fold count the cohort cannot meet must stop before the first one.
        fits = []
        original = sampling.train_classifier

        def counting_train(*args):
            fits.append(1)
            return original(*args)

        monkeypatch.setattr(sampling, "train_classifier", counting_train)
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "r.json"),
                "--max-iter", "5",
                "--repeats", "1",
                "--sampler", "iht",
                "--folds", folds,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert fits == []
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be nonnegative"),
            (["--noise-scale", "nan"], "noise_scale must be finite"),
            (["--noise-scale", "inf"], "noise_scale must be finite"),
            (["--effect-size", "nan"], "effect_size must be finite"),
            (["--effect-size", "inf"], "effect_size must be finite"),
        ],
        ids=["seed_negative", "noise_nan", "noise_inf", "effect_nan",
             "effect_inf"],
    )
    def test_bad_synth_settings_are_two(
        self, tmp_path, capsys, flags, message
    ):
        capsys.readouterr()
        out = tmp_path / "cohort"
        code = run_cli(SYNTH_ARGS + flags + ["--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--manifest", "--features-dir"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-iter", "0"], "max_iterations must be positive"),
            (["--alpha", "-1"], "l2_alpha must be nonnegative"),
            (["--alpha", "nan"], "l2_alpha must be finite"),
            (["--alpha", "inf"], "l2_alpha must be finite"),
            (["--alpha", "1e308"], "l2_alpha must be at most 3.91e+152"),
            (["--alpha", "1e200"], "l2_alpha must be at most 3.91e+152"),
            (["--seed", "-1"], "seed must be nonnegative"),
            (["--threshold", "7"], "threshold must be in [0, 1], got 7.0"),
            (["--repeats", "0"], "repetitions must be positive"),
            (["--folds", "1"], "k must be at least 2"),
        ],
        ids=[
            "max_iter_0", "alpha_negative", "alpha_nan", "alpha_inf",
            "alpha_huge", "alpha_1e200", "seed_negative", "threshold_7",
            "repeats_0",
            "one_fold",
        ],
    )
    def test_bad_training_settings_are_refused_before_the_ingest(
        self, cohort_dir, tmp_path, capsys, monkeypatch, source, flags, message
    ):
        calls = {"load_cohort": 0, "load_feature_csvs": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                cli.dataio, name, counted(name, getattr(cli.dataio, name))
            )
        inputs = {
            "--manifest": cohort_dir / "manifest.csv",
            "--features-dir": cohort_dir,
        }
        capsys.readouterr()
        code = run_cli(
            [
                "evaluate",
                source, str(inputs[source]),
                "--out", str(tmp_path / "r.json"),
                "--folds", "3",
                "--repeats", "1",
            ]
            + flags
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"load_cohort": 0, "load_feature_csvs": 0}
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("policy", ["error", "max_finite", "nearest"])
    def test_disconnected_with_a_feature_store_is_one(
        self, tmp_path, capsys, monkeypatch, policy
    ):
        # The store's policy was fixed by extract, so any value is refused,
        # before the store (here, a directory that does not exist) is read.
        def unread(directory):
            raise AssertionError("the feature store was read")

        monkeypatch.setattr(cli.dataio, "load_feature_csvs", unread)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                [
                    "evaluate",
                    "--features-dir", str(tmp_path / "features"),
                    "--disconnected", policy,
                    "--out", str(tmp_path / "r.json"),
                ]
            )
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: connectoml")
        assert err.endswith(
            "connectoml: error: --disconnected is for --manifest, not"
            " --features-dir\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_numerical_failure_is_three(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli.dataio, "load_cohort", explode)
        code = run_cli(
            [
                "evaluate",
                "--manifest", str(tmp_path / "whatever.csv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--help"])
        assert excinfo.value.code == 0
        assert "synth" in capsys.readouterr().out


#: sha256 of the report and the fold CSV of ``evaluate --features-dir``
#: on the weak cohort (``--folds 5 --repeats 2 --seed 0 --max-iter 15``),
#: per extra flag set. Pinned on numpy with OpenBLAS, which evaluation runs
#: on one thread. At 15 iterations no one-ulp perturbation of the features
#: or of a fit's Gram moved any fold value, so these hold across BLAS
#: kernels; a change that moves them updates them and says why.
GOLDEN_REPORTS = {
    "none": (
        [],
        "83c1b2dd39d988d14f24a9ce9ed04d7c1324a444ab70898ada238776c0ec7d53",
        "ff3af00baa6affe110dc0ee31f13807482ff4cfa567699629b992225bdb33d65",
    ),
    "iht_fold": (
        ["--sampler", "iht", "--sampler-mode", "fold"],
        "ffcd30eb95f763fc895756db81b089ef14d8e72508fb6797973b6bd001d820e9",
        "608eca8a3a4f8c55b585b6c63d3f9230037c4f3de38f19389002bbdac2eea868",
    ),
}


@pytest.fixture(scope="module")
def weak_features(tmp_path_factory):
    """The weak cohort's feature store (40 nodes, 30 HC, 70 MCI, effect
    0.06): its fold values are not saturated, so a moved value shows."""
    root = tmp_path_factory.mktemp("golden")
    assert run_cli(
        ["synth", "--out-dir", str(root / "cohort"), "--nodes", "40",
         "--hc", "30", "--mci", "70", "--seed", "3", "--effect-size", "0.06"]
    ) == 0
    assert run_cli(
        ["extract", "--manifest", str(root / "cohort" / "manifest.csv"),
         "--out-dir", str(root / "features")]
    ) == 0
    return root / "features"


@pytest.mark.skipif(
    not numpy_uses_openblas(),
    reason="golden reports are pinned on OpenBLAS at one thread; numpy's"
    " BLAS is another vendor",
)
class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_and_folds_keep_their_bytes(
        self, name, weak_features, tmp_path
    ):
        flags, report_sha, folds_sha = GOLDEN_REPORTS[name]
        report, folds = tmp_path / "report.json", tmp_path / "folds.csv"
        assert run_cli(
            ["evaluate", "--features-dir", str(weak_features),
             "--folds", "5", "--repeats", "2", "--seed", "0",
             "--max-iter", "15", "--out", str(report),
             "--dump-folds", str(folds), *flags]
        ) == 0
        digest = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (report, folds)
        }
        assert digest == {"report.json": report_sha, "folds.csv": folds_sha}
