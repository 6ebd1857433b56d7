"""End-to-end command-line tests: synth, extract, evaluate, compare."""

import json

import pytest

import connectoml.cli as cli
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
