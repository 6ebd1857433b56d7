"""Tests for ``studies/noise_floor.py --compare`` on small saved reports."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from connectoml.dataio import export_report
from connectoml.evaluation import METRIC_NAMES, STRATEGIES, summarize

STUDY = Path(__file__).resolve().parents[1] / "studies" / "noise_floor.py"


@pytest.fixture(scope="module")
def noise_floor():
    """The study script as a module; the BLAS variables it sets on import
    are put back."""
    spec = importlib.util.spec_from_file_location("noise_floor", STUDY)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def saved_report(path, changed=None, **config):
    """A 2 x 2 report with seeded fold values, exported to ``path``;
    ``changed`` is a (strategy, metric, index, value) to put in, and
    ``config`` overrides the run's config keys."""
    rng = np.random.default_rng(0)
    fold_values = {
        strategy: {metric: rng.random(4).tolist() for metric in METRIC_NAMES}
        for strategy in STRATEGIES
    }
    if changed:
        strategy, metric, index, value = changed
        fold_values[strategy][metric][index] = value
    run = {
        "n_subjects": 20,
        "class_counts": {"HC": 8, "MCI": 12},
        "folds": 2,
        "repetitions": 2,
        **config,
    }
    return str(export_report(summarize(fold_values, run), path))


def test_identical_reports_move_nothing(noise_floor, tmp_path, capsys):
    base = saved_report(tmp_path / "base.json")
    same = saved_report(tmp_path / "same.json")
    assert noise_floor.main(["--compare", base, same]) == 0
    assert capsys.readouterr().out == (
        "0 fold values moved, largest mean move 0.000 SE\n"
    )


def test_one_changed_value_moves_one(noise_floor, tmp_path, capsys):
    base = saved_report(tmp_path / "base.json")
    other = saved_report(
        tmp_path / "other.json", changed=("fusion", "auc", 3, 0.5)
    )
    assert noise_floor.main(["--compare", base, other]) == 0
    assert capsys.readouterr().out.startswith("1 fold values moved,")


@pytest.mark.parametrize(
    "key, value",
    [
        ("folds", 4),
        ("repetitions", 1),
        ("n_subjects", 21),
        ("class_counts", {"HC": 9, "MCI": 11}),
    ],
)
def test_reports_that_do_not_pair_up_are_refused(
    noise_floor, tmp_path, capsys, key, value
):
    base = saved_report(tmp_path / "base.json")
    other = saved_report(tmp_path / "other.json", **{key: value})
    assert noise_floor.main(["--compare", base, other]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"reports differ in {key}:")
