"""Self-test of the benchmark's tracer: python3 -m pytest -q benchmarks"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", None, 0.0, 10.0),
        Span("dataio.a", 0, 1.0, 4.0),
        Span("connectome.b", 1, 2.0, 3.0),
        Span("dataio.c", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("cli.main", None, 0.0, 10.0),
        Span("dataio.a", 0, 1.0, 4.0),
        Span("dataio.b", 0, 3.0, 6.0),
        Span("dataio.c", 0, 8.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_wrappers_nest_spans_and_restore_originals():
    ticks = iter(range(100))
    recorder = Tracer(clock=lambda: float(next(ticks)))
    fake = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    def broken():
        raise ValueError("boom")

    fake.inner, fake.outer, fake.broken = inner, outer, broken
    recorder.wrap(fake, "outer", "dataio.outer")
    recorder.wrap(fake, "inner", "connectome.inner", lambda a, r: {"r": r})
    recorder.wrap(fake, "broken", "dataio.broken")
    assert fake.outer(1) == 4
    with pytest.raises(ValueError):
        fake.broken()
    recorder.unwrap_all()

    names = [(s.name, s.parent, s.start, s.end) for s in recorder.spans]
    assert names == [
        ("dataio.outer", None, 0.0, 3.0),
        ("connectome.inner", 0, 1.0, 2.0),
        ("dataio.broken", None, 4.0, 5.0),
    ]
    assert recorder.spans[1].attrs == {"r": 2}
    assert (fake.inner, fake.outer, fake.broken) == (inner, outer, broken)
    assert recorder.not_restored() == []


def test_layer_self_times_account_for_the_wall_time():
    spans = [
        Span("cli.main", None, 0.0, 10.0),
        Span("dataio.load_cohort", 0, 0.5, 4.0),
        Span("connectome.extract_features", 1, 1.0, 3.0),
        Span("evaluation.run_experiment", 0, 4.0, 9.5),
        Span("cohort.subset", 3, 4.5, 5.0),
    ]
    metrics = layer_metrics(spans, untraced_wall_s=8.0)
    layers = sum(metrics[f"trace.self_s.{layer}"] for layer in tracer.LAYERS)
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(10.0)
    assert metrics["trace.self_s.evaluation"] == pytest.approx(5.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics["lbfgs.converged_frac"] == 0.0


def _run(argv):
    from connectoml import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_traced_cli_run_restores_every_site_and_reports_every_metric(tmp_path):
    from connectoml import dataio

    cfg = dataio.SyntheticCohortConfig(n_nodes=6, n_hc=10, n_mci=20, seed=3)
    ids, labels, matrices = dataio.generate_synthetic_matrices(cfg)
    manifest = dataio.materialize_cohort(ids, labels, matrices, tmp_path / "c")

    recorder = Tracer()
    tracer.install(recorder)
    try:
        _run(["evaluate", "--manifest", str(manifest),
              "--sampler", "iht", "--sampler-mode", "fold", "--max-iter", "3",
              "--folds", "2", "--repeats", "1", "--out",
              str(tmp_path / "r.json")])
    finally:
        recorder.unwrap_all()

    for owner, attr, original in recorder.sites:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert recorder.not_restored() == []

    metrics = layer_metrics(recorder.spans, 1.0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer"]} - {
        "evaluation.auc_ensemble",
        "evaluation.auc_fusion",
    }
    assert set(metrics) == expected
    assert metrics["neuralnet.fit_s.iht"] > 0
    assert metrics["neuralnet.fit_s.fused"] > 0
    assert metrics["lbfgs.iterations_mean"] <= 3
