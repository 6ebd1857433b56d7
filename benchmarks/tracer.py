"""Spans recorded around connectoml's public functions, from outside the package.

Each wrapped function is replaced at the module or class attribute its
caller looks it up through (``cli.run_experiment``, not
``evaluation.run_experiment``), so no code inside ``src/`` changes. Spans are
kept in memory with the index of their parent span and turned into per-layer
metrics after the traced command has finished. :meth:`Tracer.unwrap_all`
puts every original object back.

A span's layer is the part of its name before the first dot. A span's self
time is its duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

#: Layers whose self times are reported; ``cli`` is the remainder.
LAYERS = (
    "connectome",
    "dataio",
    "neuralnet",
    "lbfgs",
    "sampling",
    "evaluation",
    "cohort",
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from wrappers installed with :meth:`wrap`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []
        #: Every (owner, attribute, original) ever wrapped, kept after unwrap.
        self.sites: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``describe(args, result)``, if given, returns the span's attributes.
        It runs after the span has closed.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, parent, self.clock()))
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = self.clock()
            if describe is not None:
                self.spans[index].attrs = describe(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        self.sites.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def not_restored(self) -> list[str]:
        """Wrapped attributes that do not hold their original object."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self.sites
            if vars(owner).get(attr) is not original
        ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda i: spans[i].start):
            low = max(spans[child].start, cursor)
            high = min(spans[child].end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result.append(span.duration - covered)
    return result


def _bytes_written(args, result) -> dict:
    paths = result if isinstance(result, list) else [result]
    return {"bytes": sum(os.path.getsize(path) for path in paths)}


def _input_dim(args, result) -> dict:
    return {"dim": result.input_dim}


def _sampler_method(args, result) -> dict:
    return {"method": args[1].method}


def _lbfgs_outcome(args, result) -> dict:
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "line_search_failed": result.line_search_failed,
    }


def _objective_flops(args, result) -> dict:
    from connectoml.neuralnet import HIDDEN_UNITS

    rows, dim = args[1].shape
    # Computed, not counted: the two (rows x dim x 32) GEMMs of the first
    # layer, forward and backward, at 2 flops per multiply-add.
    return {"flops": 4 * rows * HIDDEN_UNITS * dim}


def install(tracer: Tracer) -> None:
    """Wrap every lookup site the benchmark's per-layer metrics need."""
    from connectoml import (
        cli,
        cohort,
        connectome,
        dataio,
        evaluation,
        lbfgs,
        neuralnet,
        sampling,
    )

    sites = (
        (cli, "main", "cli.main", None),
        (dataio, "load_cohort", "dataio.load_cohort", None),
        (dataio, "load_matrix_file", "dataio.load_matrix_file", None),
        (dataio, "validate_matrix", "connectome.validate_matrix", None),
        (dataio, "extract_features", "connectome.extract_features", None),
        (connectome, "weight_features", "connectome.weight_features", None),
        (
            connectome,
            "shortest_path_lengths",
            "connectome.shortest_path_lengths",
            None,
        ),
        (connectome, "communicability", "connectome.communicability", None),
        (
            dataio,
            "write_feature_csvs",
            "dataio.write_feature_csvs",
            _bytes_written,
        ),
        (dataio, "load_feature_csvs", "dataio.load_feature_csvs", None),
        (dataio, "export_report", "dataio.export_report", _bytes_written),
        (cli, "run_experiment", "evaluation.run_experiment", None),
        (
            evaluation,
            "apply_sampler",
            "sampling.apply_sampler",
            _sampler_method,
        ),
        (
            evaluation,
            "train_classifier",
            "neuralnet.train_classifier",
            _input_dim,
        ),
        (
            sampling,
            "train_classifier",
            "neuralnet.train_classifier.iht",
            None,
        ),
        (evaluation, "predict_proba", "neuralnet.predict_proba", None),
        (sampling, "predict_proba", "neuralnet.predict_proba", None),
        (neuralnet, "lbfgs_minimize", "lbfgs.lbfgs_minimize", _lbfgs_outcome),
        (
            neuralnet,
            "loss_and_gradient",
            "neuralnet.loss_and_gradient",
            _objective_flops,
        ),
        (
            lbfgs,
            "strong_wolfe_line_search",
            "lbfgs.strong_wolfe_line_search",
            None,
        ),
        (
            evaluation,
            "compute_fold_metrics",
            "evaluation.compute_fold_metrics",
            None,
        ),
        (evaluation, "mann_whitney_u", "evaluation.mann_whitney_u", None),
        (evaluation, "aggregate_metrics", "evaluation.aggregate_metrics", None),
        (cohort.LabeledCohort, "subset", "cohort.subset", None),
        (cohort.LabeledCohort, "fused", "cohort.fused", None),
    )
    for owner, attr, name, describe in sites:
        tracer.wrap(owner, attr, name, describe)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced command whose root span is spans[0].

    Metrics of a layer the command never entered are 0.
    """
    own = self_times(spans)
    wall = spans[0].duration

    def named(name):
        return [i for i, span in enumerate(spans) if span.name == name]

    def total(name):
        return sum(spans[i].duration for i in named(name))

    def mean(name):
        indices = named(name)
        return _ratio(sum(spans[i].duration for i in indices), len(indices))

    def self_total(name):
        return sum(own[i] for i in named(name))

    def returned(name):
        """Spans of calls that returned, which alone have attributes."""
        return [spans[i] for i in named(name) if spans[i].attrs]

    fits = returned("neuralnet.train_classifier")
    fused_dim = max((span.attrs["dim"] for span in fits), default=0)
    fused = [s.duration for s in fits if s.attrs["dim"] == fused_dim]
    single = [s.duration for s in fits if s.attrs["dim"] != fused_dim]
    minimizations = [s.attrs for s in returned("lbfgs.lbfgs_minimize")]
    iterations = sum(outcome["iterations"] for outcome in minimizations)
    objective = named("neuralnet.loss_and_gradient")
    objective_s = total("neuralnet.loss_and_gradient")
    flops = sum(spans[i].attrs.get("flops", 0) for i in objective)
    written = sum(span.attrs.get("bytes", 0) for span in spans)
    # Sampler "none" returns its input: no sampling work is done.
    sampling_s = sum(
        spans[i].duration
        for i in named("sampling.apply_sampler")
        if spans[i].attrs.get("method") != "none"
    )
    by_layer = {layer: 0.0 for layer in LAYERS}
    for index, span in enumerate(spans[1:], start=1):
        by_layer[span.layer] += own[index]

    metrics = {
        "connectome.validate_ms": 1e3 * mean("connectome.validate_matrix"),
        "connectome.shortest_path_ms": 1e3
        * mean("connectome.shortest_path_lengths"),
        "connectome.communicability_ms": 1e3
        * mean("connectome.communicability"),
        "dataio.parse_ms": 1e3 * mean("dataio.load_matrix_file"),
        "dataio.write_features_s": total("dataio.write_feature_csvs"),
        "dataio.bytes_written": written,
        "dataio.load_features_s": total("dataio.load_feature_csvs"),
        "dataio.export_report_s": total("dataio.export_report"),
        "neuralnet.fit_s.single": _ratio(sum(single), len(single)),
        "neuralnet.fit_s.fused": _ratio(sum(fused), len(fused)),
        "neuralnet.fit_s.iht": mean("neuralnet.train_classifier.iht"),
        "neuralnet.objective_calls": len(objective),
        "neuralnet.objective_ms": 1e3 * mean("neuralnet.loss_and_gradient"),
        "neuralnet.objective_s": objective_s,
        "neuralnet.objective_gflops": _ratio(flops, objective_s) / 1e9,
        "neuralnet.predict_s": total("neuralnet.predict_proba"),
        "lbfgs.self_s": self_total("lbfgs.lbfgs_minimize"),
        "lbfgs.line_search_self_s": self_total("lbfgs.strong_wolfe_line_search"),
        "lbfgs.iterations_mean": _ratio(iterations, len(minimizations)),
        "lbfgs.evals_per_iteration": _ratio(len(objective), iterations),
        "lbfgs.converged_frac": _ratio(
            sum(outcome["converged"] for outcome in minimizations),
            len(minimizations),
        ),
        "lbfgs.line_search_failed_frac": _ratio(
            sum(outcome["line_search_failed"] for outcome in minimizations),
            len(minimizations),
        ),
        "sampling.apply_s": sampling_s,
        "sampling.share": _ratio(sampling_s, wall),
        "evaluation.metrics_s": total("evaluation.compute_fold_metrics"),
        "evaluation.stats_s": total("evaluation.mann_whitney_u")
        + total("evaluation.aggregate_metrics"),
        "evaluation.self_s": self_total("evaluation.run_experiment"),
        "cohort.subset_s": total("cohort.subset"),
        "cohort.fused_s": total("cohort.fused"),
        "trace.wall_s": wall,
        "trace.overhead_frac": _ratio(wall, untraced_wall_s) - 1.0,
        "trace.unattributed_s": own[0],
    }
    for layer in LAYERS:
        metrics[f"trace.self_s.{layer}"] = by_layer[layer]
    return metrics
