"""One phase of one benchmark workload, in a process of its own.

``run.py`` starts this script with the BLAS thread count already pinned in
the environment, so the pin holds before numpy is imported. Phases:

* ``setup``: generate the workload's inputs on disk several times, or once
  with ``--once``, and keep the last copy;
* ``measure``: run the workload's CLI command in-process, one call after the
  other, for ``--seconds``; then check the outputs. The process runs nothing
  else before its peak RSS is read;
* ``trace``: run the command once untraced and once with every wrapper of
  ``tracer.install`` in place, then undo the wrappers and compute the
  per-layer metrics.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import connectoml  # noqa: E402
from connectoml import cli, dataio  # noqa: E402
from connectoml.connectome import MEASURES, extract_features  # noqa: E402
from connectoml.evaluation import METRIC_NAMES, STRATEGIES  # noqa: E402

import tracer  # noqa: E402


#: One repetition per call keeps a call short; the folds set the work.
REPETITIONS = 1


@dataclass(frozen=True)
class Workload:
    """Inputs and command of one workload; see README.md for the reasons."""

    cohort: dict
    #: Inputs are a feature store (evaluate --features-dir) instead of
    #: matrix files plus manifest.
    feature_store: bool = False
    #: evaluate flags other than input, folds, seed and output; None means
    #: the extract command.
    evaluate_flags: tuple | None = None
    folds: int = 0
    auc_floor: float = 0.0

    @property
    def units(self) -> int:
        """Work units of one call: folds for evaluate, subjects for extract."""
        if self.evaluate_flags is None:
            return self.cohort["n_hc"] + self.cohort["n_mci"]
        return self.folds * REPETITIONS


WORKLOADS = {
    "cv_paper": Workload(
        cohort=dict(n_nodes=120, n_hc=49, n_mci=108, effect_size=1.5),
        evaluate_flags=("--sampler", "none"),
        folds=3,
        auc_floor=0.95,
    ),
    "cv_iht_large": Workload(
        cohort=dict(
            n_nodes=40, n_hc=300, n_mci=700, effect_size=0.2, noise_scale=0.5
        ),
        feature_store=True,
        evaluate_flags=(
            "--sampler", "iht", "--sampler-mode", "fold", "--max-iter", "15",
        ),
        folds=5,
        auc_floor=0.7,
    ),
    "extract_paper": Workload(
        cohort=dict(n_nodes=120, n_hc=30, n_mci=70, effect_size=1.5),
    ),
}

#: Set-up runs at least SETUP_REPEATS times and, while cheap, until
#: SETUP_MIN_S have passed (at most MAX_SETUPS times), so that its median is
#: steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
MAX_SETUPS = 9

#: Time of probe() on the baseline machine of README.md. Timed steps are
#: reported in seconds at that speed as well as in wall-clock seconds.
PROBE_REF_S = 0.175

#: Subjects whose extracted features the extract check recomputes.
CHECKED_SUBJECTS = 3


def machine() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas']['version']}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack']['version']}",
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, vector and GEMM work.

    The host's speed drifts by up to ±20 % over tens of seconds, which moves
    every timing of a run together. Dividing a step's time by this probe's
    time, taken right before and after the step, removes much of that drift
    (README.md gives the figures).
    """
    rng = np.random.default_rng(0)
    vector = rng.random(500_000)
    other = vector.copy()
    rows = rng.random((120, 3000))
    weights = rng.random((3000, 32))
    start = time.perf_counter()
    total = 0
    for i in range(750_000):
        total += i * i
    for _ in range(75):
        other += 0.5 * vector
        float(vector @ other)
    for _ in range(50):
        rows @ weights
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_before: float, probe_after: float):
    """``seconds`` scaled to the speed at which probe() takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2)


def setup(workload: Workload, seed: int, inputs: Path, once: bool) -> dict:
    times = []
    reference = []
    before = probe()
    while not times or not (
        once
        or len(times) >= MAX_SETUPS
        or (len(times) >= SETUP_REPEATS and sum(times) >= SETUP_MIN_S)
    ):
        if inputs.exists():
            shutil.rmtree(inputs)
        start = time.perf_counter()
        cfg = dataio.SyntheticCohortConfig(seed=seed, **workload.cohort)
        if workload.feature_store:
            cohort = dataio.generate_synthetic_cohort(cfg)
            dataio.write_feature_csvs(cohort, inputs)
        else:
            ids, labels, matrices = dataio.generate_synthetic_matrices(cfg)
            dataio.materialize_cohort(ids, labels, matrices, inputs)
        times.append(time.perf_counter() - start)
        after = probe()
        reference.append(at_reference_speed(times[-1], before, after))
        before = after
    return {"setup_s": times, "reference_setup_s": reference}


def command(workload: Workload, seed: int, inputs: Path, output: Path):
    manifest = str(inputs / "manifest.csv")
    if workload.evaluate_flags is None:
        return ["extract", "--manifest", manifest, "--out-dir", str(output)]
    source = (
        ["--features-dir", str(inputs)]
        if workload.feature_store
        else ["--manifest", manifest]
    )
    return [
        "evaluate", *source, *workload.evaluate_flags,
        "--folds", str(workload.folds), "--repeats", str(REPETITIONS),
        "--seed", str(seed), "--out", str(output), "--overwrite",
    ]


def output_files(workload: Workload, output: Path):
    if workload.evaluate_flags is None:
        return [output / f"features_{measure}.csv" for measure in MEASURES]
    return [output]


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def attempt(workload: Workload, argv, output: Path) -> dict:
    """One CLI call, timed; a failure is an exit code, exception or no output."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    result = {"seconds": elapsed, "exit_code": code, "sha256": None}
    paths = output_files(workload, output)
    if code == 0 and all(path.is_file() for path in paths):
        result["sha256"] = digest(paths)
    return result


def check_report(workload: Workload, path: Path) -> tuple[list, dict]:
    """Problems with a CV report, and its mean per-fold AUCs."""
    report = dataio.load_report(path)
    problems = []
    n_folds = workload.folds * REPETITIONS
    if tuple(report.strategies) != STRATEGIES:
        problems.append(f"strategies {list(report.strategies)}")
    for strategy in STRATEGIES:
        summary = report.strategies.get(strategy, {})
        if tuple(summary) != METRIC_NAMES:
            problems.append(f"{strategy}: metrics {list(summary)}")
        for metric, cell in summary.items():
            if cell["n_folds"] != n_folds:
                problems.append(
                    f"{strategy}.{metric}: n_folds {cell['n_folds']}"
                    f" != {n_folds}"
                )
    aucs = {
        "auc_ensemble": report.strategies["ensemble"]["auc"]["mean"],
        "auc_fusion": report.strategies["fusion"]["auc"]["mean"],
    }
    if aucs["auc_ensemble"] < workload.auc_floor:
        problems.append(
            f"auc_ensemble {aucs['auc_ensemble']} below the signal-recovery"
            f" floor {workload.auc_floor}"
        )
    return problems, aucs


def check_features(inputs: Path, output: Path, seed: int) -> list:
    """Feature CSVs round-trip and equal fresh extraction on sampled subjects."""
    stored = dataio.load_feature_csvs(output)
    entries = dataio.read_manifest(inputs / "manifest.csv")
    problems = []
    expected = ([e[0] for e in entries], [e[1] for e in entries])
    if (list(stored.subject_ids), stored.labels.tolist()) != expected:
        problems.append("feature store subjects or labels differ from manifest")
        return problems
    rows = random.Random(seed).sample(range(len(entries)), CHECKED_SUBJECTS)
    for row in rows:
        subject_id, _, path = entries[row]
        matrix = dataio.validate_matrix(
            dataio.load_matrix_file(path), subject_id=subject_id
        )
        for measure, vector in extract_features(matrix).items():
            if not np.array_equal(vector.values, stored.features[measure][row]):
                problems.append(f"{subject_id}: {measure} features differ")
    return problems


def check_outputs(workload, inputs, output, seed, attempts) -> tuple:
    """Checks of the last outputs and of determinism across attempts.

    Returns the problems found and, for CV workloads, the report's AUCs.
    Failed calls are counted by :func:`failed_attempts`, not here.
    """
    problems = []
    digests = {r["sha256"] for r in attempts if r["sha256"] is not None}
    if len(digests) > 1:
        problems.append("outputs differ between attempts of one seed")
    if attempts[-1]["sha256"] is None:
        return problems, {}
    try:
        if workload.evaluate_flags is None:
            return problems + check_features(inputs, output, seed), {}
        report_problems, aucs = check_report(workload, output)
    except Exception as exc:
        # A malformed output is a failed check, not a benchmark crash.
        traceback.print_exc()
        return problems + [f"output check raised {exc!r}"], {}
    return problems + report_problems, aucs


def failed_attempts(attempts, problems) -> int:
    """Failed calls; a failed output check counts as one more failure."""
    failed = sum(result["sha256"] is None for result in attempts)
    return min(len(attempts), failed + bool(problems))


def measure(workload, seed, inputs, output, seconds) -> dict:
    argv = command(workload, seed, inputs, output)
    attempts = []
    start = time.perf_counter()
    before = probe()
    while True:
        attempts.append(attempt(workload, argv, output))
        after = probe()
        attempts[-1]["reference_seconds"] = at_reference_speed(
            attempts[-1]["seconds"], before, after
        )
        before = after
        # Stop where the next call would end farther from the deadline
        # than this one did.
        typical = statistics.median(r["seconds"] for r in attempts)
        if time.perf_counter() - start + typical / 2 > seconds:
            break
    # ru_maxrss is in KiB on Linux; read it before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, aucs = check_outputs(workload, inputs, output, seed, attempts)
    return {
        "attempts": attempts,
        "failed": failed_attempts(attempts, problems),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "units": workload.units,
        **aucs,
    }


def trace(workload, seed, inputs, output) -> dict:
    argv = command(workload, seed, inputs, output)
    untraced = attempt(workload, argv, output)
    recorder = tracer.Tracer()
    tracer.install(recorder)
    try:
        traced = attempt(workload, argv, output)
    finally:
        recorder.unwrap_all()
    attempts = [untraced, traced]
    problems, aucs = check_outputs(workload, inputs, output, seed, attempts)
    problems += [f"not restored: {name}" for name in recorder.not_restored()]
    metrics = tracer.layer_metrics(recorder.spans, untraced["seconds"])
    metrics["evaluation.auc_ensemble"] = aucs.get("auc_ensemble", 0.0)
    metrics["evaluation.auc_fusion"] = aucs.get("auc_fusion", 0.0)
    return {
        "attempts": attempts,
        "failed": failed_attempts(attempts, problems),
        "problems": problems,
        "metrics": metrics,
        **aucs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=["setup", "measure", "trace"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--once", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    package = Path(connectoml.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"imported connectoml from {package}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = args.workdir / "inputs"
    output = args.workdir / (
        "features" if workload.evaluate_flags is None else "report.json"
    )
    if args.phase == "setup":
        result = setup(workload, args.seed, inputs, args.once)
        result["machine"] = machine()
    elif args.phase == "measure":
        result = measure(workload, args.seed, inputs, output, args.seconds)
    else:
        result = trace(workload, args.seed, inputs, output)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
