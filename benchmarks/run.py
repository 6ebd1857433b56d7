#!/usr/bin/env python3
"""connectoml benchmark: one run of one workload.

    python3 benchmarks/run.py --workload cv_paper --seed 11 --seconds 20 --trace 0

Run it from the root of a source checkout. The package is pure Python and is
imported from ``src/``; nothing is built or installed. Each run works in a
fresh directory under ``.bench_work/`` in the checkout and deletes it at the
end. The phases run in child processes (``worker.py``) whose environment
pins the BLAS thread count before numpy is imported:

1. set-up: generate the workload's inputs from ``--seed`` on disk, several
   times, and report the median time as ``setup_s``;
2. with ``--trace 0``, a fresh process calls ``connectoml.cli.main`` in a
   closed loop for ``--seconds`` and checks the outputs; with ``--trace 1``,
   one untraced and one traced call give the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The workload names,
metric names and units come from ``BENCHMARK.json``. README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Trained weights can differ in the last bits between BLAS thread counts,
#: so the count is pinned and recorded. One thread: on a 2-core machine two
#: threads made no workload faster, and their spin-waiting slowed the
#: pure-Python phases and made them noisier.
BLAS_THREADS = 1
#: A run must end within 180 s; child processes are killed at this deadline.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def phase(name: str, args, workdir: Path, deadline: float, *extra) -> dict:
    """Run one worker phase; returns the JSON object it printed last."""
    argv = [
        sys.executable, str(HERE / "worker.py"), name,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {name} phase")
    try:
        # On timeout, run() kills the child and waits for it.
        done = subprocess.run(
            argv, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name} phase timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{name} phase exited with {done.returncode}")
    return json.loads(lines[-1])




def end_to_end(setup: dict, measured: dict) -> dict:
    """Medians of the timings at the probe's reference speed (worker.probe)."""
    throughput = [
        measured["units"] / a["reference_seconds"]
        for a in measured["attempts"]
    ]
    return {
        "setup_s": statistics.median(setup["reference_setup_s"]),
        "units_per_s": statistics.median(throughput),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(
        description="Run one connectoml benchmark workload."
    )
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(spec, argv)
    if not (ROOT / "src" / "connectoml" / "cli.py").is_file():
        print(f"error: no connectoml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        # A traced run reports no set-up time, so it sets up once.
        once = ("--once",) if args.trace else ()
        setup = phase("setup", args, workdir, deadline, *once)
        if args.trace:
            result = phase("trace", args, workdir, deadline)
            values = result["metrics"]
        else:
            result = phase(
                "measure", args, workdir, deadline,
                "--seconds", str(args.seconds),
            )
            values = end_to_end(setup, result)
    except (BenchmarkError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if set(values) != set(units):
        print(
            f"error: metrics {sorted(set(values) ^ set(units))} do not match"
            f" the {kind} list of BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    print("machine", json.dumps(setup["machine"], sort_keys=True))
    print("setup wall s", json.dumps(setup["setup_s"]))
    print("setup reference s", json.dumps(setup["reference_setup_s"]))
    for index, attempt in enumerate(result["attempts"]):
        reference = attempt.get("reference_seconds")
        print(
            f"call {index}: {attempt['seconds']:.3f} s wall"
            + (f", {reference:.3f} s reference" if reference else "")
            + f", exit {attempt['exit_code']} sha256 {attempt['sha256']}"
        )
    for key in ("auc_ensemble", "auc_fusion"):
        if key in result:
            print(f"{key} {result[key]!r}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    attempted = len(result["attempts"])
    print(f"error_rate {result['failed'] / attempted!r}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
