"""Noise floor of the cross-validated reports under one-ulp input rounding.

Under the default ``TrainConfig`` a fit runs up to 200 L-BFGS iterations,
and last-bit rounding of the inputs moves some fold values. This study
measures how far: for each seed it adds one ulp (``np.nextafter`` toward
+inf) to a seeded random half of the nonzero feature cells, reruns the
experiment and compares the report with the unperturbed one. A change to
the arithmetic whose moves on the same runs stay within these figures
moves reports by rounding alone.

Runs: 5 folds x 2 repetitions, seed 0, default ``TrainConfig``, on

- ``weak_none``: the weak cohort (``synth --nodes 40 --hc 30 --mci 70
  --seed 3 --effect-size 0.06``), no sampler;
- ``weak_iht_fold``: the same cohort, instance hardness on each training
  fold;
- ``paper_none``: the paper cohort (``synth --hc 49 --mci 108 --nodes 120
  --seed 101 --effect-size 1.5``), no sampler.

Per seed the output records how many of the fold values moved and the
largest move of a strategy's metric mean, in units of the larger of its
two standard errors. Usage, from the root of a source checkout::

    PYTHONPATH=src python studies/noise_floor.py [--seeds S] [--out PATH]
    PYTHONPATH=src python studies/noise_floor.py --compare BASE.json NEW.json

``--compare`` prints the same two figures for two saved reports, so that a
change can set its own moves next to the floor. It pairs the reports' fold
values in unit order, so it refuses (exit status 2) two reports whose
``folds``, ``repetitions``, ``n_subjects`` or ``class_counts`` differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

# The experiment pins OpenBLAS to one thread; pin any other BLAS too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from connectoml import SamplerConfig, TrainConfig, run_experiment  # noqa
from connectoml.cli import main as cli  # noqa: E402
from connectoml.cohort import LabeledCohort  # noqa: E402
from connectoml.dataio import load_feature_csvs, load_report  # noqa: E402

FOLDS = 5
REPETITIONS = 2
SEED = 0

COHORTS = {
    "weak": [
        "--nodes", "40", "--hc", "30", "--mci", "70", "--seed", "3",
        "--effect-size", "0.06",
    ],
    "paper": [
        "--hc", "49", "--mci", "108", "--nodes", "120", "--seed", "101",
        "--effect-size", "1.5",
    ],
}

#: Configuration name: (cohort, sampler method).
CONFIGS = {
    "weak_none": ("weak", "none"),
    "weak_iht_fold": ("weak", "instance_hardness"),
    "paper_none": ("paper", "none"),
}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


#: Config keys two reports must share for their fold values to pair up.
PAIRED_KEYS = ("folds", "repetitions", "n_subjects", "class_counts")


def moves(base, other) -> tuple[int, float]:
    """Fold values of ``other`` that differ from ``base``, and the largest
    |mean difference| of a strategy's metric over the larger of its two
    standard errors (infinite where both are zero and the mean moved)."""
    moved, largest = 0, 0.0
    for strategy, metrics in base.fold_values.items():
        for metric, values in metrics.items():
            others = other.fold_values[strategy][metric]
            moved += sum(a != b for a, b in zip(values, others))
            ours = base.strategies[strategy][metric]
            theirs = other.strategies[strategy][metric]
            shift = abs(theirs["mean"] - ours["mean"])
            if shift:
                se = max(ours["se"], theirs["se"])
                largest = max(largest, shift / se if se else math.inf)
    return moved, largest


def perturbed(cohort: LabeledCohort, seed: int) -> LabeledCohort:
    """The cohort with one ulp added to a seeded random half of its nonzero
    feature cells."""
    matrix = cohort.fused().copy()
    cells = np.flatnonzero(matrix)
    chosen = np.random.default_rng(seed).permutation(cells)[: cells.size // 2]
    matrix.flat[chosen] = np.nextafter(matrix.flat[chosen], np.inf)
    return LabeledCohort(cohort.subject_ids, cohort.labels, matrix)


def load_cohorts(work: Path) -> dict:
    """Each cohort made by ``synth`` and ``extract`` under ``work``."""
    cohorts = {}
    for name, flags in COHORTS.items():
        raw, features = work / name, work / f"{name}_features"
        for argv in (
            ["synth", "--out-dir", str(raw), *flags],
            ["extract", "--manifest", str(raw / "manifest.csv"),
             "--out-dir", str(features)],
        ):
            if cli(argv) != 0:
                raise SystemExit(f"connectoml {argv[0]} failed for {name}")
        cohorts[name] = load_feature_csvs(features)
    return cohorts


def study(seeds: int, work: Path) -> dict:
    cohorts = load_cohorts(work)
    train = TrainConfig()
    configs = {}
    for name, (cohort_name, method) in CONFIGS.items():
        sampler = SamplerConfig(method=method)

        def run(cohort):
            return run_experiment(
                cohort, sampler, train, k=FOLDS, repetitions=REPETITIONS,
                seed=SEED,
            )

        base = run(cohorts[cohort_name])
        per_seed = []
        for seed in range(seeds):
            rerun = run(perturbed(cohorts[cohort_name], seed))
            moved, largest = moves(base, rerun)
            per_seed.append(
                {"seed": seed, "moved": moved, "max_se_move": largest}
            )
            print(
                f"{name} seed {seed}: {moved} moved, {largest:.3f} SE",
                file=sys.stderr,
            )
        configs[name] = {
            "cohort": f"synth {' '.join(COHORTS[cohort_name])}",
            "sampler": {"method": method},
            "n_fold_values": sum(
                len(values)
                for metrics in base.fold_values.values()
                for values in metrics.values()
            ),
            "seeds": per_seed,
            "max_moved": max(entry["moved"] for entry in per_seed),
            "max_se_move": max(entry["max_se_move"] for entry in per_seed),
        }
    return {
        "machine": machine(),
        "runs": {
            "folds": FOLDS,
            "repetitions": REPETITIONS,
            "seed": SEED,
            "train": "TrainConfig()",
        },
        "perturbation": (
            "np.nextafter(v, inf) on a seeded random half of the nonzero"
            " feature cells"
        ),
        "configs": configs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--out", default="STUDY_noise_floor.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        base, new = (load_report(p) for p in args.compare)
        for key in PAIRED_KEYS:
            if base.config.get(key) != new.config.get(key):
                print(
                    f"reports differ in {key}: {base.config.get(key)!r} vs"
                    f" {new.config.get(key)!r}; their fold values do not"
                    " pair up",
                    file=sys.stderr,
                )
                return 2
        moved, largest = moves(base, new)
        print(f"{moved} fold values moved, largest mean move {largest:.3f} SE")
        return 0
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        result = study(args.seeds, Path(work))
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
