"""Command-line pipeline: synth, extract, evaluate, compare.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dataio
from .errors import NumericalError, ValidationError
from .evaluation import (
    METRIC_NAMES,
    STRATEGIES,
    check_experiment_settings,
    mann_whitney_u,
    run_experiment,
)
from .neuralnet import TrainConfig
from .sampling import (
    METHOD_INSTANCE_HARDNESS,
    METHOD_NEAR_MISS_3,
    METHOD_NONE,
    METHOD_RANDOM,
    SamplerConfig,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_SAMPLER_FLAGS = {
    "none": METHOD_NONE,
    "random": METHOD_RANDOM,
    "nearmiss3": METHOD_NEAR_MISS_3,
    "iht": METHOD_INSTANCE_HARDNESS,
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve that for
    data problems, so remap usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="connectoml",
        description=(
            "Classify subjects from brain connectivity matrices using"
            " complex-network features and neural-network ensembles."
        ),
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    synth = sub.add_parser("synth", help="generate a synthetic cohort on disk")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--nodes", type=int, default=120)
    synth.add_argument("--hc", type=int, default=49)
    synth.add_argument("--mci", type=int, default=108)
    synth.add_argument("--effect-size", type=float, default=1.0)
    synth.add_argument("--affected-fraction", type=float, default=0.2)
    synth.add_argument("--noise-scale", type=float, default=0.25)
    synth.add_argument("--edge-density", type=float, default=0.3)
    synth.add_argument("--seed", type=int, default=0)

    extract = sub.add_parser(
        "extract", help="compute per-measure feature CSVs from a manifest"
    )
    extract.add_argument("--manifest", required=True)
    extract.add_argument("--out-dir", required=True)
    extract.add_argument(
        "--disconnected",
        default="max_finite",
        help="max_finite, constant:<v>, or error",
    )

    evaluate = sub.add_parser(
        "evaluate", help="run the cross-validated experiment"
    )
    source = evaluate.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest")
    source.add_argument(
        "--features-dir", help="directory written by the extract command"
    )
    evaluate.add_argument(
        "--sampler", choices=sorted(_SAMPLER_FLAGS), default="none"
    )
    evaluate.add_argument(
        "--sampler-mode", choices=["dataset", "fold"], default="dataset"
    )
    evaluate.add_argument("--folds", type=int, default=10)
    evaluate.add_argument("--repeats", type=int, default=10)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--alpha", type=float, default=1e-4, help="l2 penalty coefficient"
    )
    evaluate.add_argument("--max-iter", type=int, default=200)
    evaluate.add_argument(
        "--disconnected",
        default=argparse.SUPPRESS,
        help="max_finite (default), constant:<v>, or error; --manifest only",
    )
    evaluate.add_argument("--threshold", type=float, default=0.5)
    evaluate.add_argument("--out", required=True)
    evaluate.add_argument(
        "--dump-folds", metavar="PATH", help="also write per-fold metrics CSV"
    )
    evaluate.add_argument("--overwrite", action="store_true")

    compare = sub.add_parser(
        "compare", help="Mann-Whitney comparison of two report files"
    )
    compare.add_argument("report_a")
    compare.add_argument("report_b")
    compare.add_argument("--significance", type=float, default=0.01)

    return parser


def _cmd_synth(args) -> int:
    cfg = dataio.SyntheticCohortConfig(
        n_nodes=args.nodes,
        n_hc=args.hc,
        n_mci=args.mci,
        effect_size=args.effect_size,
        affected_edge_fraction=args.affected_fraction,
        noise_scale=args.noise_scale,
        edge_density=args.edge_density,
        seed=args.seed,
    )
    ids, labels, matrices = dataio.generate_synthetic_matrices(cfg)
    manifest = dataio.materialize_cohort(ids, labels, matrices, args.out_dir)
    print(f"wrote {len(ids)} subjects; manifest: {manifest}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    cohort = dataio.load_cohort(args.manifest, disconnected=args.disconnected)
    paths = dataio.write_feature_csvs(cohort, args.out_dir)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    # Refuse before any work, not after every fold is trained.
    for path in (args.out, args.dump_folds):
        if path:
            dataio.refuse_to_overwrite(path, args.overwrite)
    train_cfg = TrainConfig(l2_alpha=args.alpha, max_iterations=args.max_iter)
    sampler = SamplerConfig(
        method=_SAMPLER_FLAGS[args.sampler], mode=args.sampler_mode
    )
    check_experiment_settings(
        args.folds, args.repeats, args.seed, args.threshold
    )
    if args.manifest:
        cohort = dataio.load_cohort(
            args.manifest, getattr(args, "disconnected", "max_finite")
        )
    else:
        cohort = dataio.load_feature_csvs(args.features_dir)
    report = run_experiment(
        cohort,
        sampler,
        train_cfg,
        k=args.folds,
        repetitions=args.repeats,
        seed=args.seed,
        threshold=args.threshold,
    )
    out = dataio.export_report(report, args.out, overwrite=args.overwrite)
    print(f"wrote {out}")
    if args.dump_folds:
        folds = dataio.dump_fold_values_csv(
            report, args.dump_folds, overwrite=args.overwrite
        )
        print(f"wrote {folds}")
    for strategy in STRATEGIES:
        summary = report.strategies[strategy]
        cells = "  ".join(
            f"{metric}={summary[metric]['mean']:.3f}"
            f"+-{summary[metric]['se']:.3f}"
            for metric in METRIC_NAMES
        )
        print(f"{strategy:>15}  {cells}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    if not 0.0 < args.significance < 1.0:
        raise ValidationError(
            f"significance must be in (0, 1), got {args.significance!r}"
        )
    report_a = dataio.load_report(args.report_a)
    report_b = dataio.load_report(args.report_b)
    print(
        f"{'strategy':>15} {'metric':>12} {'mean_a':>8} {'mean_b':>8}"
        f" {'U':>10} {'p':>12} sig"
    )
    for strategy in STRATEGIES:
        for metric in METRIC_NAMES:
            values_a = report_a.fold_values[strategy][metric]
            values_b = report_b.fold_values[strategy][metric]
            u, p = mann_whitney_u(values_a, values_b)
            flag = "*" if p < args.significance else ""
            print(
                f"{strategy:>15} {metric:>12}"
                f" {float(np.mean(values_a)):8.3f}"
                f" {float(np.mean(values_b)):8.3f}"
                f" {u:10.1f} {p:12.5g} {flag:>3}"
            )
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "extract": _cmd_extract,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "features_dir", None) and "disconnected" in vars(args):
        parser.error("--disconnected is for --manifest, not --features-dir")
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, FileNotFoundError, FileExistsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
