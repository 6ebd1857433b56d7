"""Cohort ingestion, synthetic cohort generation, and report serialization.

File formats
------------
* Connectivity matrix: plain-text comma-separated n x n numeric grid, one
  row per line, UTF-8, no header.
* Cohort manifest: CSV with header ``subject_id,label,path``; labels are
  ``HC`` or ``MCI``; relative paths resolve against the manifest's directory.
* Feature store: one CSV per measure (``features_<measure>.csv``) with
  header ``subject_id,label,f0,f1,...``. The bytes are a contract, pinned
  by a golden test: ``subject_id`` and ``label`` are quoted as
  :func:`csv.writer` quotes them (minimal quoting, so an id containing a
  comma, a double quote or a line break is quoted), every feature value is
  written as ``%.17g`` (17 significant digits, which round-trips a float64
  exactly), and every row, the header included, ends in ``\r\n``.
* Report: a single JSON document; floats use Python's shortest round-trip
  representation, so exporting and re-parsing reproduces every number
  exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import LABEL_CODES, LABEL_NAMES, LabeledCohort
from .connectome import (
    DEFAULT_SYMMETRY_TOLERANCE,
    MEASURES,
    extract_features,
    feature_length,
    unflatten_upper_triangle,
    validate_matrix,
)
from .errors import ValidationError
from .evaluation import METRIC_NAMES, STRATEGIES, EvaluationReport


def load_matrix_file(path) -> np.ndarray:
    """Parse a comma-separated numeric grid; errors carry the line number."""
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(np.array(line.split(","), dtype=np.float64))
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: line {line_number}: {exc}"
                ) from exc
    if not rows:
        raise ValidationError(f"{path}: file contains no data rows")
    width = len(rows[0])
    for line_number, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValidationError(
                f"{path}: line {line_number}: expected {width} columns,"
                f" got {len(row)}"
            )
    return np.array(rows, dtype=np.float64)


def write_matrix_file(path, weights: np.ndarray) -> None:
    np.savetxt(path, np.asarray(weights), fmt="%.17g", delimiter=",")


def read_manifest(manifest_path):
    """Rows of (subject_id, label_code, absolute matrix path)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    entries = []
    seen = set()
    with manifest_path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"subject_id", "label", "path"}
        if reader.fieldnames is None or not required.issubset(
            reader.fieldnames
        ):
            raise ValidationError(
                f"{manifest_path}: manifest must have columns"
                " subject_id,label,path"
            )
        for line_number, row in enumerate(reader, start=2):
            subject_id = (row["subject_id"] or "").strip()
            label = (row["label"] or "").strip()
            raw_path = (row["path"] or "").strip()
            if not subject_id:
                raise ValidationError(
                    f"{manifest_path}: line {line_number}: empty subject_id"
                )
            if subject_id in seen:
                raise ValidationError(
                    f"{manifest_path}: line {line_number}: duplicate"
                    f" subject id {subject_id!r}"
                )
            seen.add(subject_id)
            if label not in LABEL_CODES:
                raise ValidationError(
                    f"{manifest_path}: line {line_number}: unknown label"
                    f" {label!r} (expected HC or MCI)"
                )
            matrix_path = Path(raw_path)
            if not matrix_path.is_absolute():
                matrix_path = base / matrix_path
            entries.append((subject_id, LABEL_CODES[label], matrix_path))
    if not entries:
        raise ValidationError(f"{manifest_path}: manifest lists no subjects")
    return entries


def cohort_from_matrices(
    subject_ids,
    labels,
    matrices,
    disconnected="max_finite",
) -> LabeledCohort:
    """Assemble a cohort by extracting all three feature sets."""
    feature_rows: dict = {measure: [] for measure in MEASURES}
    for matrix in matrices:
        features = extract_features(matrix, disconnected)
        for measure in MEASURES:
            feature_rows[measure].append(features[measure].values)
    return LabeledCohort(
        subject_ids=tuple(subject_ids),
        labels=np.asarray(labels),
        features={m: np.vstack(feature_rows[m]) for m in MEASURES},
    )


def load_cohort(
    manifest_path,
    symmetry_tolerance: float = DEFAULT_SYMMETRY_TOLERANCE,
    disconnected="max_finite",
) -> LabeledCohort:
    """Load, validate, and featurize every subject listed in a manifest.

    Subject order follows the manifest. Missing matrix files raise
    ``FileNotFoundError`` naming the subject; parse and validation errors
    carry the offending path or subject id.
    """
    entries = read_manifest(manifest_path)
    subject_ids = []
    labels = []
    matrices = []
    for subject_id, label, matrix_path in entries:
        if not matrix_path.exists():
            raise FileNotFoundError(
                f"matrix file not found for subject {subject_id!r}:"
                f" {matrix_path}"
            )
        raw = load_matrix_file(matrix_path)
        matrices.append(
            validate_matrix(raw, symmetry_tolerance, subject_id=subject_id)
        )
        subject_ids.append(subject_id)
        labels.append(label)
    return cohort_from_matrices(subject_ids, labels, matrices, disconnected)


@dataclass(frozen=True)
class SyntheticCohortConfig:
    """Parameters for the synthetic stand-in cohort.

    A shared base connectome (log-normal weights on a random sparse support)
    is perturbed per subject by multiplicative log-normal noise; MCI subjects
    additionally have a fixed random subset of edges damped by
    ``exp(-effect_size)``. ``effect_size = 0`` makes the two groups
    statistically identical.
    """

    n_nodes: int = 120
    n_hc: int = 49
    n_mci: int = 108
    effect_size: float = 1.0
    affected_edge_fraction: float = 0.2
    noise_scale: float = 0.25
    edge_density: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValidationError("n_nodes must be at least 2")
        if self.n_hc < 1 or self.n_mci < 1:
            raise ValidationError("subject counts must be positive")
        if self.effect_size < 0:
            raise ValidationError("effect_size must be nonnegative")
        if not 0.0 <= self.affected_edge_fraction <= 1.0:
            raise ValidationError(
                "affected_edge_fraction must be within [0, 1]"
            )
        if self.noise_scale <= 0:
            raise ValidationError("noise_scale must be positive")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValidationError("edge_density must be within (0, 1]")


def generate_synthetic_matrices(cfg: SyntheticCohortConfig):
    """(subject_ids, labels, validated matrices), deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    n_edges = feature_length(cfg.n_nodes)
    support = rng.random(n_edges) < cfg.edge_density
    base_log_weights = rng.normal(math.log(30.0), 1.0, size=n_edges)
    affected = support & (rng.random(n_edges) < cfg.affected_edge_fraction)

    subject_ids = []
    labels = []
    matrices = []
    groups = (("HC", 0, cfg.n_hc), ("MCI", 1, cfg.n_mci))
    for name, label, count in groups:
        for index in range(count):
            subject_id = f"{name}{index + 1:04d}"
            noise = rng.normal(0.0, cfg.noise_scale, size=n_edges)
            edge_weights = np.where(
                support, np.exp(base_log_weights + noise), 0.0
            )
            if label == 1:
                edge_weights[affected] *= math.exp(-cfg.effect_size)
            weights = unflatten_upper_triangle(edge_weights, cfg.n_nodes)
            matrices.append(validate_matrix(weights, subject_id=subject_id))
            subject_ids.append(subject_id)
            labels.append(label)
    return subject_ids, labels, matrices


def generate_synthetic_cohort(
    cfg: SyntheticCohortConfig, disconnected="max_finite"
) -> LabeledCohort:
    subject_ids, labels, matrices = generate_synthetic_matrices(cfg)
    return cohort_from_matrices(subject_ids, labels, matrices, disconnected)


def materialize_cohort(subject_ids, labels, matrices, out_dir) -> Path:
    """Write matrix files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.csv"
    with manifest_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject_id", "label", "path"])
        for subject_id, label, matrix in zip(subject_ids, labels, matrices):
            filename = f"{subject_id}.csv"
            write_matrix_file(out_dir / filename, matrix.weights)
            writer.writerow([subject_id, LABEL_NAMES[int(label)], filename])
    return manifest_path


def _row_prefixes(cohort: LabeledCohort) -> list[str]:
    """Each subject's ``subject_id,label`` as :func:`csv.writer` quotes it,
    without the line terminator."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    prefixes = []
    for subject_id, label in zip(cohort.subject_ids, cohort.labels):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([subject_id, LABEL_NAMES[int(label)]])
        prefixes.append(buffer.getvalue()[: -len("\r\n")])
    return prefixes


def write_feature_csvs(cohort: LabeledCohort, out_dir) -> list[Path]:
    """One CSV per measure: subject_id, label, then the feature columns.

    Each row's numbers are formatted by one ``%``-template call; ``%.17g``
    of a Python float is the same text as ``format(value, ".17g")``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefixes = _row_prefixes(cohort)
    paths = []
    for measure in MEASURES:
        matrix = cohort.features[measure]
        path = out_dir / f"features_{measure}.csv"
        numbers = ",%.17g" * matrix.shape[1] + "\r\n"
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow(
                ["subject_id", "label"]
                + [f"f{i}" for i in range(matrix.shape[1])]
            )
            for prefix, row in zip(prefixes, matrix):
                handle.write(prefix + numbers % tuple(row.tolist()))
        paths.append(path)
    return paths


def load_feature_csvs(directory) -> LabeledCohort:
    """Rebuild a cohort from the files written by :func:`write_feature_csvs`."""
    directory = Path(directory)
    subject_ids = None
    labels = None
    features = {}
    for measure in MEASURES:
        path = directory / f"features_{measure}.csv"
        if not path.exists():
            raise FileNotFoundError(f"feature file not found: {path}")
        ids = []
        measure_labels = []
        rows = []
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[:2] != ["subject_id", "label"]:
                raise ValidationError(
                    f"{path}: expected header subject_id,label,f0,..."
                )
            for line_number, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}: line {line_number}: expected"
                        f" {len(header)} columns, got {len(row)}"
                    )
                if row[1] not in LABEL_CODES:
                    raise ValidationError(
                        f"{path}: line {line_number}: unknown label {row[1]!r}"
                    )
                ids.append(row[0])
                measure_labels.append(LABEL_CODES[row[1]])
                try:
                    rows.append(np.array(row[2:], dtype=np.float64))
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}: line {line_number}: {exc}"
                    ) from exc
        if subject_ids is None:
            subject_ids = ids
            labels = measure_labels
        elif ids != subject_ids or measure_labels != labels:
            raise ValidationError(
                f"{path}: subjects disagree with the other feature files"
            )
        features[measure] = np.array(rows, dtype=np.float64)
    return LabeledCohort(
        subject_ids=tuple(subject_ids),
        labels=np.asarray(labels),
        features=features,
    )


def export_report(report: EvaluationReport, path, overwrite: bool = False):
    """Write the report as JSON; refuses to clobber without ``overwrite``."""
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"refusing to overwrite existing file: {path}")
    payload = json.dumps(report.to_dict(), indent=2)
    path.write_text(payload + "\n", encoding="utf-8")
    return path


def load_report(path) -> EvaluationReport:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"report not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("config", "strategies", "tests", "fold_values"):
        if key not in payload:
            raise ValidationError(f"{path}: report is missing key {key!r}")
    return EvaluationReport.from_dict(payload)


def dump_fold_values_csv(report: EvaluationReport, path) -> Path:
    """Plot-ready long-format CSV of every per-fold metric value."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strategy", "metric", "fold_index", "value"])
        for strategy in STRATEGIES:
            for metric in METRIC_NAMES:
                values = report.fold_values[strategy][metric]
                for fold_index, value in enumerate(values):
                    writer.writerow(
                        [strategy, metric, fold_index, format(value, ".17g")]
                    )
    return path
