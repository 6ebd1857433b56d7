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

Ingest and feature writing
--------------------------
Both run their work units through the ordered pool of
:mod:`connectoml._pool`: forked workers, one per core available to the
process, whose results come back in unit order.

:func:`load_cohort` writes every subject's features into one preallocated
``(subject, measure, feature)`` float64 buffer on an anonymous shared
mapping. Its ``(subject, 3*feature)`` reshape, a view, is the cohort's one
matrix (:mod:`connectoml.cohort`), so the ingest makes no second copy. The
first subject is parsed here, which sizes the buffer, and extracted into
row 0. Each other subject is a unit: parsed, validated and extracted end to
end by one function, which writes subject ``i``'s one contiguous row of all
three measures and returns nothing. Of several bad subjects the first in
manifest order is reported. :func:`cohort_from_matrices` fills the same
buffer from matrices in hand.

:func:`write_feature_csvs` quotes the row prefixes, writes the headers and
writes every file here. Its units are (measure, chunk of a few subjects)
pairs; a worker formats one chunk's rows and returns their UTF-8 bytes,
which are written in (measure, subject) order, so the files do not depend
on the number of workers. Each file is written under a temporary name in
the output directory; the three replace their targets only once the last
is complete.

:func:`load_feature_csvs` refuses a value that does not parse or is not
finite, naming the file and the physical line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._pool import ordered_map
from .cohort import LABEL_CODES, LABEL_NAMES, LabeledCohort
from .connectome import (
    MEASURES,
    ConnectivityMatrix,
    _normalize_disconnected_policy,
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
        for row in reader:
            line_number = reader.line_num
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
            if not raw_path:
                raise ValidationError(
                    f"{manifest_path}: line {line_number}: empty path"
                )
            matrix_path = Path(raw_path)
            if not matrix_path.is_absolute():
                matrix_path = base / matrix_path
            entries.append((subject_id, LABEL_CODES[label], matrix_path))
    if not entries:
        raise ValidationError(f"{manifest_path}: manifest lists no subjects")
    return entries


def _feature_buffer(n_subjects: int, n_nodes: int) -> np.ndarray:
    """Zeroed (subject, measure, feature) float64 array on an anonymous
    shared mapping, so forked workers write into the parent's pages."""
    shape = (n_subjects, len(MEASURES), feature_length(n_nodes))
    count = math.prod(shape)
    # mmap refuses length 0 (a 1-node cohort has no features).
    mapping = mmap.mmap(-1, max(count, 1) * 8)
    return np.frombuffer(mapping, dtype=np.float64, count=count).reshape(
        shape
    )


def _fill_subject(features, index, matrix, n_nodes, disconnected) -> None:
    """Extract one subject's three measures into ``features[index]``."""
    if matrix.n_nodes != n_nodes:
        raise ValidationError(
            f"connectivity matrix for subject {matrix.subject_id!r} has"
            f" {matrix.n_nodes} nodes; the cohort's first subject has"
            f" {n_nodes}"
        )
    extracted = extract_features(matrix, disconnected)
    for k, measure in enumerate(MEASURES):
        features[index, k] = extracted[measure].values


def _cohort_on(features, subject_ids, labels) -> LabeledCohort:
    """The cohort over the buffer's ``(subject, 3*feature)`` view."""
    n_subjects, n_measures, width = features.shape
    return LabeledCohort(
        subject_ids, labels, features.reshape(n_subjects, n_measures * width)
    )


def cohort_from_matrices(
    subject_ids,
    labels,
    matrices,
    disconnected="max_finite",
) -> LabeledCohort:
    """Assemble a cohort by extracting all three feature sets.

    Every matrix must have the first one's node count.
    """
    matrices = list(matrices)
    n_nodes = matrices[0].n_nodes
    features = _feature_buffer(len(matrices), n_nodes)
    for index, matrix in enumerate(matrices):
        _fill_subject(features, index, matrix, n_nodes, disconnected)
    return _cohort_on(features, subject_ids, labels)


def _read_subject(subject_id, matrix_path) -> ConnectivityMatrix:
    if not matrix_path.exists():
        raise FileNotFoundError(
            f"matrix file not found for subject {subject_id!r}:"
            f" {matrix_path}"
        )
    raw = load_matrix_file(matrix_path)
    return validate_matrix(raw, subject_id=subject_id)


def _ingest_subject(state, index: int) -> None:
    """Parse, validate and extract manifest entry ``index`` into the buffer.

    ``state`` is ``(entries, disconnected, n_nodes, features)``.
    """
    entries, disconnected, n_nodes, features = state
    subject_id, _, matrix_path = entries[index]
    matrix = _read_subject(subject_id, matrix_path)
    _fill_subject(features, index, matrix, n_nodes, disconnected)


def load_cohort(manifest_path, disconnected="max_finite") -> LabeledCohort:
    """Load, validate, and featurize every subject listed in a manifest.

    Subject order follows the manifest. Missing matrix files raise
    ``FileNotFoundError`` naming the subject; parse and validation errors
    carry the offending path or subject id; of several bad subjects, the
    first in manifest order is reported. The first subject is read and
    extracted here, which sizes the buffer; the others are ingested on
    every core available to the process (module docstring, Ingest and
    feature writing).
    """
    entries = read_manifest(manifest_path)
    _normalize_disconnected_policy(disconnected)
    subject_id, _, matrix_path = entries[0]
    first = _read_subject(subject_id, matrix_path)
    features = _feature_buffer(len(entries), first.n_nodes)
    _fill_subject(features, 0, first, first.n_nodes, disconnected)
    state = (entries, disconnected, first.n_nodes, features)
    for _ in ordered_map(_ingest_subject, state, range(1, len(entries))):
        pass
    subject_ids = [entry[0] for entry in entries]
    labels = [entry[1] for entry in entries]
    return _cohort_on(features, subject_ids, labels)


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
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        for name in ("effect_size", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")


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


def _csv_records(rows) -> list[str]:
    """Each row as :func:`csv.writer` quotes it, ``\\r\\n`` included."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    records = []
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        records.append(buffer.getvalue())
    return records


#: Subjects per unit of feature-file formatting.
_ROWS_PER_CHUNK = 4


def _format_rows(state, unit) -> bytes:
    """The UTF-8 feature-file rows of one ``(measure index, first subject)``
    unit, ``_ROWS_PER_CHUNK`` subjects or the cohort's last ones.

    ``state`` is ``(matrices, prefixes)``. Each row's numbers are formatted
    by one ``%``-template call; ``%.17g`` of a Python float is the same text
    as ``format(value, ".17g")``.
    """
    matrices, prefixes = state
    measure_index, start = unit
    chunk = slice(start, start + _ROWS_PER_CHUNK)
    rows = matrices[measure_index][chunk]
    numbers = ",%.17g" * rows.shape[1] + "\r\n"
    text = "".join(
        prefix + numbers % tuple(row.tolist())
        for prefix, row in zip(prefixes[chunk], rows)
    )
    return text.encode("utf-8")


def write_feature_csvs(cohort: LabeledCohort, out_dir) -> list[Path]:
    """One CSV per measure: subject_id, label, then the feature columns.

    The rows are formatted on every core available to the process and
    written here in subject order (module docstring, Ingest and feature
    writing). Each file is written under a temporary name in ``out_dir``
    and all three replace their targets only after the last row is
    written, so a failure part-way leaves an earlier store as it was.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrices = [cohort.features[measure] for measure in MEASURES]
    prefixes = [
        record[: -len("\r\n")]
        for record in _csv_records(
            [subject_id, LABEL_NAMES[int(label)]]
            for subject_id, label in zip(cohort.subject_ids, cohort.labels)
        )
    ]
    starts = range(0, cohort.size, _ROWS_PER_CHUNK)
    units = [
        (measure_index, start)
        for measure_index in range(len(MEASURES))
        for start in starts
    ]
    paths = [out_dir / f"features_{measure}.csv" for measure in MEASURES]
    temporaries = [
        path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths
    ]
    try:
        with contextlib.closing(
            ordered_map(_format_rows, (matrices, prefixes), units)
        ) as chunks:
            for temporary, matrix in zip(temporaries, matrices):
                header = ["subject_id", "label"] + [
                    f"f{i}" for i in range(matrix.shape[1])
                ]
                with temporary.open("wb") as handle:
                    handle.write(_csv_records([header])[0].encode("utf-8"))
                    for _ in starts:
                        handle.write(next(chunks))
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    finally:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)
    return paths


def load_feature_csvs(directory) -> LabeledCohort:
    """Rebuild a cohort from the files written by :func:`write_feature_csvs`.

    Each file's rows are written into its column block of the cohort's one
    matrix, which the first file sizes.
    """
    directory = Path(directory)
    subject_ids = None
    labels = None
    matrix = None
    widths = {}
    for index, measure in enumerate(MEASURES):
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
            for row in reader:
                # The physical line the record ends on: a quoted id may
                # span several lines.
                line_number = reader.line_num
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
                    values = np.array(row[2:], dtype=np.float64)
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}: line {line_number}: {exc}"
                    ) from exc
                if not np.isfinite(values).all():
                    column = 2 + int(np.argmin(np.isfinite(values)))
                    raise ValidationError(
                        f"{path}: line {line_number}: feature"
                        f" {header[column]} is not finite: {row[column]!r}"
                    )
                rows.append(values)
        width = len(header) - 2
        if subject_ids is None:
            if not ids:
                raise ValidationError(f"{path}: feature file lists no subjects")
            subject_ids = ids
            labels = measure_labels
            matrix = np.empty((len(ids), len(MEASURES) * width))
        elif ids != subject_ids or measure_labels != labels:
            raise ValidationError(
                f"{path}: subjects disagree with the other feature files"
            )
        widths[measure] = width
        if width != widths[MEASURES[0]]:
            raise ValidationError(
                f"{path}: feature matrices must have the same number of"
                f" columns for every measure (got {widths})"
            )
        block = matrix[:, index * width : (index + 1) * width]
        for row_index, values in enumerate(rows):
            block[row_index] = values
    return LabeledCohort(subject_ids, labels, matrix)


def refuse_to_overwrite(path, overwrite: bool = False) -> Path:
    """``path`` as a ``Path``; raises ``FileExistsError`` if it exists and
    ``overwrite`` is false."""
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"refusing to overwrite existing file: {path}")
    return path


def export_report(report: EvaluationReport, path, overwrite: bool = False):
    """Write the report as JSON; refuses to clobber without ``overwrite``."""
    path = refuse_to_overwrite(path, overwrite)
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
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: report is not a JSON object")
    for key in ("config", "strategies", "tests", "fold_values"):
        if key not in payload:
            raise ValidationError(f"{path}: report is missing key {key!r}")
    fold_values = payload["fold_values"]
    for strategy, metric in itertools.product(STRATEGIES, METRIC_NAMES):
        try:
            values = fold_values[strategy][metric]
        except (KeyError, TypeError):
            values = None
        finite = isinstance(values, list) and all(
            type(v) in (int, float) and math.isfinite(v) for v in values
        )
        if not (finite and values):
            raise ValidationError(
                f"{path}: fold_values[{strategy!r}][{metric!r}] must be"
                " a non-empty list of finite numbers"
            )
    return EvaluationReport.from_dict(payload)


def dump_fold_values_csv(
    report: EvaluationReport, path, overwrite: bool = False
) -> Path:
    """Plot-ready long-format CSV of every per-fold metric value; refuses
    to clobber without ``overwrite``."""
    path = refuse_to_overwrite(path, overwrite)
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
