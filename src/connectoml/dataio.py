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

The matrix, manifest and feature readers skip one leading UTF-8 byte-order
mark, as spreadsheet "CSV UTF-8" exports write; a mark anywhere else in a
numeric row is refused like any other non-ASCII character.

Ingest and the feature store
----------------------------
The cohort fill, the matrix writer and both feature-store functions run
their work units through the ordered pool of :mod:`connectoml._pool`:
this process runs the first unit while forked workers, one per core
available to the process, run the others, every unit on one OpenBLAS
thread, and the results come back in unit order.

A unit of the fill or of either writer is a run of consecutive subjects,
sized by cells: ⌈4 × 7,140 / w⌉ subjects, at least one, where w is a
subject's cells per measure (n(n-1)/2 at n nodes, 0 at one node). That is
four subjects at 120 nodes and 37 at 40 nodes, so a unit's work outweighs
its round trip through the pool.

:func:`materialize_cohort` writes each unit's matrix files in the worker
that runs it; the matrices reach the workers through ``fork``. Each file
is formatted by one ``%``-template and written once. The manifest is
written here after the last matrix file.

One fill serves :func:`load_cohort` and :func:`cohort_from_matrices`. It
reads the first subject here, which sizes one ``(subject, measure,
feature)`` float64 buffer on an anonymous shared mapping; then each unit
reads (from a manifest: parses and validates) and extracts its subjects
into their rows, the first unit here and the others in workers. The
buffer's ``(subject, 3*feature)`` reshape, a view, is the cohort's one
matrix. Of several bad subjects the first in order is reported. Every
extraction runs in a unit, so the features do not depend on the thread
count; reading the first subject here calls no BLAS.

:func:`write_feature_csvs` quotes the row prefixes, writes the headers and
writes every file here. Its units are (measure, run of subjects) pairs; a
unit formats one run's rows and returns their UTF-8 bytes, which are
written in (measure, subject) order, so the files do not depend on the
number of workers. Each file is written under a temporary name in
the output directory; the three replace their targets only once the last
is complete.

:func:`load_feature_csvs` fills the same kind of shared buffer: the
weights file, read here, sizes it, and the other two files are one unit
each, parsed into their measure's slot; only their subject ids, labels and
widths come back, and they are checked here in file order. It refuses a
value that does not parse or is not finite, naming the file and the
physical line; it converts cells as :func:`load_matrix_file` does, by one
row parser, which accepts plain ASCII numerals only (no ``1_0``, no
non-ASCII digits or spaces). A record that :mod:`csv` itself refuses (a
field over its size limit) is refused the same way, in manifests too.
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
import string
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
from .evaluation import METRIC_NAMES, REPORT_SCHEMA, STRATEGIES
from .evaluation import EvaluationReport


def _parse_cells(text, cells, path, line_number) -> np.ndarray:
    """``cells``, the numeric fields of one row, as float64; a cell that
    does not parse names its line.

    numpy converts a cell as Python's ``float`` does, which also reads
    ``1_0`` as 10 and accepts non-ASCII digits and spaces. So a row whose
    ``text`` (the fields as one string) holds an underscore or a non-ASCII
    character is refused too, by one check per row.
    """
    try:
        if "_" in text or not text.isascii():
            cell = next(c for c in cells if "_" in c or not c.isascii())
            raise ValueError(f"could not convert string to float: {cell!r}")
        return np.array(cells, dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"{path}: line {line_number}: {exc}") from exc


def load_matrix_file(path) -> np.ndarray:
    """Parse a comma-separated numeric grid; errors carry the physical line
    number, and the first bad line in the file is reported."""
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            # ASCII whitespace only, so a no-break space reaches the check.
            line = line.strip(string.whitespace)
            if not line:
                continue
            cells = line.split(",")
            if rows and len(cells) != len(rows[0]):
                raise ValidationError(
                    f"{path}: line {line_number}: expected {len(rows[0])}"
                    f" columns, got {len(cells)}"
                )
            rows.append(_parse_cells(line, cells, path, line_number))
    if not rows:
        raise ValidationError(f"{path}: file contains no data rows")
    return np.array(rows, dtype=np.float64)


def write_matrix_file(path, weights: np.ndarray) -> None:
    """Write ``weights`` as the grid :func:`load_matrix_file` reads: every
    cell ``%.17g`` (which round-trips a float64), cells separated by ``,``
    and rows ended by ``\\n``, the bytes of numpy's ``savetxt`` with that
    format and delimiter. One ``%``-template formats the whole matrix, and
    the file is written once."""
    weights = np.asarray(weights, dtype=np.float64)
    n_rows, n_columns = weights.shape
    row = ",".join(["%.17g"] * n_columns) + "\n"
    text = (row * n_rows) % tuple(weights.ravel().tolist())
    Path(path).write_bytes(text.encode("ascii"))


@contextlib.contextmanager
def _csv_errors(path, reader):
    """``reader`` inside the block; a ``csv.Error`` it raises (a field over
    csv's size limit, a NUL byte on Python 3.10) is refused as a
    ``ValidationError`` naming ``path`` and the physical line."""
    try:
        yield reader
    except csv.Error as exc:
        # A DictReader's own line_num stops at the last record it returned.
        line_number = getattr(reader, "reader", reader).line_num
        raise ValidationError(f"{path}: line {line_number}: {exc}") from exc


def read_manifest(manifest_path):
    """Rows of (subject_id, label_code, absolute matrix path)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    entries = []
    seen = set()
    with manifest_path.open(
        "r", encoding="utf-8-sig", newline=""
    ) as handle, _csv_errors(manifest_path, csv.DictReader(handle)) as reader:
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


def _feature_buffer(n_subjects: int, width: int) -> np.ndarray:
    """Zeroed (subject, measure, feature) float64 array, ``width`` features
    per measure, on an anonymous shared mapping, so forked workers write
    into the parent's pages."""
    shape = (n_subjects, len(MEASURES), width)
    count = math.prod(shape)
    # mmap refuses length 0 (a 1-node cohort has no features).
    mapping = mmap.mmap(-1, max(count, 1) * 8)
    return np.frombuffer(mapping, dtype=np.float64, count=count).reshape(
        shape
    )


#: Cells per unit of the ordered pool, in the cohort fill, the feature
#: writer and the matrix writer: four subjects at 120 nodes. A 40-node
#: subject takes about 1 ms to extract, less than a unit's round trip
#: through the pool (2 cores), so units of four such subjects cost as much
#: in round trips as in work.
_CELLS_PER_UNIT = 4 * feature_length(120)


def _subject_units(count: int, width: int) -> list[range]:
    """Subjects ``0, ..., count - 1`` in consecutive units of
    ⌈:data:`_CELLS_PER_UNIT` / ``width``⌉ subjects, the last unit perhaps
    shorter; ``width`` is one subject's cells per measure (0 at one node,
    where a unit holds :data:`_CELLS_PER_UNIT` subjects)."""
    rows = -(-_CELLS_PER_UNIT // max(width, 1))
    subjects = range(count)
    return [subjects[start : start + rows] for start in range(0, count, rows)]


def _extract_subjects(state, indices) -> None:
    """Extract subjects ``indices`` into their rows of ``features``; ``state``
    is ``(read, disconnected, first, features)``, subject 0 ``first``, which
    was read to size ``features``."""
    read, disconnected, first, features = state
    for index in indices:
        matrix = first if index == 0 else read(index)
        if matrix.n_nodes != first.n_nodes:
            raise ValidationError(
                f"connectivity matrix for subject {matrix.subject_id!r} has"
                f" {matrix.n_nodes} nodes; the cohort's first subject has"
                f" {first.n_nodes}"
            )
        extracted = extract_features(matrix, disconnected)
        for k, measure in enumerate(MEASURES):
            features[index, k] = extracted[measure].values


def _extract_cohort(subject_ids, labels, read, count, disconnected):
    """The cohort of ``count`` subjects, subject ``i`` the validated matrix
    ``read(i)``, filled as the module docstring says."""
    _normalize_disconnected_policy(disconnected)
    if count == 0:
        raise ValidationError("cohort lists no subjects")
    first = read(0)
    features = _feature_buffer(count, feature_length(first.n_nodes))
    state = (read, disconnected, first, features)
    units = _subject_units(count, features.shape[2])
    for _ in ordered_map(_extract_subjects, state, units):
        pass
    matrix = features.reshape(count, len(MEASURES) * features.shape[2])
    return LabeledCohort(subject_ids, labels, matrix)


def cohort_from_matrices(
    subject_ids, labels, matrices, disconnected="max_finite"
) -> LabeledCohort:
    """Assemble a cohort by extracting all three feature sets, on every
    core available to the process (module docstring, Ingest and the
    feature store). Every matrix must have the first one's node count.
    """
    matrices = list(matrices)
    return _extract_cohort(
        subject_ids, labels, matrices.__getitem__, len(matrices), disconnected
    )


def _read_subject(entry) -> ConnectivityMatrix:
    """The validated matrix of one ``read_manifest`` entry."""
    subject_id, _, matrix_path = entry
    if not matrix_path.exists():
        raise FileNotFoundError(
            f"matrix file not found for subject {subject_id!r}:"
            f" {matrix_path}"
        )
    raw = load_matrix_file(matrix_path)
    return validate_matrix(raw, subject_id=subject_id)


def load_cohort(manifest_path, disconnected="max_finite") -> LabeledCohort:
    """Load, validate, and featurize every subject listed in a manifest.

    Subject order follows the manifest. Missing matrix files raise
    ``FileNotFoundError`` naming the subject; parse and validation errors
    carry the offending path or subject id; of several bad subjects, the
    first in manifest order is reported. Subjects are parsed and extracted
    on every core available to the process (module docstring, Ingest and
    the feature store).
    """
    entries = read_manifest(manifest_path)
    subject_ids, labels, _ = zip(*entries)
    return _extract_cohort(
        subject_ids, labels, lambda index: _read_subject(entries[index]),
        len(entries), disconnected,
    )


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


def _write_matrices(state, indices) -> None:
    """Write the matrix files of subjects ``indices``; ``state`` is
    ``(out_dir, subjects)``, each subject ``(subject_id, label, matrix)``."""
    out_dir, subjects = state
    for index in indices:
        subject_id, _, matrix = subjects[index]
        write_matrix_file(out_dir / f"{subject_id}.csv", matrix.weights)


def materialize_cohort(subject_ids, labels, matrices, out_dir) -> Path:
    """Write one matrix file per subject, ``<subject_id>.csv``, then the
    manifest; returns the manifest path.

    The matrix files are written on every core available to the process
    (module docstring, Ingest and the feature store). An earlier manifest
    in ``out_dir`` is removed first and the new one is written after the
    last matrix file, so a failure part-way leaves no manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.csv"
    manifest_path.unlink(missing_ok=True)
    subjects = list(zip(subject_ids, labels, matrices))
    width = feature_length(subjects[0][2].n_nodes) if subjects else 0
    units = _subject_units(len(subjects), width)
    for _ in ordered_map(_write_matrices, (out_dir, subjects), units):
        pass
    with manifest_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject_id", "label", "path"])
        writer.writerows(
            [subject_id, LABEL_NAMES[int(label)], f"{subject_id}.csv"]
            for subject_id, label, _ in subjects
        )
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


def _format_rows(state, unit) -> bytes:
    """The UTF-8 feature-file rows of one ``(measure index, subjects)``
    unit, ``subjects`` a range from :func:`_subject_units`.

    ``state`` is ``(matrices, prefixes)``. Each row's numbers are formatted
    by one ``%``-template call; ``%.17g`` of a Python float is the same text
    as ``format(value, ".17g")``.
    """
    matrices, prefixes = state
    measure_index, subjects = unit
    chunk = slice(subjects.start, subjects.stop)
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
    written here in subject order (module docstring, Ingest and the
    feature store). Each file is written under a temporary name in ``out_dir``
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
    runs = _subject_units(cohort.size, matrices[0].shape[1])
    units = [
        (measure_index, subjects)
        for measure_index in range(len(MEASURES))
        for subjects in runs
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
                    for _ in runs:
                        handle.write(next(chunks))
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    finally:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)
    return paths


def _read_feature_file(path):
    """``(subject_ids, labels, width, rows)`` of one feature file; each row
    is a finite float64 array."""
    if not path.exists():
        raise FileNotFoundError(f"feature file not found: {path}")
    ids, labels, rows = [], [], []
    seen = set()
    with path.open(
        "r", encoding="utf-8-sig", newline=""
    ) as handle, _csv_errors(path, csv.reader(handle)) as reader:
        header = next(reader, None)
        if not header or header[:2] != ["subject_id", "label"]:
            raise ValidationError(
                f"{path}: expected header subject_id,label,f0,..."
            )
        for row in reader:
            # The physical line the record ends on: a quoted id may span
            # several lines.
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
            if row[0] in seen:
                raise ValidationError(
                    f"{path}: line {line_number}: duplicate"
                    f" subject id {row[0]!r}"
                )
            seen.add(row[0])
            ids.append(row[0])
            labels.append(LABEL_CODES[row[1]])
            cells = row[2:]
            values = _parse_cells(",".join(cells), cells, path, line_number)
            if not np.isfinite(values).all():
                column = 2 + int(np.argmin(np.isfinite(values)))
                raise ValidationError(
                    f"{path}: line {line_number}: feature"
                    f" {header[column]} is not finite: {row[column]!r}"
                )
            rows.append(values)
    return ids, labels, len(header) - 2, rows


def _load_feature_file(state, measure_index):
    """``(subject_ids, labels, width)`` of one measure's feature file, whose
    rows go into that measure's slot of ``features`` when their count and
    width fit it; ``state`` is ``(paths, features)``."""
    paths, features = state
    ids, labels, width, rows = _read_feature_file(paths[measure_index])
    if len(rows) == features.shape[0] and width == features.shape[2]:
        for target, values in zip(features[:, measure_index], rows):
            target[:] = values
    return ids, labels, width


def load_feature_csvs(directory) -> LabeledCohort:
    """Rebuild a cohort from the files written by :func:`write_feature_csvs`.

    The weights file, the smallest, is read here and sizes one shared
    ``(subject, measure, feature)`` buffer, as the cohort fill does; the
    other two files are read on every core available to the process, each
    into its measure's slot (module docstring, Ingest and the feature
    store). Their subjects and widths are checked here in file order, so of
    several bad files the first in
    :data:`~connectoml.connectome.MEASURES` order is reported.
    """
    directory = Path(directory)
    paths = [directory / f"features_{measure}.csv" for measure in MEASURES]
    subject_ids, labels, width, rows = _read_feature_file(paths[0])
    if not subject_ids:
        raise ValidationError(f"{paths[0]}: feature file lists no subjects")
    features = _feature_buffer(len(subject_ids), width)
    for target, values in zip(features[:, 0], rows):
        target[:] = values
    del rows  # before the other files' rows are read, not after
    widths = {MEASURES[0]: width}
    others = range(1, len(MEASURES))
    with contextlib.closing(
        ordered_map(_load_feature_file, (paths, features), others)
    ) as results:
        for index, (ids, measure_labels, measure_width) in zip(
            others, results
        ):
            if ids != subject_ids or measure_labels != labels:
                raise ValidationError(
                    f"{paths[index]}: subjects disagree with the other"
                    " feature files"
                )
            widths[MEASURES[index]] = measure_width
            if measure_width != width:
                raise ValidationError(
                    f"{paths[index]}: feature matrices must have the same"
                    f" number of columns for every measure (got {widths})"
                )
    matrix = features.reshape(len(subject_ids), len(MEASURES) * width)
    return LabeledCohort(subject_ids, labels, matrix)


def refuse_to_overwrite(path, overwrite: bool = False) -> Path:
    """``path`` as a ``Path``; raises ``FileNotFoundError`` if its directory
    does not exist, ``IsADirectoryError`` if it is a directory, and
    ``FileExistsError`` if it exists and ``overwrite`` is false."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory not found: {path.parent}")
    if path.is_dir():
        raise IsADirectoryError(f"output path is a directory: {path}")
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
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValidationError(
            f"{path}: report schema {schema!r} is not {REPORT_SCHEMA!r}"
        )
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
