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
is formatted as the next section says and written once. The manifest is
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

:func:`load_feature_csvs` fills the same kind of shared buffer, sized
here from the weights file without converting a value: a row per line
break (a quoted id may span lines), the header's fields less two per
measure. Every file is one unit, parsed row by row into its measure's
slot; its ids, labels and width come back and are checked here in file
order, and the cohort keeps the first row per subject. A cell must be a
finite plain ASCII numeral, parsed as :func:`load_matrix_file` parses it;
an error names the file and the physical line. So does a record that
:mod:`csv` refuses (a field over its size limit), in manifests too.

Writers
-------
:func:`write_matrix_file` and the feature-file units format their cells
with :func:`_cell_rows`, whole rows of at most 4,096 cells at a time (a
longer row in pieces), into exactly CPython's ``"%.17g" % x`` bytes. A
zero is ``0`` or ``-0``, by a mask. A nonzero cell with 1e-4 <= |x| < 1e16
has a decimal exponent X from -4 to 15, where ``%.17g`` writes fixed
notation, and its 17 digits come from exact arithmetic: with p = 16 - X,
10**p is exact in float64, and Dekker's TwoProduct (Numer. Math. 18,
1971; a Veltkamp split, then the partial products, each its own ufunc
call, so none fuses into an FMA) gives |x| * 10**p = h + l exactly, h a
float in [2**53, 2**57), so an even integer, and |l| <= 8. So D = h +
rint(l) is the product rounded to an integer, half to even as CPython's
dtoa rounds (Gay, 1990), and X from ``floor(log10|x|)`` is corrected
once where D falls outside [10**16, 10**17). The text is D's first X + 1
digits, a point and the rest for X >= 0, or ``0.``, -X - 1 zeros and the
digits for X < 0, less trailing zeros (and the point if none remain),
after a ``-`` if the sign bit is set; numpy gathers it from a table of
four-digit words by one byte template per exponent. Every other cell
(|x| < 1e-4, |x| >= 1e16, inf, nan) is CPython's own ``%.17g``, sign
included, so ``-nan`` is ``nan``.
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
    with _read_errors(path), path.open("r", encoding="utf-8-sig") as handle:
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


#: ``10.0 ** p`` for p = 0, ..., 22, each exact in float64.
_POWERS_OF_TEN = 10.0 ** np.arange(23)


def _veltkamp_split(x):
    """``(high, low)``, ``high + low == x`` exactly, each of at most 26
    significant bits (Veltkamp's split by 2**27 + 1)."""
    scaled = x * 134217729.0
    high = scaled - (scaled - x)
    return high, x - high


_POWER_HIGH, _POWER_LOW = _veltkamp_split(_POWERS_OF_TEN)


def _seventeen_digits(magnitudes, exponents) -> np.ndarray:
    """``round(magnitude * 10**(16 - exponent))``, half to even, exactly,
    as int64: the 17 significant digits of a magnitude whose decimal
    exponent is ``exponent`` (module docstring, Writers)."""
    power = 16 - exponents
    high, low = _veltkamp_split(magnitudes)
    power_high = _POWER_HIGH.take(power)
    power_low = _POWER_LOW.take(power)
    product = magnitudes * _POWERS_OF_TEN.take(power)
    # Dekker's TwoProduct, one ufunc call per operation, so nothing fuses
    # them into an FMA: magnitude * 10**p == product + error exactly.
    error = (
        (high * power_high - product) + high * power_low + low * power_high
    ) + low * power_low
    return product.astype(np.int64) + np.rint(error).astype(np.int64)


#: Stands in the text for a cell CPython formats.
_MARK = b"\x01"

#: Word g < 10**4 holds the four ASCII digits of g, zero-padded; the last
#: word holds ``,``, ``-``, ``.`` and the mark. A cell's six words are its
#: first digit's word, four more digit words and the last: its bytes 3-19
#: are the 17 digits, byte 0 a ``0`` and bytes 20-23 those four.
_WORDS = np.frombuffer(
    "".join(map("{:04d}".format, range(10**4))).encode("ascii")
    + b",-."
    + _MARK,
    dtype=np.uint32,
)

#: Trailing zeros of each digit word (four for ``0000``).
_TRAILING_ZEROS = np.array(
    [len(w) - len(w.rstrip("0")) for w in map("{:04d}".format, range(10**4))],
    dtype=np.uint8,
)

#: Template codes: 0-19 decimal exponents -4 to 15, then zero and CPython.
_ZERO_CODE, _CPYTHON_CODE = 20, 21


def _template(code, negative) -> list:
    """The byte, in the cell's 24 word bytes, of each of its 24 output
    bytes: ``,``, a ``-`` if ``negative``, then the text of ``code``."""
    digits = list(range(3, 20))
    if code == _ZERO_CODE:
        text = [0]
    elif code == _CPYTHON_CODE:
        text = [23]
    elif code >= 4:  # 1.2345: the first exponent + 1 digits, a point
        text = digits[: code - 3] + [22] + digits[code - 3 :]
    else:  # 0.0012345: 0, a point, -exponent - 1 zeros, the digits
        text = [0, 22] + [0] * (3 - code) + digits
    cell = [20] + [21] * negative + text
    return cell + [0] * (24 - len(cell))


#: Row ``2 * code + negative`` is :func:`_template` of that cell.
_TEMPLATES = np.array(
    [_template(code, negative) for code in range(22) for negative in (0, 1)],
    dtype=np.intp,
)
#: Row k marks the first k of a cell's 24 output bytes.
_PREFIXES = np.arange(24) < np.arange(25)[:, None]

#: Cells formatted at once: about 1.2 MB of scratch, a gather index of
#: 192 bytes per cell the most of it.
_BLOCK_CELLS = 4096


def _format_block(block) -> list[bytes]:
    """Each row of the 2-D float64 ``block`` as ``,`` and a cell's
    ``%.17g`` text, for each of its cells (module docstring, Writers)."""
    values = block.ravel()
    nonzero = np.flatnonzero(values)
    count = nonzero.size
    magnitudes = np.abs(values[nonzero])
    other = ~((magnitudes >= 1e-4) & (magnitudes < 1e16))  # nan too
    magnitudes[other] = 1.0  # digits that are not used
    exponents = np.floor(np.log10(magnitudes)).astype(np.intp)
    digits = _seventeen_digits(magnitudes, exponents)
    off = (digits < 10**16) | (digits >= 10**17)
    if off.any():  # log10 next to a power of ten, or rounded up to 10**17
        exponents[off] += np.where(digits[off] < 10**16, -1, 1)
        digits[off] = _seventeen_digits(magnitudes[off], exponents[off])

    # Digit words: the first digit, then four of four digits; row
    # ``count`` serves the zero cells.
    words = np.empty((count + 1, 6), dtype=np.int32)
    words[count, :5] = 0
    words[:, 5] = 10**4
    groups = words[:count]
    high = digits // 10**8
    low = digits - high * 10**8
    groups[:, 0] = high // 10**8
    high -= groups[:, 0] * 10**8
    for column, part in ((1, high), (3, low)):
        groups[:, column] = part // 10**4
        groups[:, column + 1] = part - groups[:, column] * 10**4
    zeros = _TRAILING_ZEROS.take(groups[:, 4])
    for column in (3, 2, 1):
        more = zeros == 4 * (4 - column)  # the words right of it are 0000
        zeros[more] += _TRAILING_ZEROS.take(groups[:, column][more])
    significant = 17 - zeros.astype(np.intp)
    text_bytes = np.where(
        exponents < 0,
        1 - exponents + significant,
        np.where(significant > exponents + 1, significant + 1, exponents + 1),
    )

    negative = np.signbit(values)
    negative[nonzero[other]] = False  # CPython writes their sign
    template = np.full(values.size, 2 * _ZERO_CODE, dtype=np.intp)
    template[nonzero] = 2 * np.where(other, _CPYTHON_CODE, exponents + 4)
    template += negative
    lengths = np.full(values.size, 2, dtype=np.uint8)
    lengths[nonzero] = 1 + np.where(other, 1, text_bytes)
    lengths += negative
    start = np.full(values.size, 24 * count, dtype=np.intp)
    start[nonzero] = np.arange(0, 24 * count, 24)
    index = _TEMPLATES.take(template, axis=0)
    index += start[:, None]
    cells = _WORDS.take(words).view(np.uint8).ravel().take(index)
    text = cells[_PREFIXES.take(lengths, axis=0)].tobytes()

    row_bytes = lengths.reshape(block.shape).sum(axis=1, dtype=np.intp)
    rows = [
        text[end - size : end]
        for end, size in zip(np.cumsum(row_bytes).tolist(), row_bytes.tolist())
    ]
    if other.any():
        texts = iter([b"%.17g" % x for x in values[nonzero[other]].tolist()])
        for position, row in enumerate(rows):
            if _MARK in row:
                first, *rest = row.split(_MARK)
                rows[position] = first + b"".join(
                    next(texts) + part for part in rest
                )
    return rows


def _cell_rows(values):
    """Yield each row of the 2-D float64 ``values`` as ``,`` and a cell's
    ``%.17g`` text, for each of its cells: whole rows of at most
    :data:`_BLOCK_CELLS` cells at once, and a longer row in pieces."""
    n_rows, n_columns = values.shape
    step = max(1, _BLOCK_CELLS // max(n_columns, 1))
    for start in range(0, n_rows, step):
        rows = values[start : start + step]
        pieces = [
            _format_block(rows[:, column : column + _BLOCK_CELLS])
            for column in range(0, max(n_columns, 1), _BLOCK_CELLS)
        ]
        yield from map(b"".join, zip(*pieces))


def write_matrix_file(path, weights: np.ndarray) -> None:
    """Write ``weights`` as the grid :func:`load_matrix_file` reads: every
    cell ``%.17g`` (which round-trips a float64), cells separated by ``,``
    and rows ended by ``\\n``, the bytes of numpy's ``savetxt`` with that
    format and delimiter. The cells are formatted by :func:`_cell_rows`
    (module docstring, Writers), and the file is written once."""
    weights = np.asarray(weights, dtype=np.float64)
    text = b"".join(row[1:] + b"\n" for row in _cell_rows(weights))
    Path(path).write_bytes(text)


@contextlib.contextmanager
def _read_errors(path, reader=None):
    """``reader`` inside the block. Text that is not UTF-8, and a
    ``csv.Error`` the reader raises (a field over csv's size limit, a NUL
    byte on Python 3.10), are refused as a ``ValidationError`` naming
    ``path`` and the physical line."""
    try:
        yield reader
    except UnicodeDecodeError as exc:
        # Latin-1 keeps every byte, split into lines as the readers split
        # them; the first line that is not UTF-8 is named.
        with open(path, encoding="latin-1", newline="") as handle:
            for line_number, line in enumerate(handle, start=1):
                try:
                    line.encode("latin-1").decode("utf-8")
                except UnicodeDecodeError as error:
                    message = f"{path}: line {line_number}: {error}"
                    raise ValidationError(message) from exc
        raise ValidationError(f"{path}: {exc}") from exc
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
    ) as handle, _read_errors(manifest_path, csv.DictReader(handle)) as reader:
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

    ``state`` is ``(matrices, prefixes)``, the prefixes UTF-8. A row is its
    prefix, then ``,`` and the ``%.17g`` text of each cell, formatted by
    :func:`_cell_rows`, then ``\r\n``.
    """
    matrices, prefixes = state
    measure_index, subjects = unit
    chunk = slice(subjects.start, subjects.stop)
    return b"".join(
        prefix + cells + b"\r\n"
        for prefix, cells in zip(
            prefixes[chunk], _cell_rows(matrices[measure_index][chunk])
        )
    )


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
        record[: -len("\r\n")].encode("utf-8")
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


def _feature_file_size(path) -> tuple:
    """Line breaks (in 64 KiB blocks) and header fields less two of the
    feature file at ``path``, or ``(0, 0)`` if unreadable; never raises."""
    try:
        rows = 0
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                # A \r\n split by two blocks counts twice: a looser bound.
                crlf = block.count(b"\r\n")
                rows += block.count(b"\n") + block.count(b"\r") - crlf
        # Latin-1 decodes every byte, and csv splits on ASCII bytes only.
        with path.open("r", encoding="latin-1", newline="") as handle:
            header = next(csv.reader(handle), [])
    except (OSError, csv.Error):
        return 0, 0
    return rows, max(len(header) - 2, 0)


def _load_feature_file(state, measure_index):
    """``(subject_ids, labels, width)`` of one feature file, each row parsed
    into its measure's slot of ``features`` while the widths agree and rows
    remain; ``state`` is ``(paths, features)``."""
    paths, features = state
    path = paths[measure_index]
    if not path.exists():
        raise FileNotFoundError(f"feature file not found: {path}")
    ids, labels, seen = [], [], set()
    with path.open(
        "r", encoding="utf-8-sig", newline=""
    ) as handle, _read_errors(path, csv.reader(handle)) as reader:
        header = next(reader, None)
        if not header or header[:2] != ["subject_id", "label"]:
            raise ValidationError(
                f"{path}: expected header subject_id,label,f0,..."
            )
        width = len(header) - 2
        slot = features[:, measure_index] if width == features.shape[2] else ()
        for row in reader:
            line_number = reader.line_num  # its last: an id may span lines
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
            cells = row[2:]
            values = _parse_cells(",".join(cells), cells, path, line_number)
            if not np.isfinite(values).all():
                column = 2 + int(np.argmin(np.isfinite(values)))
                raise ValidationError(
                    f"{path}: line {line_number}: feature"
                    f" {header[column]} is not finite: {row[column]!r}"
                )
            if len(ids) < len(slot):
                slot[len(ids)] = values
            ids.append(row[0])
            labels.append(LABEL_CODES[row[1]])
    return ids, labels, width


def load_feature_csvs(directory) -> LabeledCohort:
    """Rebuild a cohort from the files written by :func:`write_feature_csvs`,
    every file read on every core available to the process (module
    docstring, Ingest and the feature store). Of several bad files the
    first in :data:`~connectoml.connectome.MEASURES` order is reported.

    A missing weights file is reported before any file is read. A weights
    file that exists but is malformed is reported once the units already
    running in workers, the other two files, have finished.
    """
    paths = [Path(directory) / f"features_{m}.csv" for m in MEASURES]
    if not paths[0].exists():
        raise FileNotFoundError(f"feature file not found: {paths[0]}")
    features = _feature_buffer(*_feature_file_size(paths[0]))
    with contextlib.closing(
        ordered_map(_load_feature_file, (paths, features), range(len(paths)))
    ) as results:
        subject_ids, labels, width = next(results)
        if not subject_ids:
            raise ValidationError(
                f"{paths[0]}: feature file lists no subjects"
            )
        widths = {MEASURES[0]: width}
        for path, measure, (ids, measure_labels, measure_width) in zip(
            paths[1:], MEASURES[1:], results
        ):
            if ids != subject_ids or measure_labels != labels:
                raise ValidationError(
                    f"{path}: subjects disagree with the other feature files"
                )
            widths[measure] = measure_width
            if measure_width != width:
                raise ValidationError(
                    f"{path}: feature matrices must have the same"
                    f" number of columns for every measure (got {widths})"
                )
    count = len(subject_ids)
    matrix = features[:count].reshape(count, len(MEASURES) * width)
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
        with _read_errors(path):
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
