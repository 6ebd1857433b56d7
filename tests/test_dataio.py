"""Tests for manifest loading, the synthetic generator, and report files."""

import contextlib
import fractions
import functools
import io
import json
import multiprocessing
import os
import re
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from conftest import (
    make_measure_cohort,
    needs_openblas,
    time_limit,
    write_feature_csvs_reference,
)

import connectoml._pool as pool
import connectoml.cli as cli
import connectoml.dataio as dataio
from connectoml import (
    SamplerConfig,
    TrainConfig,
    ValidationError,
    run_experiment,
    validate_matrix,
)
from connectoml.cohort import LabeledCohort
from connectoml.connectome import MEASURES, feature_length
from connectoml.evaluation import mann_whitney_u
from connectoml.dataio import (
    SyntheticCohortConfig,
    cohort_from_matrices,
    dump_fold_values_csv,
    export_report,
    generate_synthetic_cohort,
    generate_synthetic_matrices,
    load_cohort,
    load_feature_csvs,
    load_matrix_file,
    load_report,
    materialize_cohort,
    write_feature_csvs,
    write_matrix_file,
)


def write_manifest(path, rows):
    lines = ["subject_id,label,path"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tiny_matrix_file(path, weights):
    write_matrix_file(path, np.asarray(weights, dtype=np.float64))


#: Numerals that Python's ``float`` (and so numpy) reads, which the
#: readers refuse: 10 with a digit separator, 12 in Arabic-Indic digits,
#: and 1 behind a no-break space.
PYTHON_ONLY_NUMERALS = ["1_0", "\u0661\u0662", "\u00a01"]


#: Tokens of the contract fuzz's cells: numeral parts, ASCII whitespace
#: that both converters strip from a cell, and characters the readers
#: refuse (numpy's text reader strips \x1c-\x1f and a no-break space as
#: whitespace, and reads an Arabic-Indic digit).
NUMERAL_TOKENS = [*"0123456789", ".", "e", "E", "+", "-",
                  "inf", "nan", "infinity"]
PAD_TOKENS = [" ", "\t", "\v", "\f"]
ODD_TOKENS = ["\x1c", "\x1d", "\x1e", "\x1f", "_", "\u0661", "\u00a0", "x"]


def fuzz_numeral(rng):
    """A numeral ``float`` reads: a signed decimal with an optional
    exponent, or a signed inf/nan word."""
    sign = rng.choice(["", "+", "-"])
    if rng.random() < 0.15:
        return sign + rng.choice(["inf", "nan", "infinity", "Inf", "NAN"])
    digits = "".join(rng.choice(list("0123456789"), rng.integers(1, 6)))
    point = rng.integers(0, len(digits) + 1)
    if rng.random() < 0.5:
        digits = digits[:point] + "." + digits[point:]
    if rng.random() < 0.3:
        digits += rng.choice(["e", "E"]) + rng.choice(["", "+", "-"])
        digits += str(rng.integers(0, 400))
    return sign + digits


def fuzz_cell(rng, noise):
    """One cell: a numeral or, at rate ``noise``, a run of any tokens or
    nothing, padded either side with whitespace and, at rate ``noise``,
    odd characters."""
    if rng.random() < noise:
        tokens = NUMERAL_TOKENS + PAD_TOKENS + ODD_TOKENS
        body = "".join(rng.choice(tokens, rng.integers(0, 5)))
    else:
        body = fuzz_numeral(rng)
    pads = []
    for _ in range(2):
        pad = "".join(rng.choice(PAD_TOKENS, rng.integers(0, 3)))
        if rng.random() < noise:
            pad += rng.choice(ODD_TOKENS)
        pads.append(pad)
    return pads[0] + body + pads[1]


def fuzz_matrix_file(rng) -> bytes:
    """A small matrix file: 1-4 rows of 1-4 columns (a row ragged at the
    file's noise rate), blank and whitespace-only lines between them, LF,
    CRLF or CR endings or a mix, a leading BOM, and now and then a byte
    that is not UTF-8."""
    noise = rng.choice([0.0, 0.0, 0.02, 0.1, 0.5])
    columns = rng.integers(1, 5)
    ending = rng.choice(["\n", "\r\n", "\r", "mixed"])
    lines = []
    for _ in range(rng.integers(1, 5)):
        while rng.random() < 0.2:
            blanks = PAD_TOKENS + ([rng.choice(ODD_TOKENS)] if noise else [])
            lines.append("".join(rng.choice(blanks, rng.integers(0, 3))))
        width = columns + (rng.choice([-1, 1]) if rng.random() < noise else 0)
        lines.append(",".join(fuzz_cell(rng, noise) for _ in range(width)))
    endings = [
        rng.choice(["\n", "\r\n", "\r"]) if ending == "mixed" else ending
        for _ in lines
    ]
    if rng.random() < 0.3:
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    data = ("\ufeff" if rng.random() < 0.3 else "").encode() + text.encode()
    if rng.random() < 0.03:
        at = rng.integers(0, len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_outcome(read, path):
    """``read(path)`` as comparable data: the array's dtype, shape, layout
    and bytes, or the exception's type and message."""
    try:
        values = read(path)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    layout = values.dtype, values.shape, values.flags.c_contiguous
    return "values", *layout, values.tobytes()


class TestMatrixFiles:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0, 100, (7, 7))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 0)
        path = tmp_path / "m.csv"
        write_matrix_file(path, weights)
        assert np.array_equal(load_matrix_file(path), weights)

    @pytest.mark.parametrize(
        "weights",
        [
            [[0.0, -0.0, 5e-324], [1.7976931348623157e308, 1 / 3, -2.0],
             [30.0, 1e22, 0.1]],
            [[1 / 3]],
            "400_nodes",
        ],
        ids=["edge_values", "one_by_one", "400_nodes"],
    )
    def test_bytes_equal_savetxt(self, tmp_path, weights):
        if weights == "400_nodes":
            cfg = SyntheticCohortConfig(n_nodes=400, n_hc=1, n_mci=1, seed=3)
            weights = generate_synthetic_matrices(cfg)[2][1].weights.copy()
            weights[0, 1] = weights[1, 0] = 12.0  # an integral float
        weights = np.asarray(weights, dtype=np.float64)
        write_matrix_file(tmp_path / "new.csv", weights)
        np.savetxt(tmp_path / "old.csv", weights, fmt="%.17g", delimiter=",")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.count(b"\n") == weights.shape[0]
        assert np.array_equal(load_matrix_file(tmp_path / "new.csv"), weights)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,zero\n", encoding="utf-8")
        message = f"{path}: line 2: could not convert string to float: 'zero'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    @pytest.mark.parametrize(
        "cell",
        ["0x10", "", "1__0", "1.5e", "١x", *PYTHON_ONLY_NUMERALS,
         # numpy's text reader would strip these as whitespace.
         "\x1c1", "1\x1f"],
    )
    def test_rejected_cell_message_is_pinned(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1\n\n{cell},0\n", encoding="utf-8")
        message = (
            f"{path}: line 3: could not convert string to float: {cell!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    def test_accepts_ascii_float_syntax(self, tmp_path):
        path = tmp_path / "lenient.csv"
        path.write_text(
            "\n0, 1000 ,\t2.5\n\n  1e3,0,1e-320\n2.5,1e-320,-0\n\n",
            encoding="utf-8",
        )
        parsed = load_matrix_file(path)
        expected = [[0.0, 1000.0, 2.5], [1000.0, 0.0, 1e-320],
                    [2.5, 1e-320, -0.0]]
        assert parsed.tolist() == expected
        assert np.signbit(parsed[2, 2])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1\n1\n", "line 2: expected 2 columns, got 1"),
            # The physical line, blank lines counted, as for a bad cell.
            ("0,1\n\n1,0,2\n", "line 3: expected 2 columns, got 3"),
            # The first bad line, whatever its fault.
            ("0,1\n1,0,2\n1,x\n", "line 2: expected 2 columns, got 3"),
        ],
    )
    def test_ragged_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "ragged.csv"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    @pytest.mark.parametrize("line", [1, 2])
    def test_only_a_leading_byte_order_mark_is_skipped(self, tmp_path, line):
        # Spreadsheet "CSV UTF-8" exports start the file with U+FEFF.
        rows = ["0,1", "1,0"]
        rows[line - 1] = "\ufeff" + rows[line - 1]
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        if line == 1:
            assert load_matrix_file(path).tolist() == [[0, 1], [1, 0]]
            return
        message = (
            f"{path}: line 2: could not convert string to float:"
            f" {chr(0xFEFF) + '1'!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_matrix_file(path)

    @pytest.mark.parametrize("seed", range(3))
    def test_c_reader_matches_the_line_parser(self, tmp_path, monkeypatch,
                                              seed):
        # Every file the grammar makes reads the same through
        # load_matrix_file and the line parser alone: the same values bit
        # for bit, or the same error.
        converted = []
        loadtxt = np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            values = loadtxt(*args, **kwargs)
            converted.append(values)
            return values

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        rng = np.random.default_rng(seed)
        path = tmp_path / "fuzz.csv"
        accepted = 0
        for _ in range(1000):
            data = fuzz_matrix_file(rng)
            path.write_bytes(data)
            outcome = read_outcome(load_matrix_file, path)
            assert outcome == read_outcome(dataio._load_matrix_lines, path), data
            accepted += outcome[0] == "values"
        # Both outcomes are common, and every accepted file took the C
        # reader.
        assert 300 < accepted < 700
        assert len(converted) == accepted

    @pytest.mark.parametrize("n_nodes", [1, 2, 8, 120, "edge_values"])
    def test_written_files_take_the_c_reader(self, tmp_path, monkeypatch,
                                             n_nodes):
        # The line parser is only for files the C reader refuses; the
        # writers' files, and a Windows-style copy of them, never reach it.
        if n_nodes == "edge_values":
            weights = np.array(
                [[0.0, -0.0, 5e-324], [1.7976931348623157e308, 1 / 3, -2.0],
                 [30.0, 1e22, 0.1]]
            )
        else:
            rng = np.random.default_rng(n_nodes)
            weights = mixed_cells(rng, n_nodes * n_nodes)
            weights = weights.reshape(n_nodes, n_nodes)
        path = tmp_path / "m.csv"
        write_matrix_file(path, weights)
        windows = tmp_path / "windows.csv"
        text = path.read_text(encoding="ascii").replace("\n", "\r\n")
        windows.write_bytes(("\ufeff" + text + "\r\n \r\n").encode())
        expected = dataio._load_matrix_lines(path)
        assert np.array_equal(expected, weights, equal_nan=True)

        def refuse(path):
            raise AssertionError(f"{path} reached the line parser")

        monkeypatch.setattr(dataio, "_load_matrix_lines", refuse)
        for written in (path, windows):
            values = load_matrix_file(written)
            assert values.shape == weights.shape
            assert values.flags.c_contiguous
            assert values.tobytes() == expected.tobytes()


def percent_template_rows(values):
    """Each row of ``values`` as ``,`` and ``%.17g`` of each cell, by one
    ``%``-template per row: the text the writers keep."""
    template = ",%.17g" * values.shape[1]
    return [(template % tuple(row)).encode("ascii") for row in values.tolist()]


def assert_cpython_text(values):
    """``_cell_rows`` of the 2-D ``values`` is CPython's text, cell by
    cell; a failure names the first cell that differs."""
    values = np.asarray(values, dtype=np.float64)
    written = list(dataio._cell_rows(values))
    expected = percent_template_rows(values)
    assert len(written) == len(expected)
    for row, (got, want) in enumerate(zip(written, expected)):
        if got != want:
            cells = zip(got.split(b",")[1:], want.split(b",")[1:])
            column, (cell, cpython) = next(
                (column, pair) for column, pair in enumerate(cells)
                if pair[0] != pair[1]
            )
            raise AssertionError(
                f"cell ({row}, {column}) = {values[row, column]!r}:"
                f" {cell!r} != CPython's {cpython!r}"
            )


def neighbours(values, steps=1):
    """``values`` and the floats ``1..steps`` ulps either side of each."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    for direction in (-np.inf, np.inf):
        step = values
        for _ in range(steps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def mixed_cells(rng, size):
    """Fast-path cells (both signs, seven decades) with zeros, subnormals,
    huge and tiny magnitudes, infinities and nans among them."""
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-4, 3, size)
    special = np.array([0.0, -0.0, 5e-324, -1e-5, 3e20, np.inf, -np.inf,
                        np.nan, -np.nan, 1e16, 9.999999999999999e-5])
    where = rng.random(size) < 0.3
    values[where] = rng.choice(special, int(where.sum()))
    return values


#: Cells the formatter formats at once: whole rows, or a longer row's
#: pieces.
BLOCK = dataio._BLOCK_CELLS


class TestCellText:
    """The writers' one formatter gives CPython's ``%.17g`` text for every
    float64: its exact 17-digit arithmetic where it applies, CPython's own
    formatting elsewhere."""

    def test_random_bit_patterns(self):
        # Uniform 64-bit patterns: every exponent field, the subnormals'
        # included, is drawn about a hundred times.
        bits = np.random.default_rng(20).integers(
            0, 2**64, size=200_000, dtype=np.uint64, endpoint=False
        )
        assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
        assert_cpython_text(bits.view(np.float64).reshape(200, 1000))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = neighbours(np.concatenate([powers, -powers]))
        assert_cpython_text(values.reshape(-1, 6))

    def test_edges_of_the_exact_range(self):
        # 1e-4 <= |x| < 1e16 is formatted by the arithmetic, the rest by
        # CPython; 1e-5 and 1e17 sit one decade beyond.
        values = neighbours([1e-5, 1e-4, 1e16, 1e17], steps=8)
        assert_cpython_text(np.concatenate([values, -values])[None, :])

    def test_exact_ties_round_half_to_even(self):
        # x = j / 2**(p + 1), j odd, with decimal exponent 16 - p: then
        # x * 10**p = j * 5**p / 2 lies halfway between two integers.
        rng = np.random.default_rng(21)
        ties = []
        for p in range(1, 21):
            low = -(-(2 ** (p + 1) * 10**16) // 10**p)
            high = min(2 ** (p + 1) * 10**17 // 10**p, 2**53)
            ties += [int(j) | 1 for j in rng.integers(low, high, 50)]
            ties[-1] = int(low) | 1
            for j in ties[-50:]:
                x = fractions.Fraction(j, 2 ** (p + 1))
                assert (x * 10**p).denominator == 2
        values = np.array(
            [j / 2 ** (p + 1) for p in range(1, 21)
             for j in ties[50 * (p - 1) : 50 * p]]
        )
        assert np.isin(np.floor(np.log10(values)), np.arange(-4, 16)).all()
        assert_cpython_text(values.reshape(20, 50))
        assert b",1000000000000000.2" in next(
            dataio._cell_rows(np.array([[1000000000000000.25]]))
        )

    def test_zeros_infinities_and_nans(self):
        negative_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(negative_nan)
        values = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, negative_nan]])
        assert_cpython_text(values)
        assert next(dataio._cell_rows(values)) == b",0,-0,inf,-inf,nan,nan"

    @pytest.mark.parametrize(
        "shape",
        [(3, 0), (5, 1), (2, BLOCK - 1), (3, BLOCK), (2, BLOCK + 1),
         (1, 2 * BLOCK + 5), (91, 91), (400, 21), (65, BLOCK // 64)],
    )
    def test_rows_mixing_fast_and_cpython_cells(self, shape):
        # Rows across the blocks' edges: whole rows of at most BLOCK cells
        # at once, and a longer row in pieces of that many.
        rng = np.random.default_rng(sum(shape))
        values = mixed_cells(rng, shape[0] * shape[1]).reshape(shape)
        if shape[1] > BLOCK:
            edges = [0, BLOCK - 1, BLOCK, -1]
            values[:, edges] = [np.nan, -3e-300, 1e300, -0.0]
        assert_cpython_text(values)

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (4, 1), (2, 0), (91, 91), (1, 2 * BLOCK + 5), (3, BLOCK)],
    )
    def test_matrix_files_equal_savetxt(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        weights = mixed_cells(rng, shape[0] * shape[1]).reshape(shape)
        write_matrix_file(tmp_path / "new.csv", weights)
        np.savetxt(tmp_path / "old.csv", weights, fmt="%.17g", delimiter=",")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written == b"".join(
            row[1:] + b"\n" for row in percent_template_rows(weights)
        )

    @pytest.mark.parametrize("width", [0, 1, BLOCK - 1, BLOCK + 1])
    def test_feature_rows_equal_the_percent_template(self, tmp_path, width):
        rng = np.random.default_rng(width)
        cohort = make_measure_cohort(
            {m: mixed_cells(rng, 7 * width).reshape(7, width)
             for m in MEASURES},
            [0, 1, 1, 0, 1, 1, 0],
        )
        paths = write_feature_csvs(cohort, tmp_path)
        for path, measure in zip(paths, MEASURES):
            records = path.read_bytes().split(b"\r\n")
            assert records[-1] == b""
            assert records[1:-1] == [
                f"s{i:03d},{label},".encode() + row[1:] if width else
                f"s{i:03d},{label}".encode()
                for i, (label, row) in enumerate(zip(
                    ["HC", "MCI", "MCI", "HC", "MCI", "MCI", "HC"],
                    percent_template_rows(cohort.features[measure]),
                ))
            ]


class TestLoadCohort:
    def test_manifest_order_and_labels(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        tiny_matrix_file(tmp_path / "b.csv", [[0, 2], [2, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(
            manifest, [("s1", "HC", "a.csv"), ("s2", "MCI", "b.csv")]
        )
        cohort = load_cohort(manifest)
        assert cohort.subject_ids == ("s1", "s2")
        assert cohort.labels.tolist() == [0, 1]
        assert cohort.size == 2
        assert cohort.features["weights"][0].tolist() == [1.0]
        assert cohort.features["weights"][1].tolist() == [2.0]

    @pytest.mark.parametrize("field", ["subject_id", "label"])
    def test_only_a_leading_byte_order_mark_is_skipped(self, tmp_path, field):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "HC", "a.csv")])
        text = manifest.read_text(encoding="utf-8")
        if field == "subject_id":
            manifest.write_text("\ufeff" + text, encoding="utf-8")
            assert load_cohort(manifest).subject_ids == ("s1",)
            return
        manifest.write_text(
            text.replace(",HC,", ",\ufeffHC,"), encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="line 2: unknown label"):
            load_cohort(manifest)

    def test_missing_matrix_file_names_subject_and_path(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "HC", "gone.csv")])
        with pytest.raises(FileNotFoundError, match="s1"):
            load_cohort(manifest)
        with pytest.raises(FileNotFoundError, match="gone.csv"):
            load_cohort(manifest)

    def test_unknown_label_rejected(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "AD", "a.csv")])
        with pytest.raises(ValidationError, match="unknown label 'AD'"):
            load_cohort(manifest)

    @pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "blank"])
    def test_empty_path_rejected(self, tmp_path, cell):
        # Joined to the manifest's directory, an empty cell would name the
        # directory itself; the row is refused with its line instead.
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s1", "HC", "a.csv"), ("s2", "MCI", cell)])
        message = f"{manifest}: line 3: empty path"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_cohort(manifest)

    def test_duplicate_subject_id_rejected(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(
            manifest, [("s1", "HC", "a.csv"), ("s1", "MCI", "a.csv")]
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_cohort(manifest)

    def test_error_names_the_physical_line_after_a_multiline_id(
        self, tmp_path
    ):
        tiny_matrix_file(tmp_path / "a.csv", [[0, 1], [1, 0]])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            'subject_id,label,path\na,HC,a.csv\n"two\nlines",MCI,a.csv\n'
            "c,AD,a.csv\n",
            encoding="utf-8",
        )
        message = (
            f"{manifest}: line 5: unknown label 'AD' (expected HC or MCI)"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_cohort(manifest)

    def test_validation_error_names_subject(self, tmp_path):
        tiny_matrix_file(tmp_path / "a.csv", [[0, -1], [-1, 0]])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("s9", "HC", "a.csv")])
        with pytest.raises(ValidationError, match="s9"):
            load_cohort(manifest)


def ingest(monkeypatch, workers, manifest, disconnected="max_finite"):
    """load_cohort with the core count forced to ``workers``; returns the
    cohort, or the exception it raised."""
    monkeypatch.setattr(pool, "available_cores", lambda: workers)
    try:
        with time_limit(60):
            return load_cohort(manifest, disconnected=disconnected)
    except Exception as exc:  # compared across worker counts by the tests
        return exc


def constant_cohort(directory, n_subjects=9, n_nodes=4):
    """Subject i's off-diagonal weights all equal i + 1; returns the
    manifest."""
    rows = []
    for index in range(n_subjects):
        weights = np.full((n_nodes, n_nodes), float(index + 1))
        np.fill_diagonal(weights, 0.0)
        tiny_matrix_file(directory / f"m{index}.csv", weights)
        label = "HC" if index % 2 else "MCI"
        rows.append((f"s{index}", label, f"m{index}.csv"))
    manifest = directory / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest


def few_cells_per_unit(monkeypatch):
    """Pool units of 20 cells from now on (four subjects at 4 nodes), so
    that the small cohorts here form several units and reach the forked
    workers; returns the unit count of each ``ordered_map`` call that
    dataio makes, for the test to check."""
    monkeypatch.setattr(dataio, "_CELLS_PER_UNIT", 20)
    formed = []
    original = dataio.ordered_map

    def counting(work, state, units):
        formed.append(len(units))
        return original(work, state, units)

    monkeypatch.setattr(dataio, "ordered_map", counting)
    return formed


def same_failure(monkeypatch, manifest, disconnected="max_finite"):
    """The error both ingest paths raise; they must agree on type and text.
    Every cohort that reaches the pool forms several units."""
    formed = few_cells_per_unit(monkeypatch)
    serial = ingest(monkeypatch, 1, manifest, disconnected)
    pooled = ingest(monkeypatch, 2, manifest, disconnected)
    assert all(count > 1 for count in formed), formed
    assert isinstance(serial, Exception), serial
    assert type(pooled) is type(serial)
    assert str(pooled) == str(serial)
    return serial


class TestParallelIngest:
    """The serial loop and the forked workers fill the same buffer alike."""

    def test_pooled_cohort_equals_serial_cohort(self, tmp_path, monkeypatch):
        formed = few_cells_per_unit(monkeypatch)
        cfg = SyntheticCohortConfig(n_nodes=12, n_hc=5, n_mci=8, seed=4)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        manifest = materialize_cohort(ids, labels, matrices, tmp_path)
        serial = ingest(monkeypatch, 1, manifest)
        pooled = ingest(monkeypatch, 2, manifest)
        assert formed and min(formed) > 1
        assert pooled.subject_ids == serial.subject_ids == tuple(ids)
        assert pooled.labels.tolist() == serial.labels.tolist() == labels
        for measure in MEASURES:
            assert np.array_equal(
                pooled.features[measure], serial.features[measure]
            )

    def test_extract_bytes_do_not_depend_on_workers(
        self, tmp_path, monkeypatch
    ):
        formed = few_cells_per_unit(monkeypatch)
        cfg = SyntheticCohortConfig(n_nodes=9, n_hc=4, n_mci=6, seed=8)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        manifest = materialize_cohort(ids, labels, matrices, tmp_path / "c")
        written = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "available_cores", lambda: workers)
            out = tmp_path / f"features{workers}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(
                    ["extract", "--manifest", str(manifest),
                     "--out-dir", str(out)]
                )
            assert code == 0
            written[workers] = [
                (out / f"features_{m}.csv").read_bytes() for m in MEASURES
            ]
        assert formed and min(formed) > 1
        assert written[1] == written[2]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_each_row_lands_at_its_manifest_index(
        self, tmp_path, monkeypatch, workers
    ):
        # Five workers on fewer cores interleave their writes to the
        # shared buffer; a row written to the wrong place or lost shows.
        formed = few_cells_per_unit(monkeypatch)
        manifest = constant_cohort(tmp_path, n_subjects=40)
        cohort = ingest(monkeypatch, workers, manifest)
        assert formed == [10]
        assert cohort.subject_ids == tuple(f"s{i}" for i in range(40))
        for index in range(40):
            weight = float(index + 1)
            assert cohort.features["weights"][index].tolist() == [weight] * 6
            assert cohort.features["shortest_path"][index].tolist() == [
                1.0 / weight
            ] * 6

    def test_missing_matrix_file(self, tmp_path, monkeypatch):
        manifest = constant_cohort(tmp_path)
        (tmp_path / "m4.csv").unlink()
        error = same_failure(monkeypatch, manifest)
        assert isinstance(error, FileNotFoundError)
        assert str(error) == (
            f"matrix file not found for subject 's4': {tmp_path / 'm4.csv'}"
        )

    def test_bad_cell_names_its_line(self, tmp_path, monkeypatch):
        manifest = constant_cohort(tmp_path)
        (tmp_path / "m6.csv").write_text("0,1\n1,one\n", encoding="utf-8")
        error = same_failure(monkeypatch, manifest)
        assert isinstance(error, ValidationError)
        assert str(error) == (
            f"{tmp_path / 'm6.csv'}: line 2: could not convert string to"
            " float: 'one'"
        )

    def test_disconnected_error_policy(self, tmp_path, monkeypatch):
        manifest = constant_cohort(tmp_path)
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 1.0
        tiny_matrix_file(tmp_path / "m5.csv", weights)
        error = same_failure(monkeypatch, manifest, disconnected="error")
        assert isinstance(error, ValidationError)
        assert str(error) == "no path between nodes 0 and 2 for subject 's5'"

    def test_earlier_bad_subject_is_reported(self, tmp_path, monkeypatch):
        # Subject 3 fails in extraction, subject 7 already in parsing; the
        # parse error used to win because every file was parsed first.
        manifest = constant_cohort(tmp_path)
        weights = np.zeros((4, 4))
        weights[2, 3] = weights[3, 2] = 1.0
        tiny_matrix_file(tmp_path / "m3.csv", weights)
        (tmp_path / "m7.csv").write_text("0,x\n", encoding="utf-8")
        error = same_failure(monkeypatch, manifest, disconnected="error")
        assert str(error) == "no path between nodes 0 and 1 for subject 's3'"

    def test_mixed_node_counts_name_the_subject(self, tmp_path, monkeypatch):
        manifest = constant_cohort(tmp_path)
        weights = np.ones((5, 5))
        np.fill_diagonal(weights, 0.0)
        tiny_matrix_file(tmp_path / "m2.csv", weights)
        error = same_failure(monkeypatch, manifest)
        assert isinstance(error, ValidationError)
        assert str(error) == (
            "connectivity matrix for subject 's2' has 5 nodes; the cohort's"
            " first subject has 4"
        )

    def test_mixed_node_counts_in_memory(self):
        small = validate_matrix(np.ones((3, 3)) - np.eye(3), subject_id="a")
        large = validate_matrix(np.ones((4, 4)) - np.eye(4), subject_id="b")
        with pytest.raises(
            ValidationError, match="subject 'b' has 4 nodes;.* has 3$"
        ):
            cohort_from_matrices(["a", "b"], [0, 1], [small, large])

    def test_empty_in_memory_cohort_is_refused(self):
        with pytest.raises(
            ValidationError, match="^cohort lists no subjects$"
        ):
            cohort_from_matrices([], [], [])

    def test_unknown_policy_fails_before_any_parse(
        self, tmp_path, monkeypatch
    ):
        manifest = constant_cohort(tmp_path)
        parsed = []
        original = dataio.load_matrix_file

        def recording_parse(path):
            parsed.append(path)
            return original(path)

        monkeypatch.setattr(dataio, "load_matrix_file", recording_parse)
        error = same_failure(monkeypatch, manifest, disconnected="nearest")
        assert isinstance(error, ValidationError)
        assert str(error) == "unknown disconnected-pair policy 'nearest'"
        assert parsed == []

    def test_a_worker_that_dies_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        formed = few_cells_per_unit(monkeypatch)
        manifest = constant_cohort(tmp_path)
        parent = os.getpid()
        original = dataio.extract_features

        def die_in_worker(matrix, disconnected):
            if os.getpid() != parent and matrix.subject_id == "s5":
                os._exit(1)
            return original(matrix, disconnected)

        monkeypatch.setattr(dataio, "extract_features", die_in_worker)
        assert isinstance(ingest(monkeypatch, 2, manifest), BrokenProcessPool)
        assert formed == [3]


class TestUnitsOfCells:
    """Every dataio pool unit holds ⌈4 × 7,140 / width⌉ subjects."""

    @pytest.mark.parametrize(
        "n_nodes, rows",
        [(120, 4), (40, 37), (400, 1), (2, 28560), (1, 28560)],
    )
    def test_units_cover_every_subject_once_in_order(self, n_nodes, rows):
        width = feature_length(n_nodes)
        for count in sorted({1, rows - 1, rows, rows + 1} - {0}):
            units = dataio._subject_units(count, width)
            assert [index for unit in units for index in unit] == list(
                range(count)
            )
            assert all(len(unit) == rows for unit in units[:-1])
            assert 1 <= len(units[-1]) <= rows
            assert len(units) == -(-count // rows)


class TestMaterializeCohort:
    def test_files_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        formed = few_cells_per_unit(monkeypatch)
        cfg = SyntheticCohortConfig(n_nodes=9, n_hc=4, n_mci=6, seed=8)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        written = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "available_cores", lambda: workers)
            out = tmp_path / f"cohort{workers}"
            with time_limit(60):
                materialize_cohort(ids, labels, matrices, out)
            written[workers] = {
                path.name: path.read_bytes() for path in out.iterdir()
            }
        assert formed == [10, 10]
        assert sorted(written[1]) == sorted(
            [f"{subject_id}.csv" for subject_id in ids] + ["manifest.csv"]
        )
        assert written[1] == written[2]

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failure_part_way_leaves_no_manifest(
        self, tmp_path, monkeypatch, workers, earlier
    ):
        cfg = SyntheticCohortConfig(n_nodes=6, n_hc=3, n_mci=4, seed=1)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        out = tmp_path / "cohort"
        if earlier:
            materialize_cohort(ids, labels, matrices, out)
        formed = few_cells_per_unit(monkeypatch)
        original = dataio.write_matrix_file

        def fail_late(path, weights):
            # Subjects 2 and 6 are in the second and the last unit.
            if path.stem in (ids[2], ids[6]):
                raise RuntimeError(f"no room for {path.stem}")
            original(path, weights)

        monkeypatch.setattr(dataio, "write_matrix_file", fail_late)
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        with time_limit(60), pytest.raises(
            RuntimeError, match=f"^no room for {ids[2]}$"
        ):
            materialize_cohort(ids, labels, matrices, out)
        assert formed == [4]
        assert not (out / "manifest.csv").exists()


@needs_openblas
class TestIngestOnOneBlasThread:
    """Both loaders extract every subject on one OpenBLAS thread, the first
    subject and the one-core loop included, and give the caller back its
    thread count."""

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("source", ["load_cohort", "cohort_from_matrices"])
    def test_every_subject_is_extracted_on_one_thread(
        self, tmp_path, monkeypatch, openblas, source, workers, fails
    ):
        def counts():
            return [getter() for _, getter in openblas]

        before = counts()
        formed = few_cells_per_unit(monkeypatch)
        cfg = SyntheticCohortConfig(n_nodes=6, n_hc=3, n_mci=3, seed=2)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        parent = os.getpid()
        seen = []
        original = dataio.extract_features

        def recording(matrix, disconnected):
            # A worker cannot append to this process's list; it fails
            # instead, and the pool raises its error here.
            if os.getpid() == parent:
                seen.append(counts())
            elif counts() != [1] * len(openblas):
                raise AssertionError(f"worker saw {counts()} threads")
            if fails and matrix.subject_id == ids[-1]:
                raise RuntimeError("extraction failed")
            return original(matrix, disconnected)

        monkeypatch.setattr(dataio, "extract_features", recording)
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        if source == "load_cohort":
            manifest = materialize_cohort(ids, labels, matrices, tmp_path)
            build = functools.partial(load_cohort, manifest)
        else:
            build = functools.partial(
                cohort_from_matrices, ids, labels, matrices
            )
        expected = pytest.raises(RuntimeError, match="extraction failed")
        with time_limit(60), expected if fails else contextlib.nullcontext():
            build()
        assert seen and all(c == [1] * len(openblas) for c in seen)
        assert formed and min(formed) > 1
        if workers == 1:
            assert len(seen) == len(ids)
        assert counts() == before


def recorded_buffers(monkeypatch):
    """The buffers ``dataio._feature_buffer`` returns from now on."""
    buffers = []
    original = dataio._feature_buffer

    def recording(*args):
        buffers.append(original(*args))
        return buffers[-1]

    monkeypatch.setattr(dataio, "_feature_buffer", recording)
    return buffers


def assert_one_matrix(cohort):
    """``cohort`` keeps one read-only C-ordered matrix; ``fused()`` returns
    it and every measure is a view of it."""
    fused = cohort.fused()
    assert fused is cohort.fused()
    assert fused.flags.c_contiguous and not fused.flags.writeable
    width = cohort.features[MEASURES[0]].shape[1]
    assert fused.shape == (cohort.size, len(MEASURES) * width)
    for measure in MEASURES:
        assert np.shares_memory(fused, cohort.features[measure])
        assert not cohort.features[measure].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fused[0, 0] = 1.0


class TestOneFeatureMatrix:
    def test_constructed_cohort_keeps_a_view_of_its_matrix(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 12))
        cohort = LabeledCohort(tuple("abcdef"), [0, 1] * 3, matrix)
        assert_one_matrix(cohort)
        assert np.shares_memory(cohort.fused(), matrix)
        assert np.array_equal(cohort.fused(), matrix)
        # The caller's array stays writable; only the cohort's view is not.
        assert matrix.flags.writeable

    def test_subset_is_one_gather_of_the_rows(self):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=5, n_mci=6, seed=3)
        cohort = generate_synthetic_cohort(cfg)
        indices = np.array([7, 0, 3, 10, 4])
        part = cohort.subset(indices)
        assert_one_matrix(part)
        assert not np.shares_memory(part.fused(), cohort.fused())
        assert np.array_equal(
            part.fused(),
            np.hstack([cohort.features[m][indices] for m in MEASURES]),
        )
        assert part.subject_ids == tuple(cohort.subject_ids[i] for i in indices)
        assert np.array_equal(part.labels, cohort.labels[indices])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_load_cohort_hands_over_its_buffer(
        self, tmp_path, monkeypatch, workers
    ):
        buffers = recorded_buffers(monkeypatch)
        formed = few_cells_per_unit(monkeypatch)
        cohort = ingest(monkeypatch, workers, constant_cohort(tmp_path))
        assert formed == [3]
        assert_one_matrix(cohort)
        (buffer,) = buffers
        assert buffer.shape == (9, len(MEASURES), 6)
        assert np.shares_memory(cohort.fused(), buffer)
        assert np.array_equal(cohort.fused(), buffer.reshape(9, -1))

    def test_cohort_from_matrices_hands_over_its_buffer(self, monkeypatch):
        buffers = recorded_buffers(monkeypatch)
        cfg = SyntheticCohortConfig(n_nodes=7, n_hc=3, n_mci=4, seed=5)
        cohort = cohort_from_matrices(*generate_synthetic_matrices(cfg))
        assert_one_matrix(cohort)
        (buffer,) = buffers
        assert np.shares_memory(cohort.fused(), buffer)

    def test_feature_store_cohort(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=4, n_mci=5, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        reloaded = load_feature_csvs(tmp_path)
        assert_one_matrix(reloaded)
        assert np.array_equal(reloaded.fused(), cohort.fused())


class TestSyntheticCohort:
    def test_subject_counts(self):
        cfg = SyntheticCohortConfig(
            n_nodes=20, n_hc=5, n_mci=9, seed=1, effect_size=0.5
        )
        cohort = generate_synthetic_cohort(cfg)
        assert cohort.class_counts() == {"HC": 5, "MCI": 9}
        assert cohort.size == 14
        for measure in MEASURES:
            assert cohort.features[measure].shape == (14, 190)

    def test_default_counts_mirror_unbalanced_cohort(self):
        cfg = SyntheticCohortConfig()
        assert (cfg.n_hc, cfg.n_mci, cfg.n_nodes) == (49, 108, 120)

    def test_matrices_valid_and_deterministic(self):
        cfg = SyntheticCohortConfig(n_nodes=15, n_hc=4, n_mci=6, seed=7)
        ids_a, labels_a, mats_a = generate_synthetic_matrices(cfg)
        ids_b, labels_b, mats_b = generate_synthetic_matrices(cfg)
        assert ids_a == ids_b
        assert labels_a == labels_b
        for a, b in zip(mats_a, mats_b):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.weights, a.weights.T)
            assert np.all(a.weights >= 0)
            assert np.all(np.diag(a.weights) == 0)

    def test_draw_order_keeps_the_subjects_drawn_before(self):
        # Each subject's noise is drawn in turn, every HC subject before
        # the first MCI one: more MCI subjects keep every earlier subject,
        # and more HC subjects keep the HC subjects drawn before.
        def weights(n_hc, n_mci):
            cfg = SyntheticCohortConfig(
                n_nodes=9, n_hc=n_hc, n_mci=n_mci, seed=4
            )
            ids, _, matrices = generate_synthetic_matrices(cfg)
            return {i: m.weights.tobytes() for i, m in zip(ids, matrices)}

        base = weights(3, 4)
        more_mci = weights(3, 7)
        assert all(more_mci[i] == base[i] for i in base)
        more_hc = weights(6, 4)
        hc = [i for i in base if i.startswith("HC")]
        assert len(hc) == 3
        assert all(more_hc[i] == base[i] for i in hc)

    def test_null_effect_gives_null_edgewise_statistics(self):
        cfg = SyntheticCohortConfig(
            n_nodes=60, n_hc=30, n_mci=30, effect_size=0.0, seed=3
        )
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        weights = np.array(
            [m.weights[np.triu_indices(60, 1)] for m in matrices]
        )
        labels = np.asarray(labels)
        support = np.flatnonzero(weights.min(axis=0) > 0)
        significant = 0
        for edge in support:
            _, p = mann_whitney_u(
                weights[labels == 0, edge],
                weights[labels == 1, edge],
                method="normal",
            )
            significant += p < 0.05
        fraction = significant / support.size
        assert 0.02 <= fraction <= 0.09

    def test_effect_size_separates_groups_on_affected_edges(self):
        cfg = SyntheticCohortConfig(
            n_nodes=30, n_hc=15, n_mci=15, effect_size=2.0, seed=5,
            affected_edge_fraction=0.5,
        )
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        labels = np.asarray(labels)
        mean_hc = np.mean([m.weights.sum() for m, l in zip(matrices, labels) if l == 0])
        mean_mci = np.mean([m.weights.sum() for m, l in zip(matrices, labels) if l == 1])
        assert mean_mci < mean_hc

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(n_nodes=1)
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(affected_edge_fraction=1.5)
        with pytest.raises(ValidationError):
            SyntheticCohortConfig(noise_scale=0.0)
        for field in ("effect_size", "noise_scale"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(
                    ValidationError, match=f"^{field} must be finite$"
                ):
                    SyntheticCohortConfig(**{field: value})

    def test_materialized_cohort_reloads_identically(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=12, n_hc=4, n_mci=5, seed=11)
        ids, labels, matrices = generate_synthetic_matrices(cfg)
        in_memory = generate_synthetic_cohort(cfg)
        manifest = materialize_cohort(ids, labels, matrices, tmp_path / "cohort")
        reloaded = load_cohort(manifest)
        assert reloaded.subject_ids == in_memory.subject_ids
        assert np.array_equal(reloaded.labels, in_memory.labels)
        for measure in MEASURES:
            np.testing.assert_allclose(
                reloaded.features[measure],
                in_memory.features[measure],
                rtol=1e-12,
                atol=0,
            )


def small_report():
    cfg = SyntheticCohortConfig(n_nodes=10, n_hc=6, n_mci=8, seed=2)
    cohort = generate_synthetic_cohort(cfg)
    return run_experiment(
        cohort,
        SamplerConfig(method="none"),
        TrainConfig(max_iterations=5),
        k=2,
        repetitions=1,
        seed=4,
    )


class TestReportFiles:
    def test_export_then_reload_is_identical(self, tmp_path):
        report = small_report()
        path = export_report(report, tmp_path / "report.json")
        reloaded = load_report(path)
        assert reloaded.to_dict() == report.to_dict()
        assert json.dumps(reloaded.to_dict()) == json.dumps(report.to_dict())

    @pytest.mark.parametrize(
        "values",
        [[], [0.5, float("nan")], [0.5, float("inf")], [True, 0.5], 0.5, None],
        ids=["empty", "nan", "inf", "bool", "not_a_list", "null"],
    )
    def test_fold_values_must_be_finite_numbers(self, tmp_path, values):
        payload = small_report().to_dict()
        payload["fold_values"]["communicability"]["sensitivity"] = values
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = (
            f"{path}: fold_values['communicability']['sensitivity'] must be"
            " a non-empty list of finite numbers"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_report(path)

    @pytest.mark.parametrize("text", ["3", "[]", '"report"'])
    def test_report_that_is_not_an_object_is_rejected(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: report is not a JSON object"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_report(path)

    def test_schema_has_every_strategy_metric_cell(self, tmp_path):
        report = small_report()
        payload = json.loads(
            export_report(report, tmp_path / "r.json").read_text()
        )
        for strategy in (
            "weights", "shortest_path", "communicability", "fusion",
            "ensemble",
        ):
            for metric in ("accuracy", "auc", "sensitivity", "specificity",
                           "f1"):
                cell = payload["strategies"][strategy][metric]
                assert set(cell) == {"mean", "se", "n_folds"}
        assert "config" in payload and "tests" in payload

    def test_refuses_to_overwrite_without_flag(self, tmp_path):
        report = small_report()
        path = export_report(report, tmp_path / "report.json")
        with pytest.raises(FileExistsError):
            export_report(report, path)
        export_report(report, path, overwrite=True)

    def test_fold_values_csv(self, tmp_path):
        report = small_report()
        path = dump_fold_values_csv(report, tmp_path / "folds.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "strategy,metric,fold_index,value"
        assert len(lines) == 1 + 5 * 5 * 2  # strategies * metrics * folds
        message = f"refusing to overwrite existing file: {path}"
        with pytest.raises(FileExistsError, match=f"^{re.escape(message)}$"):
            dump_fold_values_csv(report, path)
        dump_fold_values_csv(report, path, overwrite=True)


class TestFeatureStore:
    def test_write_then_load_roundtrip(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=10, n_hc=4, n_mci=5, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        reloaded = load_feature_csvs(tmp_path)
        assert reloaded.subject_ids == cohort.subject_ids
        assert np.array_equal(reloaded.labels, cohort.labels)
        for measure in MEASURES:
            assert np.array_equal(
                reloaded.features[measure], cohort.features[measure]
            )

    def test_store_without_subjects_rejected(self, tmp_path):
        for measure in MEASURES:
            (tmp_path / f"features_{measure}.csv").write_bytes(
                b"subject_id,label,f0\r\n"
            )
        with pytest.raises(ValidationError) as excinfo:
            load_feature_csvs(tmp_path)
        path = tmp_path / f"features_{MEASURES[0]}.csv"
        assert str(excinfo.value) == f"{path}: feature file lists no subjects"

    @pytest.mark.parametrize("measure", MEASURES)
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, measure):
        cfg = SyntheticCohortConfig(n_nodes=6, n_hc=2, n_mci=2, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        path = tmp_path / f"features_{measure}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        reloaded = load_feature_csvs(tmp_path)
        assert reloaded.subject_ids == cohort.subject_ids
        assert np.array_equal(reloaded.fused(), cohort.fused())

    def test_missing_measure_file_rejected(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=4, n_mci=4, seed=6)
        cohort = generate_synthetic_cohort(cfg)
        write_feature_csvs(cohort, tmp_path)
        (tmp_path / "features_communicability.csv").unlink()
        with pytest.raises(FileNotFoundError, match="communicability"):
            load_feature_csvs(tmp_path)

    def test_bytes_equal_reference_writer(self, tmp_path):
        values = np.array(
            [
                [0.0, 1e-300, 1e300],
                [0.1, 30.0, -0.0],
                [1 / 3, 2.5e-7, 7.0],
                [5e-324, 1.7976931348623157e308, 123456789.125],
            ]
        )
        cohort = make_measure_cohort(
            {
                "weights": values,
                "shortest_path": values[:, ::-1],
                "communicability": values / 3.0,
            },
            [0, 1, 1, 0],
            ids=("a,b", 'say "hi"', " padded", "two\nlines"),
        )
        new_paths = write_feature_csvs(cohort, tmp_path / "new")
        old_paths = write_feature_csvs_reference(cohort, tmp_path / "old")
        for new, old in zip(new_paths, old_paths):
            assert new.name == old.name
            assert new.read_bytes() == old.read_bytes()
        assert new_paths[0].read_bytes().splitlines(keepends=True)[1:3] == [
            b'"a,b",HC,0,1e-300,1.0000000000000001e+300\r\n',
            b'"say ""hi""",MCI,0.10000000000000001,30,-0\r\n',
        ]
        reloaded = load_feature_csvs(tmp_path / "new")
        assert reloaded.subject_ids == cohort.subject_ids
        assert np.array_equal(reloaded.labels, cohort.labels)
        for measure in MEASURES:
            assert np.array_equal(
                reloaded.features[measure], cohort.features[measure]
            )

    def test_bad_cell_message_is_pinned(self, tmp_path):
        cfg = SyntheticCohortConfig(n_nodes=8, n_hc=2, n_mci=2, seed=6)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        path = tmp_path / "features_shortest_path.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}: line 3: could not convert string to float: 'x'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_feature_csvs(tmp_path)

    @pytest.mark.parametrize("cell", PYTHON_ONLY_NUMERALS)
    def test_python_only_numerals_rejected(self, tmp_path, cell):
        # The check covers the feature cells, never the subject id.
        ids = ("s_1", "sujet-\u00e9", "c")
        cohort = make_measure_cohort(
            {m: np.full((3, 2), 1.5) for m in MEASURES}, [0, 1, 0], ids=ids
        )
        write_feature_csvs(cohort, tmp_path)
        assert load_feature_csvs(tmp_path).subject_ids == ids
        path = tmp_path / "features_shortest_path.csv"
        records = path.read_bytes().decode("utf-8").split("\r\n")
        assert records[2] == "sujet-\u00e9,MCI,1.5,1.5"  # line 3
        records[2] = f"sujet-\u00e9,MCI,{cell},1.5"
        path.write_bytes("\r\n".join(records).encode("utf-8"))
        message = (
            f"{path}: line 3: could not convert string to float: {cell!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_feature_csvs(tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_is_rejected(self, tmp_path, cell):
        cohort = make_measure_cohort(
            {m: np.full((3, 2), 1.5) for m in MEASURES},
            [0, 1, 0],
            ids=("a", "two\nlines", "c"),
        )
        write_feature_csvs(cohort, tmp_path)
        path = tmp_path / "features_communicability.csv"
        records = path.read_bytes().split(b"\r\n")
        assert records[3] == b"c,HC,1.5,1.5"  # physical line 5
        records[3] = b"c,HC,1.5," + cell.encode()
        path.write_bytes(b"\r\n".join(records))
        message = f"{path}: line 5: feature f1 is not finite: '{cell}'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_feature_csvs(tmp_path)

    def test_error_names_the_physical_line_after_a_multiline_id(
        self, tmp_path
    ):
        cohort = make_measure_cohort(
            {m: np.full((3, 2), 1.5) for m in MEASURES},
            [0, 1, 0],
            ids=("a", "two\nlines", "c"),
        )
        write_feature_csvs(cohort, tmp_path)
        path = tmp_path / "features_weights.csv"
        records = path.read_bytes().split(b"\r\n")
        assert records[3] == b"c,HC,1.5,1.5"  # physical line 5
        records[3] = b"c,HC,1.5,x"
        path.write_bytes(b"\r\n".join(records))
        message = f"{path}: line 5: could not convert string to float: 'x'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_feature_csvs(tmp_path)


def load_on_workers(monkeypatch, workers, directory):
    """load_feature_csvs with the core count forced to ``workers``; returns
    the cohort, or the exception it raised."""
    monkeypatch.setattr(pool, "available_cores", lambda: workers)
    try:
        with time_limit(60):
            return load_feature_csvs(directory)
    except Exception as exc:  # compared across worker counts by the tests
        return exc


def drop_last_column(path):
    records = path.read_bytes().split(b"\r\n")
    path.write_bytes(
        b"\r\n".join(r.rsplit(b",", 1)[0] if r else r for r in records)
    )


def put_bad_cell(path):
    records = path.read_bytes().split(b"\r\n")
    records[2] = records[2].rsplit(b",", 1)[0] + b",x"
    path.write_bytes(b"\r\n".join(records))


class TestParallelFeatureStore:
    """Every file is one unit of the pool, read into the same shared buffer,
    whatever the number of workers."""

    def test_cohort_does_not_depend_on_workers(self, tmp_path, monkeypatch):
        cohort = awkward_ids_cohort(tmp_path)
        write_feature_csvs(cohort, tmp_path)
        for workers in (1, 2, 5):
            loaded = load_on_workers(monkeypatch, workers, tmp_path)
            assert loaded.subject_ids == cohort.subject_ids
            assert loaded.labels.tolist() == cohort.labels.tolist()
            assert np.array_equal(loaded.fused(), cohort.fused())

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (
                {"shortest_path": put_bad_cell,
                 "communicability": put_bad_cell},
                "{shortest_path}: line 3: could not convert string to"
                " float: 'x'",
            ),
            (
                {"shortest_path": drop_last_column,
                 "communicability": os.unlink},
                "{shortest_path}: feature matrices must have the same number"
                " of columns for every measure (got {{'weights': 21,"
                " 'shortest_path': 20}})",
            ),
        ],
        ids=["two_bad_cells", "width_then_missing_file"],
    )
    def test_the_first_bad_file_is_reported_on_any_workers(
        self, tmp_path, monkeypatch, spoil, message
    ):
        cfg = SyntheticCohortConfig(n_nodes=7, n_hc=4, n_mci=5, seed=9)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        for measure, action in spoil.items():
            action(tmp_path / f"features_{measure}.csv")
        expected = message.format(
            shortest_path=tmp_path / "features_shortest_path.csv"
        )
        for workers in (1, 2, 5):
            error = load_on_workers(monkeypatch, workers, tmp_path)
            assert type(error) is ValidationError
            assert str(error) == expected

    def test_awkward_ids_fill_the_first_rows_of_the_buffer(
        self, tmp_path, monkeypatch
    ):
        cohort = awkward_ids_cohort(tmp_path)
        write_feature_csvs(cohort, tmp_path)
        buffers = recorded_buffers(monkeypatch)
        for workers in (1, 2, 5):
            loaded = load_on_workers(monkeypatch, workers, tmp_path)
            assert_one_matrix(loaded)
            # The header and nine records end in 10 line breaks, and one
            # id holds one more: the buffer has 11 rows, the cohort 9.
            assert buffers[-1].shape == (11, len(MEASURES), 5)
            assert np.shares_memory(loaded.fused(), buffers[-1])
        assert len(buffers) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_node_store_round_trips(self, tmp_path, monkeypatch, workers):
        cohort = one_node_cohort(tmp_path)
        write_feature_csvs(cohort, tmp_path)
        loaded = load_on_workers(monkeypatch, workers, tmp_path)
        assert loaded.subject_ids == cohort.subject_ids
        assert loaded.labels.tolist() == cohort.labels.tolist()
        assert loaded.fused().shape == (6, 0)
        assert not loaded.fused().flags.writeable

    def test_a_missing_weights_file_is_reported_first(
        self, tmp_path, monkeypatch
    ):
        cfg = SyntheticCohortConfig(n_nodes=7, n_hc=4, n_mci=5, seed=9)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        put_bad_cell(tmp_path / "features_shortest_path.csv")
        weights = tmp_path / "features_weights.csv"
        weights.unlink()
        for workers in (1, 2, 5):
            error = load_on_workers(monkeypatch, workers, tmp_path)
            assert type(error) is FileNotFoundError
            assert str(error) == f"feature file not found: {weights}"

    def test_a_missing_weights_file_is_reported_before_any_unit(
        self, tmp_path, monkeypatch
    ):
        cfg = SyntheticCohortConfig(n_nodes=7, n_hc=4, n_mci=5, seed=9)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        weights = tmp_path / "features_weights.csv"
        weights.unlink()

        def no_pool(*args):
            raise AssertionError("the pool ran")

        monkeypatch.setattr(pool, "ordered_map", no_pool)
        monkeypatch.setattr(dataio, "ordered_map", no_pool)
        with pytest.raises(FileNotFoundError) as error:
            load_feature_csvs(tmp_path)
        assert str(error.value) == f"feature file not found: {weights}"

    def test_no_list_of_rows_is_held(self, tmp_path, monkeypatch):
        # On one core every file is parsed in this process, where
        # tracemalloc sees it; the shared buffer is a mapping it does not
        # trace. A list of one file's rows would outweigh a measure's
        # matrix.
        rng = np.random.default_rng(5)
        width = feature_length(40)
        cohort = make_measure_cohort(
            {m: rng.normal(size=(400, width)) for m in MEASURES},
            [index % 2 for index in range(400)],
        )
        write_feature_csvs(cohort, tmp_path)
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        tracemalloc.start()
        try:
            loaded = load_feature_csvs(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.fused(), cohort.fused())
        assert peak < cohort.features[MEASURES[0]].nbytes / 4


def awkward_ids_cohort(tmp_path):
    """Nine subjects, so each measure's last chunk is a partial one, with
    ids that ``csv.writer`` quotes or that encode to several bytes."""
    rng = np.random.default_rng(12)
    ids = ("a,b", 'say "hi"', "two\nlines", " padded", "sujet-é",
           "s5", "s6", "s7", "s8")
    return make_measure_cohort(
        {m: rng.normal(size=(9, 5)) / 3.0 for m in MEASURES},
        [0, 1, 1, 0, 1, 0, 0, 1, 1],
        ids=ids,
    )


def many_units_cohort(tmp_path):
    # Thirty 6-node subjects: at 20 cells per unit the fill forms 15 units
    # of two, more than five workers.
    cfg = SyntheticCohortConfig(n_nodes=6, n_hc=12, n_mci=18, seed=2)
    return generate_synthetic_cohort(cfg)


def feature_store_cohort(tmp_path):
    # Plain arrays parsed from files, not views of the shared buffer.
    cfg = SyntheticCohortConfig(n_nodes=7, n_hc=5, n_mci=6, seed=9)
    write_feature_csvs_reference(
        generate_synthetic_cohort(cfg), tmp_path / "store"
    )
    return load_feature_csvs(tmp_path / "store")


def one_node_cohort(tmp_path):
    matrices = [
        validate_matrix(np.zeros((1, 1)), subject_id=f"s{i}") for i in range(6)
    ]
    return cohort_from_matrices(
        [f"s{i}" for i in range(6)], [0, 1, 0, 1, 1, 0], matrices
    )


class TestParallelWriter:
    """The forked writer's files do not depend on the number of workers."""

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize(
        "build",
        [awkward_ids_cohort, many_units_cohort, feature_store_cohort,
         one_node_cohort],
        ids=["awkward_ids", "many_units", "feature_store", "one_node"],
    )
    def test_bytes_equal_reference_writer(
        self, tmp_path, monkeypatch, build, workers
    ):
        cohort = build(tmp_path)
        expected = write_feature_csvs_reference(cohort, tmp_path / "old")
        formed = few_cells_per_unit(monkeypatch)
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        with time_limit(60):
            written = write_feature_csvs(cohort, tmp_path / "new")
        assert len(formed) == 1 and formed[0] > 1
        assert [path.name for path in written] == [
            path.name for path in expected
        ]
        for new, old in zip(written, expected):
            assert new.read_bytes() == old.read_bytes()

    def test_a_worker_that_dies_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        cohort = many_units_cohort(tmp_path)
        formed = few_cells_per_unit(monkeypatch)
        parent = os.getpid()
        original = dataio._write_feature_file

        def die_in_worker(state, measure_index):
            if os.getpid() != parent and measure_index == 1:
                os._exit(1)
            return original(state, measure_index)

        monkeypatch.setattr(dataio, "_write_feature_file", die_in_worker)
        monkeypatch.setattr(pool, "available_cores", lambda: 2)
        with time_limit(60), pytest.raises(BrokenProcessPool):
            write_feature_csvs(cohort, tmp_path)
        assert formed == [3]
        assert not list(tmp_path.glob(".features_*.tmp"))

    def test_a_failed_write_leaves_the_earlier_store_whole(
        self, tmp_path, monkeypatch
    ):
        earlier = feature_store_cohort(tmp_path)
        store = tmp_path / "features"
        written = write_feature_csvs(earlier, store)
        before = {path.name: path.read_bytes() for path in written}
        formed = few_cells_per_unit(monkeypatch)
        parent = os.getpid()
        original = dataio._write_feature_file

        def die_in_worker(state, measure_index):
            if os.getpid() != parent and measure_index == 1:
                os._exit(1)
            return original(state, measure_index)

        monkeypatch.setattr(dataio, "_write_feature_file", die_in_worker)
        monkeypatch.setattr(pool, "available_cores", lambda: 2)
        with time_limit(60), pytest.raises(BrokenProcessPool):
            write_feature_csvs(many_units_cohort(tmp_path), store)
        assert formed[-1] == 3
        assert not list(store.glob(".features_*.tmp"))
        after = {path.name: path.read_bytes() for path in store.iterdir()}
        assert after == before
        reloaded = load_feature_csvs(store)
        assert reloaded.subject_ids == earlier.subject_ids
        for measure in MEASURES:
            assert np.array_equal(
                reloaded.features[measure], earlier.features[measure]
            )

    def test_the_callers_unit_raises_once_the_workers_run(self, monkeypatch):
        parent = os.getpid()
        workers_seen = []

        def work(state, unit):
            if os.getpid() == parent:
                workers_seen.append(len(multiprocessing.active_children()))
                raise RuntimeError(f"unit {unit} failed in the caller")
            return unit

        monkeypatch.setattr(pool, "available_cores", lambda: 2)
        with time_limit(60), pytest.raises(
            RuntimeError, match="^unit 0 failed in the caller$"
        ):
            list(pool.ordered_map(work, None, range(6)))
        assert workers_seen == [2]

    def test_a_failed_first_unit_cancels_the_units_not_started(
        self, tmp_path, monkeypatch
    ):
        parent = os.getpid()

        def work(state, unit):
            (tmp_path / f"unit_{unit}").touch()
            if os.getpid() == parent:
                raise RuntimeError(f"unit {unit} failed in the caller")
            time.sleep(0.05)
            return unit

        monkeypatch.setattr(pool, "available_cores", lambda: 2)
        with time_limit(60), pytest.raises(
            RuntimeError, match="^unit 0 failed in the caller$"
        ):
            list(pool.ordered_map(work, None, range(40)))
        # Without the cancel, shutting the pool down would run all 40.
        recorded = {path.name for path in tmp_path.glob("unit_*")}
        assert "unit_0" in recorded
        assert len(recorded) < 40

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_no_file_bytes_cross_the_pool(
        self, tmp_path, monkeypatch, workers
    ):
        cohort = many_units_cohort(tmp_path)
        units_seen, results = [], []
        original = dataio.ordered_map

        def recording(work, state, units):
            units_seen.append(list(units))
            for result in original(work, state, units):
                results.append(result)
                yield result

        monkeypatch.setattr(dataio, "ordered_map", recording)
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        with time_limit(60):
            write_feature_csvs(cohort, tmp_path)
        assert units_seen == [[0, 1, 2]]
        assert results == [None, None, None]


@needs_openblas
class TestPoolPinsOneBlasThread:
    """On the one-process path too, every unit of ``ordered_map`` runs the
    loaded OpenBLAS on one thread, and the caller gets its count back."""

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_every_unit_runs_on_one_thread(self, monkeypatch, openblas, fails):
        def counts():
            return [getter() for _, getter in openblas]

        def work(state, unit):
            state.append(counts())
            if fails and unit == 2:
                raise RuntimeError(f"unit {unit} failed")
            return unit

        before = counts()
        seen = []
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        expected = pytest.raises(RuntimeError, match="^unit 2 failed$")
        with expected if fails else contextlib.nullcontext():
            assert list(pool.ordered_map(work, seen, range(4))) == [0, 1, 2, 3]
        assert seen == [[1] * len(openblas)] * (3 if fails else 4)
        assert counts() == before


def not_utf8(path, line, position, byte):
    """The message for ``byte`` at ``position`` of physical ``line``."""
    reason = "invalid start" if byte == 0xFF else "invalid continuation"
    return (
        f"{path}: line {line}: 'utf-8' codec can't decode byte {byte:#x} in"
        f" position {position}: {reason} byte"
    )


class TestNotUtf8:
    """Every reader refuses a file that is not UTF-8: its command exits
    with EXIT_DATA, naming the file and the line of the first bad byte."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matrix_file(self, tmp_path, monkeypatch, capsys, workers):
        manifest = constant_cohort(tmp_path)
        few_cells_per_unit(monkeypatch)
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        # Subjects 1 and 5 are in the first and second unit: the first in
        # manifest order is reported.
        for index in (5, 1):
            path = tmp_path / f"m{index}.csv"
            lines = path.read_bytes().split(b"\n")
            lines[2] = b"\xe9" + lines[2]
            path.write_bytes(b"\n".join(lines))
        with time_limit(60):
            code = cli.main(["extract", "--manifest", str(manifest),
                             "--out-dir", str(tmp_path / "features")])
        assert code == cli.EXIT_DATA
        message = not_utf8(tmp_path / "m1.csv", 3, 0, 0xE9)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_manifest(self, tmp_path, capsys):
        manifest = constant_cohort(tmp_path)
        manifest.write_bytes(
            manifest.read_bytes().replace(b"s1,", b"s1\xff,")
        )
        code = cli.main(["extract", "--manifest", str(manifest),
                         "--out-dir", str(tmp_path / "features")])
        assert code == cli.EXIT_DATA
        message = not_utf8(manifest, 3, 2, 0xFF)
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_feature_file(self, tmp_path, monkeypatch, capsys, workers):
        cfg = SyntheticCohortConfig(n_nodes=6, n_hc=4, n_mci=5, seed=2)
        write_feature_csvs(generate_synthetic_cohort(cfg), tmp_path)
        path = tmp_path / "features_communicability.csv"
        path.write_bytes(path.read_bytes() + b"\xff")
        monkeypatch.setattr(pool, "available_cores", lambda: workers)
        with time_limit(60):
            code = cli.main(["evaluate", "--features-dir", str(tmp_path),
                             "--folds", "2", "--repeats", "1",
                             "--out", str(tmp_path / "report.json")])
        assert code == cli.EXIT_DATA
        # The header, nine records, then the byte on a line of its own.
        message = not_utf8(path, 11, 0, 0xFF)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b"\xff")
        code = cli.main(["compare", str(path), str(path)])
        assert code == cli.EXIT_DATA
        message = not_utf8(path, 1, 0, 0xFF)
        assert capsys.readouterr().err == f"error: {message}\n"
