"""Tests for CSV ingestion, report serialization, and the CLI commands."""

import functools
import io
import json
import logging
import os
import threading
import tracemalloc

import numpy as np
import pytest

from pairinfo import EmpiricalPmf, PairShape, cli
from pairinfo.cli import (
    _BLOCK_BYTES,
    _rows,
    main,
    parse_counts_csv,
    parse_pairs_csv,
    parse_sizes,
    serialize_counts_csv,
)
from pairinfo.pmf import LabeledAlphabets

DEMO_COUNTS_CSV = "x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n"


# Inputs where a line is not a whole record of two fields, or where
# distinct lines share a cell.
RECORD_WALK_INPUTS = [
    '"multi\nline",p\nb,q\n',
    'b,q\nx,"a\nb,q\n',
    'a"b,"c\nd",p\n',
    '"h\nx",y\na,p\n',
    '"x""y",p\n',
    ' a , p \na,p\n',
    'a,p\r\nb,q\rc,r\n',
    'a,p\n\n\r\nb,q\n\n',
    "\n\r\n\r",
    "a,p\n" * 6 + "a,p,extra\n",
    'a,p\nb,"q',
]

# Where an input sits: alone; among repeated lines; in the second chunk of
# bytes; from the first byte of the second chunk; with its first line cut
# by the edge between the first two chunks; and after a chunk of new
# lines, which sends the parser to the record walk.  "a,p\n" is 4 bytes.
LAYOUTS = {
    "alone": "{}",
    "among_repeats": "a,p\n" * 20 + "{}" + "b,q\n" * 20,
    "second_block": "a,p\n" * (_BLOCK_BYTES // 4 + 100) + "{}",
    "block_edge": "a,p\n" * (_BLOCK_BYTES // 4) + "{}" + "a,q\n" * 5,
    "chunk_edge": "a,p\n" * (_BLOCK_BYTES // 4 - 2) + "a , p\n" + "{}" + "a,q\n" * 5,
    "after_new_lines": "a,p\n" * (_BLOCK_BYTES // 4)
    + "".join(f"n{i:05d},q\n" for i in range(_BLOCK_BYTES // 9))
    + "{}",
}

# Lines the known-line table must tell apart exactly: either side of its
# 64-byte window, alike but for their last byte or their length, with NUL
# bytes in their labels, and \r\n and \n twins of one record.
ADVERSE_LINES = [
    *(f"{'a' * (size - 2)},{y}\n" for size in (63, 64, 65, 200) for y in "pq"),
    *(f"{'b' * (size - 2)},p\r\n" for size in (63, 64, 65)),
    "a\x00b,p\n", "a,p\x00\n", "a,p\x00\x00\n", "a,p\n", "a,p\r\n", "\x00,\x00\n",
]


def _adverse_text(lines: int) -> str:
    """``lines`` lines drawn from ``ADVERSE_LINES`` with a fixed seed."""
    picks = np.random.default_rng(7).integers(len(ADVERSE_LINES), size=lines)
    return "".join(ADVERSE_LINES[i] for i in picks)


class _Pipe(io.RawIOBase):
    """Bytes that can be read once but not sought, like a pipe."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


def _pipe(text):
    return io.BufferedReader(_Pipe(text.encode()))


def _walk_records(stream, header):
    """Reference: count cells by walking every record with ``_rows``."""
    x_order, y_order, cells = {}, {}, []
    for _, (x, y) in _rows(stream, header, 2):
        xi = x_order.setdefault(x.strip(), len(x_order))
        cells.append((xi, y_order.setdefault(y.strip(), len(y_order))))
    if not cells:
        raise ValueError("empty input: no data rows")
    counts = np.zeros(len(x_order) * len(y_order), dtype=np.int64)
    for xi, yi in cells:
        counts[len(y_order) * xi + yi] += 1
    return LabeledAlphabets(tuple(x_order), tuple(y_order)), counts


def _outcome(parse, stream, header):
    try:
        alphabets, counts = parse(stream, header)
    except ValueError as exc:
        return str(exc)
    return alphabets.x_labels, alphabets.y_labels, counts.tolist()


@functools.lru_cache(maxsize=None)
def _walked(text, header):
    """The outcome of walking ``text`` in text mode, as the CLI read it."""
    return _outcome(_walk_records, io.StringIO(text, newline=""), header)


def _parsed(text, header=False):
    """The outcome of parsing the UTF-8 bytes of ``text``."""
    return _outcome(parse_pairs_csv, io.BytesIO(text.encode()), header)


class TestParsePairsCsv:
    def test_first_appearance_order_and_encoding(self):
        alphabets, counts = parse_pairs_csv(io.BytesIO(b"a,p\na,q\nb,p\n"))
        assert alphabets.x_labels == ("a", "b")
        assert alphabets.y_labels == ("p", "q")
        np.testing.assert_array_equal(counts, [1, 1, 1, 0])
        assert counts.dtype == np.int64

    def test_realizes_expected_frequencies(self):
        rows = ["x1,y1"] * 2 + ["x1,y2"] * 4 + ["x2,y1"] * 1 + ["x2,y2"] * 3
        text = "\n".join(rows) + "\n"
        alphabets, counts = parse_pairs_csv(io.BytesIO(text.encode()))
        emp = EmpiricalPmf(counts, alphabets.shape)
        np.testing.assert_allclose(emp.freqs, [0.2, 0.4, 0.1, 0.3])

    def test_ragged_row_reports_line_number(self):
        text = "a,p\n" * 6 + "a,p,extra\n"
        with pytest.raises(ValueError, match="line 7: expected 2 fields"):
            parse_pairs_csv(io.BytesIO(text.encode()))

    def test_line_numbers_count_records(self):
        """A label spanning two lines is one record, so the ragged row on
        the third line is record 2."""
        text = '"multi\nline",p\na,p,extra\n'
        with pytest.raises(ValueError, match="line 2: expected 2 fields"):
            parse_pairs_csv(io.BytesIO(text.encode()))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty input"):
            parse_pairs_csv(io.BytesIO(b""))

    def test_header_skipped_only_on_request(self):
        text = b"x,y\na,p\nb,q\n"
        alphabets, counts = parse_pairs_csv(io.BytesIO(text), header=True)
        assert alphabets.x_labels == ("a", "b")
        assert counts.sum() == 2
        # without the flag the first row is data
        alphabets2, counts2 = parse_pairs_csv(io.BytesIO(text))
        assert alphabets2.x_labels == ("x", "a", "b")

    def test_blank_lines_are_ignored(self):
        alphabets, counts = parse_pairs_csv(io.BytesIO(b"a,p\n\nb,q\n\n"))
        assert counts.sum() == 2

    def test_crlf_input(self):
        alphabets, counts = parse_pairs_csv(io.BytesIO(b"a,p\r\nb,q\r\n"))
        assert alphabets.y_labels == ("p", "q")

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("text", RECORD_WALK_INPUTS)
    def test_matches_record_walk(self, text, layout, header):
        """Tallying distinct lines gives what walking every record gives."""
        text = LAYOUTS[layout].format(text)
        assert _parsed(text, header) == _walked(text, header)

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("text", RECORD_WALK_INPUTS)
    def test_matches_record_walk_across_flushes(self, text, layout, header, monkeypatch):
        """A tally that yields its cells and starts afresh past two lines."""
        monkeypatch.setattr(cli, "_KNOWN_LINES", 2)
        self.test_matches_record_walk(text, layout, header)

    @pytest.mark.parametrize("known_lines", [cli._KNOWN_LINES, 2])
    def test_late_line_keeps_first_appearance_order(self, known_lines, monkeypatch):
        """Lines first met after many chunks of repeats take the next label
        indices in the order they appear."""
        monkeypatch.setattr(cli, "_KNOWN_LINES", known_lines)
        repeats = "a,p\nb,p\n" * (3 * _BLOCK_BYTES // 8)
        text = repeats + "c,q\n" + repeats + "d,r\nb,s\ne,q\n" + repeats
        outcome = _parsed(text)
        assert outcome[:2] == (("a", "b", "c", "d", "e"), ("p", "q", "r", "s"))
        assert outcome == _walked(text, False)

    @pytest.mark.parametrize("extra, walked", [(0, False), (1, True)])
    def test_blank_lines_are_not_new(self, extra, walked, monkeypatch):
        """Past the first chunk, a chunk walks once over a quarter of its
        lines are new; its blank lines do not count towards that.

        The second chunk is 3 blank lines in 4 bytes, ``new`` new lines of
        8 bytes and repeats of 4 bytes: ``_BLOCK_BYTES / 4 + 2 - new``
        lines in all, over 4 times ``new`` once 5 ``new`` exceeds
        ``_BLOCK_BYTES / 4 + 2``.
        """
        calls = []

        def walk(*args):
            calls.append(args[2])
            return real_walk(*args)

        real_walk = cli._walked_cells
        monkeypatch.setattr(cli, "_walked_cells", walk)
        new_lines = (_BLOCK_BYTES // 4 + 2) // 5 + extra
        second = "\n\n\r\n" + "".join(f"n{i:04d},q\n" for i in range(new_lines))
        second += "a,p\n" * ((_BLOCK_BYTES - len(second)) // 4)
        assert len(second) == _BLOCK_BYTES
        text = "a,p\n" * (_BLOCK_BYTES // 4) + second
        assert _parsed(text) == _walked(text, False)
        assert calls == ([_BLOCK_BYTES // 4 + 1] if walked else [])

    @pytest.mark.parametrize(
        "text", ["a,p\n" * 20 + '"multi\nline",q\n', "a,p\n" * 20 + "a,q,r\n"]
    )
    def test_stream_need_not_seek(self, text):
        """A pipe holding a label that spans lines, or a ragged row."""
        stream = _pipe(text)
        assert not stream.seekable()
        assert _outcome(parse_pairs_csv, stream, False) == _walked(text, False)

    @pytest.mark.parametrize("body", ["a,p\n" * 10, '"a\nb",p\n' + "a,p\n" * 9])
    def test_reads_from_current_position(self, body):
        stream = io.BytesIO(b"not,a,pair\n" + body.encode())
        stream.readline()
        alphabets, counts = parse_pairs_csv(stream)
        assert counts.sum() == 10

    @pytest.mark.parametrize("first", ["a,p\n", '"a\nb",p\n'])
    def test_memory_scales_with_cells_not_rows(self, first):
        """Neither the line tally nor the record walk, which a label spanning
        lines sends the parser to, keeps one entry per row."""
        stream = io.BytesIO((first + "a,q\nb,p\nb,q\n" * 33_333).encode())
        tracemalloc.start()
        try:
            alphabets, counts = parse_pairs_csv(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 100_000
        assert peak < 1_000_000


class TestKnownLineTable:
    """Lines that repeat are counted through a hash table, and the hash
    only picks a slot: every count must match the record walk's."""

    @pytest.mark.parametrize("bits", [0, 1])
    @pytest.mark.parametrize(
        "text",
        [_adverse_text(400)]
        + [LAYOUTS["among_repeats"].format(t) for t in RECORD_WALK_INPUTS],
    )
    def test_every_line_collides(self, text, bits, monkeypatch):
        """A table of one or two slots, so that known lines share them."""
        monkeypatch.setattr(cli, "_slot_bits", lambda lines: bits)
        for header in (False, True):
            assert _parsed(text, header) == _walked(text, header)

    @pytest.mark.parametrize("header", [False, True])
    def test_lines_around_the_window(self, header):
        """Lines either side of 64 bytes, NUL bytes and \\r\\n twins, in
        chunks past the first."""
        text = _adverse_text(3 * _BLOCK_BYTES // 40)
        outcome = _parsed(text, header)
        assert outcome == _walked(text, header)
        assert "a" * 198 in outcome[0] and "a\x00b" in outcome[0]
        assert ("p\x00" in outcome[1]) and ("\x00" in outcome[1])

    @pytest.mark.parametrize("block_bytes", [7, 64])
    @pytest.mark.parametrize("layout", ["alone", "among_repeats"])
    @pytest.mark.parametrize("text", [_adverse_text(400), *RECORD_WALK_INPUTS])
    def test_small_chunks(self, text, layout, block_bytes, monkeypatch):
        """Chunks shorter than many lines, whose next read grows to hold
        the line they cut."""
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        text = LAYOUTS[layout].format(text)
        for header in (False, True):
            assert _parsed(text, header) == _walked(text, header)

    def test_repeated_lines_are_counted_in_numpy(self, monkeypatch):
        """200k lines of at most 2700 distinct ones: nothing is walked, and
        at most 5% of lines are looked up one by one."""
        rng = np.random.default_rng(2024)
        x = rng.choice(50, 200_000, p=rng.dirichlet(np.ones(50)))
        y = rng.choice(54, 200_000, p=rng.dirichlet(np.ones(54)))
        cell_lines = [f"x{i:02d},y{j:02d}\n" for i in range(50) for j in range(54)]
        text = "".join(cell_lines[c] for c in (54 * x + y).tolist())
        listed = []

        def looked_up(known, data, starts, lengths):
            listed.append(len(starts))
            return real_listed(known, data, starts, lengths)

        def walk(*args):
            raise AssertionError("the record walk was not expected")

        real_listed = cli._listed_ids
        monkeypatch.setattr(cli, "_listed_ids", looked_up)
        monkeypatch.setattr(cli, "_walked_cells", walk)
        outcome = _parsed(text)
        monkeypatch.undo()
        assert outcome == _walked(text, False)
        assert sum(listed) <= 0.05 * 200_000


class TestPairsEncoding:
    """Pairs input is read as bytes and decoded as UTF-8 line by line."""

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff,p\na,q\n",
            b"a,p\n" * (_BLOCK_BYTES // 2 + 10) + b"b,\xe2\x82q\n" + b"a,p\n" * 10,
            b'"multi\nline",p\n' + b"a,p\n" * (_BLOCK_BYTES // 4 + 10) + b"\xc3,q\n",
        ],
        ids=["first_line", "after_two_chunks", "walked_remainder"],
    )
    def test_invalid_utf8_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "invalid.csv"
        path.write_bytes(data)
        assert main(["estimate", "--input", str(path), "--format", "pairs"]) == 2
        assert "codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["é", "€", "𝄞"])
    def test_label_across_chunk_edge(self, label):
        """A 2-, 3- or 4-byte character whose bytes straddle the edge
        between two chunks, first met and then repeated."""
        line = "xyz" + label + ",q\n"
        text = "a,p\n" * (_BLOCK_BYTES // 4 - 1) + line + "a,p\n" * 10 + line
        assert len(text[: text.index(label)].encode()) == _BLOCK_BYTES - 1
        outcome = _parsed(text)
        assert outcome == _walked(text, False)
        assert outcome[0] == ("a", "xyz" + label)

    def test_byte_order_mark_only_at_start(self):
        """The mark is dropped from the first bytes only; one met later
        stays part of its label, as text mode keeps it."""
        text = "﻿a,p\n﻿b,q\n"
        assert _parsed(text) == _walked(text[1:], False)
        assert _parsed(text)[0] == ("a", "﻿b")


class TestWalkLog:
    """Handing over to the record walk logs where and why, once."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "a,p\n" * 20 + '"multi\nline",q\n',
                "walking records from line 1: "
                "a line is not one whole record of two fields",
            ),
            (
                LAYOUTS["after_new_lines"].format("a,p\n"),
                f"walking records from line {_BLOCK_BYTES // 4 + 1}: "
                "over a quarter of its lines are new",
            ),
            ("a,p\n" * 20 + "b,q\n" * 20, None),
        ],
        ids=["not_whole", "new_lines", "repeats"],
    )
    def test_walk_is_logged(self, caplog, text, message):
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            parse_pairs_csv(io.BytesIO(text.encode()))
        assert caplog.messages == ([message] if message else [])


class TestParseCountsCsv:
    def test_working_table(self):
        alphabets, emp = parse_counts_csv(io.StringIO(DEMO_COUNTS_CSV))
        assert alphabets.x_labels == ("x1", "x2")
        np.testing.assert_array_equal(emp.counts, [2, 4, 1, 3])
        assert emp.n == 10

    def test_missing_cell_counts_zero(self):
        text = "x1,y1,2\nx1,y2,4\nx2,y2,3\n"
        _, emp = parse_counts_csv(io.StringIO(text))
        np.testing.assert_array_equal(emp.counts, [2, 4, 0, 3])

    def test_duplicate_cell(self):
        text = "x1,y1,2\nx1,y1,3\n"
        with pytest.raises(ValueError, match=r"line 2: duplicate cell \(x1, y1\)"):
            parse_counts_csv(io.StringIO(text))

    def test_count_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError, match="line 1: count"):
            parse_counts_csv(io.StringIO("x1,y1,2.5\n"))
        with pytest.raises(ValueError, match="nonnegative"):
            parse_counts_csv(io.StringIO("x1,y1,-2\n"))

    @pytest.mark.parametrize("raw", ["1_0", "٣", "１２"])
    def test_count_must_be_ascii_digits(self, raw):
        """Python's int() reads these as 10, 3 and 12; a count may not."""
        with pytest.raises(
            ValueError, match=f"line 2: count must be an integer, got {raw!r}"
        ):
            parse_counts_csv(io.StringIO(f"x1,y1,1\nx1,y2,{raw}\n"))

    @pytest.mark.parametrize("raw, count", [("+4", 4), (" 7 ", 7)])
    def test_count_sign_and_spaces(self, raw, count):
        _, emp = parse_counts_csv(io.StringIO(f"x1,y1,1\nx1,y2,{raw}\n"))
        np.testing.assert_array_equal(emp.counts, [1, count])

    def test_all_zero_counts(self):
        with pytest.raises(ValueError, match="zero"):
            parse_counts_csv(io.StringIO("x1,y1,0\nx1,y2,0\n"))

    def test_field_count(self):
        with pytest.raises(ValueError, match="line 1: expected 3 fields"):
            parse_counts_csv(io.StringIO("x1,y1\n"))

    def test_counts_beyond_int64(self):
        text = "x1,y1,1\nx1,y2,9223372036854775808\n"
        with pytest.raises(ValueError, match="line 2: count must be at most"):
            parse_counts_csv(io.StringIO(text))
        # Every count fits, but their total wraps around in int64.
        text = "".join(f"x{i},y{j},{2**62 + 1}\n" for i in (1, 2) for j in (1, 2))
        with pytest.raises(ValueError, match="int64"):
            parse_counts_csv(io.StringIO(text))


class TestSerializeRoundTrip:
    def test_round_trip_preserves_table(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            counts = rng.integers(0, 30, size=rows * cols)
            if counts.sum() == 0:
                counts[0] = 1
            emp = EmpiricalPmf(counts, PairShape(rows, cols))
            alphabets = LabeledAlphabets(
                tuple(f"x{i}" for i in range(rows)),
                tuple(f"y{j}" for j in range(cols)),
            )
            text = serialize_counts_csv(alphabets, emp)
            alphabets2, emp2 = parse_counts_csv(io.StringIO(text))
            assert alphabets2.x_labels == alphabets.x_labels
            assert alphabets2.y_labels == alphabets.y_labels
            assert emp2 == emp

    def test_labels_with_commas_survive(self):
        emp = EmpiricalPmf(np.array([3, 4]), PairShape(1, 2))
        alphabets = LabeledAlphabets(("a,b",), ("p", "q r"))
        text = serialize_counts_csv(alphabets, emp)
        alphabets2, emp2 = parse_counts_csv(io.StringIO(text))
        assert alphabets2.x_labels == ("a,b",)
        assert emp2 == emp


class TestParseSizes:
    def test_inclusive_grid(self):
        assert parse_sizes("100:500:100") == [100, 200, 300, 400, 500]
        assert parse_sizes("10:11:5") == [10]

    def test_validation(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_sizes("100:500")
        with pytest.raises(ValueError, match="integers"):
            parse_sizes("a:b:c")
        with pytest.raises(ValueError, match="start"):
            parse_sizes("0:10:1")
        with pytest.raises(ValueError, match="step"):
            parse_sizes("10:20:0")
        with pytest.raises(ValueError, match="stop"):
            parse_sizes("20:10:1")


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO_COUNTS_CSV, encoding="utf-8")
    return str(path)


class TestCliCommands:
    def test_estimate_report(self, counts_file, capsys):
        code = main(["estimate", "--input", counts_file, "--format", "counts"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["schema_version", "config", "alphabets", "results"]
        assert report["schema_version"] == 2
        assert report["alphabets"] == {"x": ["x1", "x2"], "y": ["y1", "y2"]}
        ent = report["results"]["joint_entropy"]
        assert ent["estimate"] == 1.27985423  # 9 significant digits
        assert ent["n"] == 10
        assert ent["ci_lower"] == 1.01622509
        assert ent["ci_upper"] == 1.54348336
        assert ent["std_error"] == 0.134507132
        mi = report["results"]["mutual_information"]
        assert mi["estimate"] == 0.00402174323
        assert mi["variance"] == 0.00790830518
        assert mi["ci_lower"] == -0.0510957936
        assert mi["ci_upper"] == 0.0591392801
        assert mi["std_error"] == 0.028121709
        assert report["config"]["alpha"] == 0.05

    def test_test_command(self, counts_file, capsys):
        code = main(
            ["test", "--input", counts_file, "--format", "counts", "--alpha", "0.05"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # The block printed in the README, at 9 significant digits.
        assert report["results"]["independence_test"] == {
            "gamma_sq": 0.0804348646,
            "df": 1,
            "threshold": 3.84145882,
            "mi_threshold": 0.192072941,
            "p_value": 0.776708959,
            "reject": False,
            "alpha": 0.05,
            "n": 10,
        }

    def test_pairs_format(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("a,p\na,q\nb,p\nb,q\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "pairs"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["mutual_information"]["estimate"] == 0.0

    def test_trace_csv_output(self, counts_file, capsys):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "100:300:100", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "size,estimate,abs_error,a_zn,ratio"
        assert len(lines) == header_at + 1 + 3
        assert lines[header_at + 1].startswith("100,")

    def test_power_command(self, counts_file, capsys):
        code = main(
            [
                "power", "--input", counts_file, "--format", "counts",
                "--n", "2000", "--replicates", "40", "--seed", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        rate = report["results"]["rejection_rate"]["rate"]
        assert 0.0 <= rate <= 1.0

    def test_normality_json(self, counts_file, capsys):
        code = main(
            [
                "normality", "--input", counts_file, "--format", "counts",
                "--measure", "entropy", "--n", "1000", "--replicates", "100",
                "--seed", "11",
            ]
        )
        assert code == 0
        res = json.loads(capsys.readouterr().out)["results"]["normality"]
        assert len(res["t_values"]) == 100
        assert len(res["bin_edges"]) == 41
        assert sum(res["bin_counts"]) == 100
        assert res["sigma"] > 0

    def test_output_file(self, counts_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate", "--input", counts_file, "--format", "counts",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # report went to the file
        assert json.loads(out.read_text())["schema_version"] == 2

    def test_header_flag(self, tmp_path, capsys):
        path = tmp_path / "with_header.csv"
        path.write_text("x,y,count\n" + DEMO_COUNTS_CSV, encoding="utf-8")
        code = main(
            ["estimate", "--input", str(path), "--format", "counts", "--header"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alphabets"]["x"] == ["x1", "x2"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pairs_from_named_pipe(self, tmp_path, capsys):
        """A label spanning lines reads the same from a pipe as from a file."""
        text = "a,p\n" * 20 + '"multi\nline",q\n' + "b,q\n" * 5
        path = tmp_path / "regular.csv"
        path.write_text(text, encoding="utf-8")
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        results = []
        for source in (pipe, path):
            assert main(["estimate", "--input", str(source), "--format", "pairs"]) == 0
            report = json.loads(capsys.readouterr().out)
            results.append((report["alphabets"], report["results"]))
        writer.join(timeout=10)
        assert results[0] == results[1]
        assert results[0][0]["x"] == ["a", "multi\nline", "b"]


class TestByteOrderMark:
    """Spreadsheet "CSV UTF-8" exports start with a byte order mark."""

    @pytest.mark.parametrize(
        "fmt, text",
        [("counts", DEMO_COUNTS_CSV), ("pairs", "x1,y1\nx1,y2\nx2,y1\nx1,y1\n")],
    )
    def test_report_ignores_mark(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "input.csv"
        reports = []
        for mark in ("", "\ufeff"):
            path.write_text(mark + text, encoding="utf-8")
            assert main(["estimate", "--input", str(path), "--format", fmt]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_duplicate_of_first_cell_is_caught(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("\ufeff" + DEMO_COUNTS_CSV + "x1,y1,5\n", encoding="utf-8")
        assert main(["estimate", "--input", str(path), "--format", "counts"]) == 2
        assert "line 5: duplicate cell (x1, y1)" in capsys.readouterr().err


CONFIG_KEYS = [
    "command", "input", "format", "header", "alpha", "seed", "n",
    "replicates", "sizes", "measure", "output", "output_format",
]
NORMALITY_SCALARS = [
    "measure", "n", "replicates", "true_value", "sigma", "mean", "variance",
    "ks_distance",
]
TRACE_ARGS = ["trace", "--measure", "mi", "--sizes", "100:300:100", "--seed", "7"]
NORMALITY_ARGS = [
    "normality", "--measure", "entropy", "--n", "1000", "--replicates", "100",
    "--seed", "11",
]
ESTIMATE_KEYS = [
    "estimate", "n", "std_error", "ci_lower", "ci_upper", "alpha", "variance",
]


class TestReportLayout:
    """Key order and CSV preamble of every report, pinned as a format."""

    @pytest.mark.parametrize(
        "args, block, keys",
        [
            (["estimate"], "joint_entropy", ESTIMATE_KEYS),
            (["estimate"], "mutual_information", ESTIMATE_KEYS),
            (
                ["test"],
                "independence_test",
                ["gamma_sq", "df", "threshold", "mi_threshold", "p_value",
                 "reject", "alpha", "n"],
            ),
            (
                TRACE_ARGS + ["--output-format", "json"],
                "trace",
                ["measure", "true_value", "sizes", "estimates", "abs_errors",
                 "a_zn", "ratio"],
            ),
            (
                NORMALITY_ARGS,
                "normality",
                NORMALITY_SCALARS + [
                    "t_values", "bin_edges", "bin_counts", "qq_theoretical",
                    "qq_sample",
                ],
            ),
            (
                ["power", "--n", "200", "--replicates", "5"],
                "rejection_rate",
                ["rate", "n", "replicates", "alpha"],
            ),
        ],
    )
    def test_json_key_order(self, counts_file, capsys, args, block, keys):
        assert main(args + ["--input", counts_file, "--format", "counts"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["config"]) == CONFIG_KEYS
        assert list(report["results"][block]) == keys
        if args == ["estimate"]:
            assert list(report["results"]) == ["joint_entropy", "mutual_information"]
            assert isinstance(report["results"][block]["variance"], float)

    def test_trace_csv_preamble(self, counts_file, capsys):
        assert main(TRACE_ARGS + ["--input", counts_file, "--format", "counts"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0].startswith("# config: {")
        assert list(json.loads(lines[0][len("# config: "):])) == CONFIG_KEYS
        assert lines[1] == "# measure: mi, true_value: 0.00402174323"
        assert lines[2] == "size,estimate,abs_error,a_zn,ratio"
        assert lines[3].startswith("100,")

    def test_normality_csv_preamble(self, counts_file, capsys):
        args = NORMALITY_ARGS + [
            "--input", counts_file, "--format", "counts", "--output-format", "csv",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.split("\n")
        assert list(json.loads(lines[0][len("# config: "):])) == CONFIG_KEYS
        assert lines[1].startswith('# summary: {"measure":"entropy","n":1000,')
        assert list(json.loads(lines[1][len("# summary: "):])) == NORMALITY_SCALARS
        assert lines[2].startswith("# bin_edges: [-4.0, -3.8, ")
        assert lines[3].startswith("# bin_counts: [")
        assert lines[4] == "index,t_value,qq_theoretical,qq_order_statistic"
        assert lines[5].startswith("1,")
        assert len(lines) == 5 + 100 + 1  # trailing newline


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


class TestNonFiniteAndZero:
    """Reports that strict JSON parsers accept, with no negative zero."""

    TABLE = "x1,y1,1\nx1,y2,0\nx2,y1,0\nx2,y2,1\n"
    TRACE = ["trace", "--measure", "entropy", "--sizes", "1:3:1", "--seed", "3"]

    def test_trace_json_writes_null_for_nan(self, tmp_path, capsys):
        path = tmp_path / "diagonal.csv"
        path.write_text(self.TABLE, encoding="utf-8")
        args = self.TRACE + ["--input", str(path), "--format", "counts"]
        assert main(args + ["--output-format", "json"]) == 0
        trace = json.loads(
            capsys.readouterr().out, parse_constant=_reject_constant
        )["results"]["trace"]
        assert trace["a_zn"][1] == 0.0
        assert trace["ratio"][1] is None
        # CSV cells keep nan, and the point mass drawn at size 1 reads 0.
        assert main(args) == 0
        rows = capsys.readouterr().out.split("\n")[3:5]
        assert rows[0].startswith("1,0,")
        assert rows[1].endswith(",0,nan")

    @pytest.mark.parametrize(
        "fmt, text", [("pairs", "a,p\na,p\n"), ("counts", "a,p,2\n")]
    )
    def test_one_cell_estimate_has_no_negative_zero(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "one_cell.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["estimate", "--input", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        ent = json.loads(out)["results"]["joint_entropy"]
        assert ent["estimate"] == ent["ci_lower"] == ent["ci_upper"] == 0.0

    def test_uniform_table_estimate_has_zero_variance(self, tmp_path, capsys):
        # Rounding once left this 2x5 table an entropy variance of -4.4e-16,
        # which the interval rejected with exit 2.
        path = tmp_path / "uniform.csv"
        path.write_text(
            "".join(f"x{i},y{j},3\n" for i in range(2) for j in range(5)),
            encoding="utf-8",
        )
        assert main(["estimate", "--input", str(path), "--format", "counts"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        for measure in ("joint_entropy", "mutual_information"):
            rep = results[measure]
            assert rep["variance"] == rep["std_error"] == 0.0
            assert rep["ci_lower"] == rep["estimate"] == rep["ci_upper"]


class TestJsonable:
    """Float arrays take a fast path with the scalar rule's exact output."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_array_matches_elementwise_rule(self, dtype):
        info = np.finfo(dtype)
        scale = np.logspace(info.minexp * 0.3, info.maxexp * 0.3, 500, dtype=dtype)
        values = np.random.default_rng(0).normal(size=500).astype(dtype) * scale
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, info.smallest_subnormal, info.max,
                   1 / 3, 123456789.5]
        arr = np.concatenate([values, np.array(special, dtype=dtype)])
        got = cli._jsonable(arr)
        expected = [cli._jsonable(v) for v in arr]  # numpy scalars, one at a time
        assert json.dumps(got) == json.dumps(expected)
        assert got[-9:-6] == [None, None, None]

    def test_other_arrays_keep_their_types(self):
        assert cli._jsonable(np.array([3, 4])) == [3, 4]
        assert cli._jsonable(np.array([True, False])) == [True, False]
        assert cli._jsonable(np.array([[0.5, np.nan]])) == [[0.5, None]]


class TestCliDeterminism:
    def test_identical_config_gives_identical_bytes(self, counts_file, capsys):
        args = [
            "normality", "--input", counts_file, "--format", "counts",
            "--measure", "mi", "--n", "1000", "--replicates", "100",
            "--seed", "13",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trace_rerun_identical(self, counts_file, capsys):
        args = [
            "trace", "--input", counts_file, "--format", "counts",
            "--measure", "entropy", "--sizes", "100:1000:100", "--seed", "5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestCliErrors:
    def test_missing_file_exits_2(self, capsys):
        code = main(["estimate", "--input", "/no/such/file.csv", "--format", "counts"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "expected 3 fields" in capsys.readouterr().err

    def test_invalid_alpha_exits_2(self, counts_file, capsys):
        code = main(
            ["test", "--input", counts_file, "--format", "counts", "--alpha", "1.5"]
        )
        assert code == 2

    def test_degenerate_alphabet_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one_row.csv"
        path.write_text("x1,y1,3\nx1,y2,7\n", encoding="utf-8")
        code = main(["test", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "degenerate alphabet" in capsys.readouterr().err

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x1,y1,9223372036854775808\nx2,y2,1\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "line 1: count must be at most" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, text, line",
        [
            ("pairs", 'x,"a\n' + "b,c\n" * 40_000, 1),
            ("pairs", "a,p\n" * 5000 + 'x,"a\n' + "b,c\n" * 40_000, 5001),
            ("pairs", '"multi\nline",p\nx,"a\n' + "b,c\n" * 40_000, 2),
            ("counts", 'x,y,"a\n' + "b,c,1\n" * 40_000, 1),
        ],
        ids=["pairs", "pairs_after_tallied_blocks", "pairs_after_multiline", "counts"],
    )
    def test_field_beyond_csv_limit_exits_2(self, tmp_path, capsys, fmt, text, line):
        """An open quote that swallows more than csv's field limit."""
        path = tmp_path / "open_quote.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["estimate", "--input", str(path), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: field larger than field limit" in err

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 64

    def test_unknown_flag_exits_64(self, counts_file):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--input", counts_file, "--format", "counts", "--bogus"])
        assert info.value.code == 64

    def test_missing_required_flag_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--format", "counts"])
        assert info.value.code == 64

    def test_bad_sizes_exit_2(self, counts_file):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "10:5:1",
            ]
        )
        assert code == 2

    def test_empty_sizes_exit_2(self, counts_file, capsys):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "",
            ]
        )
        assert code == 2
        assert "sizes must be start:stop:step, got ''" in capsys.readouterr().err
