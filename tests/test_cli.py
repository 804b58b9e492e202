"""Tests for CSV ingestion, report serialization, and the CLI commands."""

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pairinfo import EmpiricalPmf, PairShape, _reader, cli
from pairinfo._reader import _BLOCK_BYTES, _rows
from pairinfo.cli import (
    main,
    parse_counts_csv,
    parse_pairs_csv,
    parse_sizes,
    serialize_counts_csv,
)
from pairinfo.pmf import _INT64_MAX, LabeledAlphabets

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


@functools.lru_cache(maxsize=None)
def _benchmark_text(lines: int) -> str:
    """``lines`` lines shaped as the benchmark's: ``xNN,yNN`` with labels
    drawn from Dirichlet marginals over 50 and 54 symbols."""
    rng = np.random.default_rng(2024)
    x = rng.choice(50, lines, p=rng.dirichlet(np.ones(50)))
    y = rng.choice(54, lines, p=rng.dirichlet(np.ones(54)))
    cell_lines = [f"x{i:02d},y{j:02d}\n" for i in range(50) for j in range(54)]
    return "".join(cell_lines[c] for c in (54 * x + y).tolist())


def _adverse_text(lines: int) -> str:
    """``lines`` lines drawn from ``ADVERSE_LINES`` with a fixed seed."""
    picks = np.random.default_rng(7).integers(len(ADVERSE_LINES), size=lines)
    return "".join(ADVERSE_LINES[i] for i in picks)


@functools.lru_cache(maxsize=None)
def _trickle_text(seed: int, lines: int) -> str:
    """``lines`` lines of a 50x54 table whose cells have Zipf-like weights,
    so that its rare cells are first met in late chunks, two or three at
    a time.  Lines of ``ADVERSE_LINES`` are spliced into its second half,
    and for odd seeds one input of ``RECORD_WALK_INPUTS`` too."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1.0, 2701.0) ** rng.uniform(1.4, 2.4)
    cells = rng.permutation(2700)[rng.choice(2700, lines, p=weights / weights.sum())]
    text = [f"x{cell // 54:02d},y{cell % 54:02d}\n" for cell in cells.tolist()]
    late = [ADVERSE_LINES[i] for i in rng.integers(len(ADVERSE_LINES), size=8)]
    if seed % 2:
        late.append(RECORD_WALK_INPUTS[rng.integers(len(RECORD_WALK_INPUTS))])
    for line in late:
        text.insert(rng.integers(lines // 2, lines), line)
    return "".join(text)


# Counts lines of each kind the record walk must take: lines the walk reads,
# then lines it refuses.  {x} and {y} stand for the labels of a cell that
# no other line names, {dx} and {dy} for those of a cell an earlier line
# names.  A lone surrogate stands for the byte 0xff, which is not UTF-8.
COUNTS_WALK_LINES = {
    "quoted": '"{x}",{y},"3"\n',
    "quoted_comma": '"{x},q",{y},3\n',
    "quoted_newline": '"{x}\nq",{y},3\n',
    "crlf": "{x},{y},4\r\n",
    "plus": "{x},{y},+4\n",
    "spaced_count": "{x},{y}, 7 \n",
    "minus_zero": "{x},{y},-0\n",
    "19_digits": "{x},{y},1000000000000000000\n",
    "non_ascii": "{x}é,{y}𝄞,5\n",
    "nul": "{x}\x00,{y},2\n",
    "blank": "\n",
    "spaced_labels": " {x} ,\t{y} ,6\n",
    "19_digits_over": "{x},{y},9223372036854775808\n",
    "20_digits": "{x},{y},10000000000000000000\n",
    "duplicate": "{dx},{dy},1\n",
    "stripped_duplicate": " {dx},{dy} ,1\n",
    "invalid_utf8": "{x}\udcff,{y},1\n",
    "ragged": "{x},{y}\n",
}
COUNTS_REFUSED = 6  # the last kinds, which raise


@functools.lru_cache(maxsize=None)
def _counts_fuzz_text(seed: int, lines: int) -> bytes:
    """``lines`` plain counts lines, one per cell of a 40x40 table, with
    labels either side of the 63-byte window and counts of 1 to 18 digits.
    Lines of ``COUNTS_WALK_LINES`` are spliced in: the kind chosen by the
    seed, in the second half for odd seeds, and after it every kind that
    the walk reads, and for every third seed one that it refuses."""
    rng = np.random.default_rng(seed)
    pads = rng.choice([0, 40, 100, 180], size=(2, 40))
    xs = [f"x{i:02d}" + "_" * pad for i, pad in enumerate(pads[0].tolist())]
    ys = [f"y{j:02d}" + "-" * pad for j, pad in enumerate(pads[1].tolist())]
    cells = rng.permutation(1600).tolist()
    digits = rng.choice([1, 2, 3, 18], size=lines, p=[0.3, 0.4, 0.298, 0.002])
    text = [
        f"{xs[cell // 40]},{ys[cell % 40]},{rng.integers(10 ** (d - 1), 10**d)}\n"
        for cell, d in zip(cells, digits.tolist())
    ]
    kinds = list(COUNTS_WALK_LINES)
    first = kinds[seed % len(kinds)]
    later = kinds[: -COUNTS_REFUSED]
    if seed % 3 == 0:
        later.append(kinds[-COUNTS_REFUSED:][rng.integers(COUNTS_REFUSED)])
    at = int(rng.integers(lines // 2 if seed % 2 else 1, lines))
    fresh = iter(cells[lines:])
    for kind in [first, *later]:
        cell, named = next(fresh), cells[rng.integers(at)]
        line = COUNTS_WALK_LINES[kind].format(
            x=xs[cell // 40], y=ys[cell % 40], dx=xs[named // 40], dy=ys[named % 40]
        )
        text.insert(at, line)
        at = int(rng.integers(at + 1, len(text) + 1))
    return "".join(text).encode("utf-8", "surrogateescape")


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


def _counts(text, header=False):
    """Parse the UTF-8 bytes of ``text`` as counts input."""
    return parse_counts_csv(io.BytesIO(text.encode()), header)


def _walk_counts(data, header):
    """Reference: read counts bytes record by record with ``_rows``, each
    line decoded when it is read, and apply every counts rule to each."""
    lines = (
        text
        for line in io.BytesIO(data.removeprefix(b"\xef\xbb\xbf"))
        for text in io.StringIO(line.decode("utf-8"), newline="")
    )
    x_order, y_order, cells = {}, {}, {}
    for lineno, (x, y, raw) in _rows(lines, header, 3):
        x, y, raw = x.strip(), y.strip(), raw.strip()
        if not re.fullmatch("[+-]?[0-9]+", raw):
            raise ValueError(f"line {lineno}: count must be an integer, got {raw!r}")
        count = int(raw)
        if count < 0:
            raise ValueError(f"line {lineno}: count must be nonnegative, got {count}")
        if count > _INT64_MAX:
            raise ValueError(f"line {lineno}: count must be at most {_INT64_MAX}, got {count}")
        cell = (x_order.setdefault(x, len(x_order)), y_order.setdefault(y, len(y_order)))
        if cell in cells:
            raise ValueError(f"line {lineno}: duplicate cell ({x}, {y})")
        cells[cell] = count
    if not cells:
        raise ValueError("empty input: no data rows")
    counts = [0] * (len(x_order) * len(y_order))
    for (xi, yi), count in cells.items():
        counts[len(y_order) * xi + yi] = count
    if not any(counts):
        raise ValueError("all counts are zero: n = 0")
    return LabeledAlphabets(tuple(x_order), tuple(y_order)), EmpiricalPmf(
        np.array(counts, np.int64), PairShape(len(x_order), len(y_order))
    )


def _counts_outcome(parse, data, header):
    """The labels and counts read from ``data``, or the error: its type and
    message, or for invalid UTF-8 its reason and bytes, since the offset
    it names is within the bytes decoded at once."""
    try:
        alphabets, emp = parse(io.BytesIO(data), header)
    except UnicodeDecodeError as exc:
        return "UnicodeDecodeError", exc.reason, exc.object[exc.start : exc.end]
    except ValueError as exc:
        return "ValueError", str(exc)
    return alphabets.x_labels, alphabets.y_labels, emp.counts.tolist()


@functools.lru_cache(maxsize=None)
def _counts_walked(data, header):
    return _counts_outcome(lambda stream, head: _walk_counts(stream.read(), head), data, header)


def _counts_parsed(data, header):
    return _counts_outcome(parse_counts_csv, data, header)


@functools.lru_cache(maxsize=None)
def _wide_counts_text(side: int = 100) -> str:
    """A side x side counts table shaped as the benchmark's ``wide.csv``:
    every cell, zeros too, x-major, labels in shuffled order, counts of a
    multinomial draw from a flat Dirichlet."""
    rng = np.random.default_rng(11)
    counts = rng.multinomial(side**4, rng.dirichlet(np.ones(side * side)))
    xs, ys = rng.permutation(side), rng.permutation(side)
    return "".join(
        f"r{x:03d},c{y:03d},{count}\n"
        for (x, y), count in zip(((x, y) for x in xs for y in ys), counts.tolist())
    )


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
        monkeypatch.setattr(_reader, "_KNOWN_LINES", 2)
        self.test_matches_record_walk(text, layout, header)

    @pytest.mark.parametrize("known_lines", [_reader._KNOWN_LINES, 2])
    def test_late_line_keeps_first_appearance_order(self, known_lines, monkeypatch):
        """Lines first met after many chunks of repeats take the next label
        indices in the order they appear."""
        monkeypatch.setattr(_reader, "_KNOWN_LINES", known_lines)
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

        real_walk = _reader._walked_cells
        monkeypatch.setattr(_reader, "_walked_cells", walk)
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

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("a,p\n" + "a,q\nb,p\nb,q\n" * 33_333, 100_000),
            ('"a\nb",p\n' + "a,q\nb,p\nb,q\n" * 33_333, 100_000),
            (_benchmark_text(200_000), 200_000),
        ],
        ids=["tally", "record_walk", "benchmark_lines"],
    )
    def test_memory_scales_with_cells_not_rows(self, text, rows):
        """Neither the line tally, on 4-byte lines or on the benchmark's
        2700 distinct lines, nor the record walk, which a label spanning
        lines sends the parser to, keeps one entry per row."""
        stream = io.BytesIO(text.encode())
        tracemalloc.start()
        try:
            alphabets, counts = parse_pairs_csv(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == rows
        assert peak < 1_000_000


class TestTrickleFuzz:
    """A seeded differential fuzz against the record walk, on texts whose
    new lines trickle in, at chunk sizes from one line to the default."""

    @pytest.mark.parametrize("seed", range(6))
    def test_trickling_lines_match_the_record_walk(self, seed, monkeypatch):
        text = _trickle_text(seed, 24_000)
        for block_bytes in (7, 64, 1000, 65536):
            monkeypatch.setattr(_reader, "_BLOCK_BYTES", block_bytes)
            for header in (False, True):
                assert _parsed(text, header) == _walked(text, header), (block_bytes, header)


class TestCountsFuzz:
    """A seeded differential fuzz of the counts reader against the record
    walk, on plain lines among lines of every kind the walk must take.
    With ``_FIELD_LINES`` at 0, the first chunk is split in numpy too."""

    @pytest.mark.parametrize("field_lines", [0, _reader._FIELD_LINES])
    @pytest.mark.parametrize("seed", range(len(COUNTS_WALK_LINES)))
    def test_counts_match_the_record_walk(self, seed, field_lines, monkeypatch):
        data = _counts_fuzz_text(seed, 400)
        monkeypatch.setattr(_reader, "_FIELD_LINES", field_lines)
        for block_bytes in (7, 64, 1000, 65536):
            monkeypatch.setattr(_reader, "_BLOCK_BYTES", block_bytes)
            for header in (False, True):
                outcome = _counts_parsed(data, header)
                assert outcome == _counts_walked(data, header), (block_bytes, header)


class TestKnownLineTable:
    """Lines that repeat are counted through a hash table, and the hash
    only picks a slot: every count must match the record walk's."""

    @pytest.mark.parametrize("bits", [0, 1])
    @pytest.mark.parametrize(
        "text",
        [_adverse_text(3000), "abcdefgh,p\nabcdefgh,q\nabcdefgh,p\r\n" * 400]
        + [LAYOUTS["among_repeats"].format(t) for t in RECORD_WALK_INPUTS]
        + [pytest.param(_benchmark_text(200_000), id="benchmark_lines")],
    )
    def test_every_line_collides(self, text, bits, monkeypatch):
        """A table of one or two slots, so that known lines share them, over
        texts long enough that the table is searched again, some of whose
        lines share their first word, and one whose late chunks meet two to
        four new lines each."""
        monkeypatch.setattr(_reader, "_slot_bits", lambda lines: bits)
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

    @pytest.mark.parametrize("block_bytes", [7, 64, _BLOCK_BYTES, 4 * _BLOCK_BYTES])
    @pytest.mark.parametrize("layout", ["alone", "among_repeats"])
    @pytest.mark.parametrize("text", [_adverse_text(400), *RECORD_WALK_INPUTS])
    def test_small_chunks(self, text, layout, block_bytes, monkeypatch):
        """Chunks shorter than many lines, whose next read grows to hold
        the line they cut."""
        monkeypatch.setattr(_reader, "_BLOCK_BYTES", block_bytes)
        text = LAYOUTS[layout].format(text)
        for header in (False, True):
            assert _parsed(text, header) == _walked(text, header)

    @pytest.mark.parametrize(
        "text",
        [
            _benchmark_text(200_000),
            _benchmark_text(200_000)[:-1],
            _adverse_text(3 * _BLOCK_BYTES // 40),
        ],
        ids=["benchmark", "benchmark_unended", "around_the_window"],
    )
    def test_repeated_lines_are_counted_in_numpy(self, text, monkeypatch):
        """200k lines of the benchmark's shape, the last with or without
        its newline, and lines either side of the window: nothing is
        walked, and every line looked up one by one is new, or longer than
        the window."""
        known_again = []

        def looked_up(known, data, starts, lengths):
            for at, size in zip(starts.tolist(), lengths.tolist()):
                if data[at : at + size] in known.ids and size <= _reader._WINDOW:
                    known_again.append(data[at : at + size])
            return real_listed(known, data, starts, lengths)

        def walk(*args):
            raise AssertionError("the record walk was not expected")

        real_listed = _reader._listed_ids
        monkeypatch.setattr(_reader, "_listed_ids", looked_up)
        monkeypatch.setattr(_reader, "_walked_cells", walk)
        outcome = _parsed(text)
        monkeypatch.undo()
        assert outcome == _walked(text, False)
        assert known_again == []


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

    @pytest.mark.parametrize("block_bytes", [7, 64, 1000, _BLOCK_BYTES])
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ({10: b"a,p,q\n", 2910: b"\xff,p\n"}, ValueError, "line 11: expected 2 fields"),
            ({10: b"\xff,p\n", 2910: b"a,p,q\n"}, UnicodeDecodeError, "byte 0xff"),
            ({10: b'a,"p\n', 11: b'\xff",q\n', 2910: b"a,p,q\n"}, UnicodeDecodeError, "byte 0xff"),
            ({10: b"b,q\n", 11: b"\xe2\x82,q\n", 12: b"a,p,q\n"}, UnicodeDecodeError, "invalid continuation"),
        ],
        ids=["ragged_first", "invalid_first", "invalid_in_open_quote", "invalid_then_ragged"],
    )
    def test_first_bad_line_decides_the_error(self, bad, error, message, block_bytes, monkeypatch):
        """A ragged row and invalid UTF-8, in one chunk or in two: the
        one met first in the file is reported, whatever the chunk size."""
        monkeypatch.setattr(_reader, "_BLOCK_BYTES", block_bytes)
        lines = [b"a,p\n"] * 3000
        for at, line in bad.items():
            lines[at] = line
        with pytest.raises(ValueError, match=message) as raised:
            parse_pairs_csv(io.BytesIO(b"".join(lines)))
        assert type(raised.value) is error

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
            ("x1,y1,2\n" + '"x2",y1,3\n', "walking records from line 1: a line is not a plain cell"),
            (
                "".join(f"x{i:06d},y,1\n" for i in range(_BLOCK_BYTES // 12 + 10)) + "x,y,+1\n",
                f"walking records from line {_BLOCK_BYTES // 12 + 1}: a line is not a plain cell",
            ),
            ("x1,y1,2\nx1, y1,3\n", "walking records from line 1: a cell is repeated"),
            ("x1,y1,2\nx2,y1,0\n", None),
        ],
        ids=["quoted", "second_chunk", "repeated", "plain"],
    )
    def test_counts_walk_is_logged(self, caplog, monkeypatch, text, message):
        monkeypatch.setattr(_reader, "_FIELD_LINES", 0)
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            try:
                _counts(text)
            except ValueError:
                pass
        assert caplog.messages == ([message] if message else [])

    def test_counts_chunk_that_does_not_decode_is_logged(self, caplog, monkeypatch):
        monkeypatch.setattr(_reader, "_FIELD_LINES", 0)
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            with pytest.raises(UnicodeDecodeError):
                parse_counts_csv(io.BytesIO(b"x1,y1,2\nx\xff,y1,3\n"))
        assert caplog.messages == ["walking records from line 1: a line is not a plain cell"]

    def test_short_counts_file_is_walked_unlogged(self, caplog, monkeypatch):
        """A first chunk of under ``_FIELD_LINES`` lines costs less to walk
        than to split: it is walked, and nothing is logged."""

        def split(*args):
            raise AssertionError("the short file was not expected to be split")

        monkeypatch.setattr(_reader, "plain_cells", split)
        text = "".join(f"x{i},y,1\n" for i in range(_reader._FIELD_LINES - 1))
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            alphabets, _ = _counts(text)
        assert len(alphabets.x_labels) == _reader._FIELD_LINES - 1
        assert caplog.messages == []

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
        alphabets, emp = _counts(DEMO_COUNTS_CSV)
        assert alphabets.x_labels == ("x1", "x2")
        np.testing.assert_array_equal(emp.counts, [2, 4, 1, 3])
        assert emp.n == 10

    def test_missing_cell_counts_zero(self):
        text = "x1,y1,2\nx1,y2,4\nx2,y2,3\n"
        _, emp = _counts(text)
        np.testing.assert_array_equal(emp.counts, [2, 4, 0, 3])

    def test_duplicate_cell(self):
        text = "x1,y1,2\nx1,y1,3\n"
        with pytest.raises(ValueError, match=r"line 2: duplicate cell \(x1, y1\)"):
            _counts(text)

    def test_count_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError, match="line 1: count"):
            _counts("x1,y1,2.5\n")
        with pytest.raises(ValueError, match="nonnegative"):
            _counts("x1,y1,-2\n")

    @pytest.mark.parametrize("raw", ["1_0", "٣", "１２"])
    def test_count_must_be_ascii_digits(self, raw):
        """Python's int() reads these as 10, 3 and 12; a count may not."""
        with pytest.raises(
            ValueError, match=f"line 2: count must be an integer, got {raw!r}"
        ):
            _counts(f"x1,y1,1\nx1,y2,{raw}\n")

    @pytest.mark.parametrize("raw, count", [("+4", 4), (" 7 ", 7)])
    def test_count_sign_and_spaces(self, raw, count):
        _, emp = _counts(f"x1,y1,1\nx1,y2,{raw}\n")
        np.testing.assert_array_equal(emp.counts, [1, count])

    def test_all_zero_counts(self):
        with pytest.raises(ValueError, match="zero"):
            _counts("x1,y1,0\nx1,y2,0\n")

    def test_field_count(self):
        with pytest.raises(ValueError, match="line 1: expected 3 fields"):
            _counts("x1,y1\n")

    @pytest.mark.parametrize(
        "data, header",
        [(b"", False), (b"x,y,count\n", True), (b"\n\r\n\n", False)],
        ids=["empty_file", "header_only", "blank_lines_only"],
    )
    def test_input_without_data_rows(self, data, header):
        with pytest.raises(ValueError, match="empty input"):
            parse_counts_csv(io.BytesIO(data), header)

    def test_counts_beyond_int64(self):
        text = "x1,y1,1\nx1,y2,9223372036854775808\n"
        with pytest.raises(ValueError, match="line 2: count must be at most"):
            _counts(text)
        # Every count fits, but their total wraps around in int64.
        text = "".join(f"x{i},y{j},{2**62 + 1}\n" for i in (1, 2) for j in (1, 2))
        with pytest.raises(ValueError, match="int64"):
            _counts(text)


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("ended", [True, False])
def test_plain_counts_are_read_in_numpy(header, ended, monkeypatch):
    """A 100x100 table shaped as the benchmark's ``wide.csv``, with or
    without a header and a newline after its last line, is read without
    the record walk."""
    text = ("x,y,count\n" if header else "") + _wide_counts_text()
    data = (text if ended else text[:-1]).encode()
    expected = _counts_walked(data, header)
    assert len(expected[0]) == len(expected[1]) == 100

    def walk(*args):
        raise AssertionError("the record walk was not expected")

    monkeypatch.setattr(_reader, "_rows", walk)
    assert _counts_parsed(data, header) == expected


class TestCountsReading:
    """Counts input is read as bytes, chunk by chunk, and walked record by
    record."""

    @pytest.mark.parametrize("block_bytes", [7, 64, 1000, _BLOCK_BYTES])
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ({10: b"a,p\n", 100: b"\xff,p,1\n"}, ValueError, "line 11: expected 3 fields"),
            ({10: b"a,p\n", 2900: b"\xff,p,1\n"}, ValueError, "line 11: expected 3 fields"),
            ({10: b"x2,y,5\n", 100: b"\xff,p,1\n"}, ValueError, r"line 11: duplicate cell \(x2, y\)"),
            ({10: b"a,p,x\n", 100: b"\xff,p,1\n"}, ValueError, "line 11: count must be an integer"),
            ({10: b"\xff,p,1\n", 2910: b"a,p\n"}, UnicodeDecodeError, "byte 0xff"),
            ({10: b'a,"p\n', 11: b'\xff",q,1\n', 2910: b"a,p\n"}, UnicodeDecodeError, "byte 0xff"),
            ({10: b"b,q,1\n", 11: b"\xe2\x82,q,1\n", 12: b"a,p\n"}, UnicodeDecodeError, "invalid continuation"),
        ],
        ids=["ragged_first", "ragged_far_first", "duplicate_first", "count_first",
             "invalid_first", "invalid_in_open_quote", "invalid_then_ragged"],
    )
    def test_first_bad_line_decides_the_error(self, bad, error, message, block_bytes, monkeypatch):
        """The counts twin of the pairs test: whatever the chunk size, the
        bad line met first in the file is reported."""
        monkeypatch.setattr(_reader, "_BLOCK_BYTES", block_bytes)
        lines = [f"x{i},y,1\n".encode() for i in range(3000)]
        for at, line in bad.items():
            lines[at] = line
        with pytest.raises(ValueError, match=message) as raised:
            parse_counts_csv(io.BytesIO(b"".join(lines)))
        assert type(raised.value) is error

    @pytest.mark.parametrize("parse", [parse_pairs_csv, parse_counts_csv])
    def test_text_stream_is_refused(self, parse):
        with pytest.raises(TypeError, match="binary stream"):
            parse(io.StringIO("a,p,1\n"))

    def test_byte_order_mark_only_at_start(self):
        alphabets, _ = _counts("\ufeffa,p,1\n\ufeffb,q,2\n")
        assert alphabets.x_labels == ("a", "\ufeffb")

    def test_long_labels_that_share_the_window(self, monkeypatch):
        """Labels past the 63-byte window whose first 64 bytes agree are
        still told apart where one follows another."""
        monkeypatch.setattr(_reader, "_FIELD_LINES", 0)
        data = "".join(f"{'a' * 70}{i},{'p' * 70}{i % 2},1\n" for i in range(300)).encode()
        outcome = _counts_parsed(data, False)
        assert (len(outcome[0]), len(outcome[1])) == (300, 2)
        assert outcome == _counts_walked(data, False)

    @pytest.mark.parametrize("header", [False, True])
    def test_label_beyond_csv_limit(self, header, monkeypatch):
        """A line of two commas and digits, but longer than csv's field
        limit, is walked, and its record fails as csv fails it."""
        monkeypatch.setattr(_reader, "_FIELD_LINES", 0)
        data = ("a,p,1\nb,p,1\nc,p,1\n" + "x" * (csv.field_size_limit() + 1) + ",p,1\n").encode()
        outcome = _counts_parsed(data, header)
        assert outcome == ("ValueError", "line 4: field larger than field limit (131072)")
        assert outcome == _counts_walked(data, header)


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
            alphabets2, emp2 = _counts(text)
            assert alphabets2.x_labels == alphabets.x_labels
            assert alphabets2.y_labels == alphabets.y_labels
            assert emp2 == emp

    def test_labels_with_commas_survive(self):
        emp = EmpiricalPmf(np.array([3, 4]), PairShape(1, 2))
        alphabets = LabeledAlphabets(("a,b",), ("p", "q r"))
        text = serialize_counts_csv(alphabets, emp)
        alphabets2, emp2 = _counts(text)
        assert alphabets2.x_labels == ("a,b",)
        assert emp2 == emp

    # The reader would read " b" as "b", fail on " a" as a duplicate of
    # "a", and drop a first label's U+FEFF as a byte order mark.
    @pytest.mark.parametrize(
        "x_labels, y_labels, label",
        [
            (("a", " b"), ("p",), " b"),
            (("a", " a"), ("p",), " a"),
            (("a", "b"), ("p\t",), "p\t"),
            (("\ufeffa", "b"), ("p",), "\ufeffa"),
        ],
        ids=["stripped", "duplicate_once_stripped", "stripped_y", "byte_order_mark"],
    )
    def test_labels_the_reader_changes_are_refused(self, x_labels, y_labels, label):
        alphabets = LabeledAlphabets(x_labels, y_labels)
        emp = EmpiricalPmf(np.ones(alphabets.shape.size, np.int64), alphabets.shape)
        with pytest.raises(ValueError) as info:
            serialize_counts_csv(alphabets, emp)
        assert repr(label) in str(info.value)

    # The writer quotes a field for "\n" but would not for a bare "\r".
    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "a\nb"], ids=["cr", "crlf", "lf"])
    def test_line_breaks_in_labels_survive(self, label):
        emp = EmpiricalPmf(np.array([1, 2, 0, 3]), PairShape(2, 2))
        alphabets = LabeledAlphabets((label, "c"), ("p", label))
        alphabets2, emp2 = _counts(serialize_counts_csv(alphabets, emp))
        assert (alphabets2.x_labels, alphabets2.y_labels) == ((label, "c"), ("p", label))
        assert emp2 == emp

    def test_labels_without_carriage_returns_are_quoted_only_as_needed(self):
        emp = EmpiricalPmf(np.array([3, 4]), PairShape(1, 2))
        alphabets = LabeledAlphabets(("a,b",), ("p", "q\nr"))
        assert serialize_counts_csv(alphabets, emp) == '"a,b",p,3\n"a,b","q\nr",4\n'

    def test_byte_order_mark_past_the_first_label_survives(self):
        emp = EmpiricalPmf(np.array([1, 2, 3, 4]), PairShape(2, 2))
        alphabets = LabeledAlphabets(("a", "\ufeffb"), ("\ufeffp", "q"))
        alphabets2, emp2 = _counts(serialize_counts_csv(alphabets, emp))
        assert (alphabets2.x_labels, alphabets2.y_labels) == (("a", "\ufeffb"), ("\ufeffp", "q"))
        assert emp2 == emp

    # A 3x2 table under 2x3 alphabets would write count 3 twice and lose 6;
    # a 2x2 one would index past the table.
    @pytest.mark.parametrize(
        "counts, shape", [([1, 2, 3, 4, 5, 6], PairShape(3, 2)), ([1, 2, 3, 4], PairShape(2, 2))]
    )
    def test_table_of_another_shape_is_refused(self, counts, shape):
        alphabets = LabeledAlphabets(("a", "b"), ("p", "q", "r"))
        emp = EmpiricalPmf(counts, shape)
        message = f"table shape {shape.rows}x{shape.cols} does not match the 2x3 alphabets"
        with pytest.raises(ValueError, match=message):
            serialize_counts_csv(alphabets, emp)


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

    @pytest.mark.parametrize("measure", ["entropy", "mi"])
    def test_normality_warns_of_bias_beyond_the_standard_error(
        self, tmp_path, capsys, caplog, measure
    ):
        """A Dirichlet 30x30 table at n = 1000: the plug-in bias is many
        standard errors, below the truth for H and above it for MI, and
        the mean of the t values shows it."""
        rng = np.random.default_rng(3)
        counts = rng.multinomial(10**5, rng.dirichlet(np.ones(900)))
        path = tmp_path / "wide.csv"
        path.write_text(
            "".join(f"x{i // 30},y{i % 30},{c}\n" for i, c in enumerate(counts)), encoding="utf-8"
        )
        argv = ["normality", "--input", str(path), "--format", "counts",
                "--measure", measure, "--n", "1000", "--replicates", "100"]
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            assert main(argv) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: plug-in {measure} bias at the true p.m.f. is ")
        ratio = float(warnings[0].split(" is ")[1].split()[0])
        mean = json.loads(capsys.readouterr().out)["results"]["normality"]["mean"]
        assert abs(ratio) > 10 and abs(mean / ratio - 1) < 0.2, (ratio, mean)

    def test_normality_without_bias_warning(self, counts_file, caplog):
        argv = ["normality", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--n", "20000", "--replicates", "100"]
        with caplog.at_level(logging.INFO, logger="pairinfo"):
            assert main(argv) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

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


def _jsonable(obj):
    """Reference: the rule reports were first written by, as plain JSON
    types for ``json.dumps``, with floats rounded to 9 significant digits
    and non-finite floats as ``None``."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return float(format(value, ".9g")) if np.isfinite(value) else None
    return obj


def _spellings(obj):
    """The writer's three JSON spellings of ``obj``: an indented report, a
    compact comment object and a comment array with default separators."""
    return [
        cli._json(obj, ",", ": ", "  ", "\n"),
        cli._json(obj, ",", ":"),
        cli._json(obj),
    ]


def _reference_spellings(obj):
    plain = _jsonable(obj)
    return [
        json.dumps(plain, indent=2),
        json.dumps(plain, separators=(",", ":")),
        json.dumps(plain),
    ]


def _awkward_floats() -> np.ndarray:
    """Floats where the repr of the rounded value and its ``.9g`` text
    differ, or nearly do."""
    rng = np.random.default_rng(16)
    big = rng.uniform(8, 17, 400)
    big = 10.0 ** big * rng.choice([-1, 1], 400)
    big[::7] = np.round(big[::7])
    subnormal = rng.integers(1, 1 << 52, 50).view(np.float64)
    return np.concatenate([
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny,
         2.0, -2.0, 1.0, 3e8, 999999999.7, 999999999.4, 1e9, 123456789.5, 1e16, 1e17,
         2.0000000001, 0.99999999999, 1e-5, 9.99999999999e-5, 1 / 3, 1.7976931348623157e308],
        big, subnormal, -subnormal, rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, 200),
    ])


class TestReportWriter:
    """One writer spells reports as ``json.dumps`` of the old plain-JSON
    rule did, and CSV cells as ``format(v, ".9g")``, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_array_matches_elementwise_rule(self, dtype):
        info = np.finfo(dtype)
        scale = np.logspace(info.minexp * 0.3, info.maxexp * 0.3, 500, dtype=dtype)
        values = np.random.default_rng(0).normal(size=500).astype(dtype) * scale
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, info.smallest_subnormal, info.max,
                   1 / 3, 123456789.5]
        arr = np.concatenate([values, np.array(special, dtype=dtype)])
        assert _spellings(arr) == _reference_spellings(arr)
        # Numpy scalars, one at a time, are spelled as the array spells them.
        assert cli._json(arr) == "[" + ", ".join(cli._json(v) for v in arr) + "]"
        assert cli._json(arr[-9:-6]) == "[null, null, null]"

    def test_awkward_floats(self):
        arr = _awkward_floats()
        assert _spellings(arr) == _reference_spellings(arr)
        assert _spellings(list(arr)) == _reference_spellings(list(arr))
        assert [cli._json(float(v)) for v in arr] == [json.dumps(_jsonable(v)) for v in arr]
        assert cli._json(np.array([5e-324, 2.0, -0.0, 1234567890.0])) == (
            "[5e-324, 2.0, -0.0, 1234567890.0]"
        )

    def test_csv_cells_keep_the_9g_text(self):
        arr = _awkward_floats()
        assert cli._spelled(arr) == [format(v, ".9g") for v in arr]
        assert cli._spelled(np.array([5e-324, 2.0, -0.0, 1234567890.0, np.nan])) == [
            "4.94065646e-324", "2", "-0", "1.23456789e+09", "nan",
        ]

    def test_other_arrays_keep_their_types(self):
        assert cli._json(np.array([3, 4])) == "[3, 4]"
        assert cli._json(np.array([True, False])) == "[true, false]"
        assert cli._json(np.array([[0.5, np.nan]])) == "[[0.5, null]]"

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            np.array([]),
            np.zeros((0, 2)),
            {"a": {}, "b": [], "c": np.array([], np.float32)},
            [True, False, np.bool_(True), None, np.int64(-7), np.uint8(200), 2**70],
            {"x": ["é", "€", "𝄞", "a\"b\\c", "tab\tnew\nline", "\x00"], "y": []},
            {"labels": [f"r{i:03d}" for i in range(200)], "mixed": ["a", 1, 1.5]},
            {"tuple": ("a", "", " b "), "array": np.array(["r1", "é"]), "empty": [""]},
            {"nested": [[1.0, 2.5], (np.float32(0.1), np.float64(1e9))], "n": 3},
            np.array([[1.5, np.inf], [-0.0, 1e12]]),
            {"s": "ü", "f": 100000000.0, "g": 1e16, "h": 1234567890.0},
        ],
    )
    def test_containers_and_scalars(self, obj):
        assert _spellings(obj) == _reference_spellings(obj)

    def test_non_ascii_labels_are_escaped(self):
        assert cli._json(["é", "𝄞"]) == json.dumps(["é", "𝄞"]) == '["\\u00e9", "\\ud834\\udd1e"]'

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="set"):
            cli._json({"a": {1, 2}})

    @pytest.mark.parametrize(
        "columns",
        [
            {"index": range(1, 4), "value": np.array([0.5, np.nan, -0.0])},
            {"size": [10, 20], "estimate": np.array([1234567890.0, 5e-324]),
             "ratio": np.array([np.inf, 2.0])},
        ],
    )
    def test_csv_report_matches_cell_by_cell_rule(self, columns):
        config = cli.RunConfig("trace", "in.csv", "counts", sizes=[10, 20], alpha=1e-10)
        comments = ["# summary: " + cli._json({"a": 1.5, "b": None}, ",", ":")]
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(_jsonable(dataclasses.asdict(config)),
                                            separators=(",", ":")) + "\n")
        buf.write('# summary: {"a":1.5,"b":null}\n')
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for first, *rest in zip(*columns.values()):
            writer.writerow([int(first), *(format(v, ".9g") for v in rest)])
        assert cli._csv_report(config, comments, columns) == buf.getvalue()


# The README example table, and the sha256 of each report the README's
# commands write from it, pinned before the report writer was replaced.
README_TABLE = "x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n"
README_TRACE = ["trace", "--measure", "mi", "--sizes", "1000:30000:1000", "--seed", "1"]
README_NORMALITY = [
    "normality", "--measure", "entropy", "--n", "20000", "--replicates", "2000", "--seed", "42",
]
README_REPORTS = {
    "estimate": (
        ["estimate"],
        "66ecc97a74001a315e2289d2d863af7a80bd8ab019e5230ba54158f4ea04b231",
    ),
    "test": (
        ["test", "--alpha", "0.05"],
        "de46df091b3079485d745375b32c21495a03f36aec2af1ac4b3595eccd56ba1f",
    ),
    "trace_csv": (
        README_TRACE,
        "3fa8e61c2432934c1b04349732717a34afa3495fd64338e5b3bf490a4da25c8d",
    ),
    "trace_json": (
        README_TRACE + ["--output-format", "json"],
        "06500d73aec3febc070473fb44a8919cc88259014d2fc439ece564319e74a229",
    ),
    "normality_json": (
        README_NORMALITY,
        "4b1639fe0c756ce5ffd3af872cc844ae932d573b89048b4c645e81e6db9c68b8",
    ),
    "normality_csv": (
        README_NORMALITY + ["--output-format", "csv"],
        "a91ea0733123b94a010b7f7a3bd3e7bd59645ab9466c1675e96dcf1787edd85f",
    ),
    "power": (
        ["power", "--n", "30000", "--replicates", "500", "--seed", "42"],
        "a129e0283d1ce617a55f3f63cb69ebd0a9803da9944f4e780bcbd099ec5da7a9",
    ),
}


@pytest.mark.parametrize("args, digest", README_REPORTS.values(), ids=README_REPORTS)
def test_readme_reports_keep_their_bytes(tmp_path, monkeypatch, capsys, args, digest):
    """Written to standard output from the working directory, so that
    ``config.input`` is the relative path ``t3.csv``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t3.csv").write_text(README_TABLE, encoding="utf-8")
    assert main(args + ["--input", "t3.csv", "--format", "counts"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


README_ESTIMATE = ["estimate", "--input", "t3.csv", "--format", "counts"]


def test_main_reads_the_process_arguments(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t3.csv").write_text(README_TABLE, encoding="utf-8")
    assert main(README_ESTIMATE) == 0
    given = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["pairinfo", *README_ESTIMATE])
    assert main() == 0
    assert capsys.readouterr().out == given


def test_module_entry_point_writes_the_readme_report(tmp_path):
    (tmp_path / "t3.csv").write_text(README_TABLE, encoding="utf-8")
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "pairinfo", *README_ESTIMATE],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == README_REPORTS["estimate"][1]


# A 30x30 table of positive counts that is not a product table: its 900
# cells, past montecarlo._POOL_MIN_CELLS, send the studies' blocks to the
# thread pool on a host with two or more CPUs, and its MI kernel is the
# shaped partial of a wide table.  The bytes do not depend on the number of
# CPUs, so the digests, taken at commit 676d496 before the studies' three
# measure lookups became one, hold on any host.
POOLED_TABLE = "".join(
    f"x{i},y{j},{1 + (7 * i + 13 * j) % 50}\n" for i in range(30) for j in range(30)
)
POOLED_REPORTS = {
    "normality": (
        ["normality", "--measure", "mi", "--n", "20000", "--replicates", "200", "--seed", "3"],
        "0a428b61e397152243bc2a0962e2bf320da1549dec86b5428def8fff12cd78c9",
    ),
    "power": (
        ["power", "--n", "20000", "--replicates", "200", "--seed", "3"],
        "580c7f533aba38d615d42c873e0e1ec36b072844a724178cafa1b384f2f888f9",
    ),
}


@pytest.mark.parametrize("args, digest", POOLED_REPORTS.values(), ids=POOLED_REPORTS)
def test_pooled_reports_keep_their_bytes(tmp_path, monkeypatch, capsys, args, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.csv").write_text(POOLED_TABLE, encoding="utf-8")
    assert main(args + ["--input", "wide.csv", "--format", "counts"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Pairs input: the benchmark-shaped table on the table path, with and
# without a header row, and after a quoted label that spans two lines,
# which sends the reader to the record walk.  Digests taken at commit
# 1d9fffc, before every report was written from one tail of cli.run.
WALK_HEAD = '"multi\nline",p\n'
PAIRS_REPORTS = {
    "estimate_table": (
        "", ["estimate"],
        "a638563ae000ee38b5142961dc65266c3e3c63146d207e3a011329bd0086bdad",
    ),
    "test_table": (
        "", ["test", "--alpha", "0.05"],
        "b11c2fc9ececb8fe3cb94ddb09461979ad7df1298f320f500ded1b559d91090e",
    ),
    "estimate_table_header": (
        "", ["estimate", "--header"],
        "52a16b06cfbe1bfd665213eeddb0873fc59bab0e426f86b97922d825f18cf8e2",
    ),
    "test_table_header": (
        "", ["test", "--alpha", "0.05", "--header"],
        "ad1f1b2c62a178ef1f6b1bc49b3a351af602b20d8c5fc4333db71c91f15ed739",
    ),
    "estimate_walk": (
        WALK_HEAD, ["estimate"],
        "2d25334fb826de9df51d7d6d559c66003deddb21720f379c1e4b6f42e0b6f9cc",
    ),
    "test_walk": (
        WALK_HEAD, ["test", "--alpha", "0.05"],
        "21f66ee9b46c5442b7df2bf416ed4bca3889a6f1c1810a2ca54a38da89668e49",
    ),
}


@pytest.mark.parametrize("head, args, digest", PAIRS_REPORTS.values(), ids=PAIRS_REPORTS)
def test_pairs_reports_keep_their_bytes(
    tmp_path, monkeypatch, capsys, caplog, head, args, digest
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.csv").write_bytes((head + _benchmark_text(200_000)).encode())
    caplog.set_level(logging.INFO, logger="pairinfo")
    assert main(args + ["--input", "pairs.csv", "--format", "pairs"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert any("walking records" in line for line in caplog.messages) == bool(head)


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

    def test_header_only_exits_2(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("x,y,count\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "counts", "--header"])
        assert code == 2
        assert "empty input" in capsys.readouterr().err

    def test_invalid_alpha_exits_2(self, counts_file, capsys):
        code = main(
            ["test", "--input", counts_file, "--format", "counts", "--alpha", "1.5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args, bound",
        [
            (["estimate"], "2**-53, below which 1 - alpha/2"),
            (["test"], "2**-54, below which 1 - alpha"),
            (["power", "--n", "100", "--replicates", "10"], "2**-54, below which 1 - alpha"),
        ],
        ids=["estimate", "test", "power"],
    )
    def test_alpha_too_small_to_use_exits_2(self, counts_file, capsys, args, bound):
        """An alpha whose 1 - alpha/2 or 1 - alpha rounds to 1 is blamed,
        not the quantile level it leads to."""
        argv = [*args, "--input", counts_file, "--format", "counts", "--alpha", "1e-17"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"alpha must exceed {bound} rounds to 1, got 1e-17" in err
        assert "quantile level" not in err

    @pytest.mark.parametrize(
        "args, size",
        [
            (["normality", "--measure", "mi", "--replicates", "100",
              "--n", "9223372036854775808"], 9223372036854775808),
            (["power", "--replicates", "10", "--n", "99999999999999999999"],
             99999999999999999999),
            (["trace", "--measure", "mi",
              "--sizes", "1:99999999999999999999:99999999999999999998"], 99999999999999999999),
        ],
        ids=["normality", "power", "trace"],
    )
    def test_sample_size_beyond_int64_exits_2(self, counts_file, capsys, args, size):
        assert main([*args, "--input", counts_file, "--format", "counts"]) == 2
        err = capsys.readouterr().err
        assert f"sample size must be at most 9223372036854775807, got {size}" in err
        assert "Traceback" not in err

    def test_degenerate_alphabet_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one_row.csv"
        path.write_text("x1,y1,3\nx1,y2,7\n", encoding="utf-8")
        code = main(["test", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "degenerate alphabet" in capsys.readouterr().err

    def test_product_table_normality_exits_2(self, tmp_path, capsys):
        """Counts 6, 9, 14, 21 are 50 times outer([0.3, 0.7], [0.4, 0.6]),
        whose MI variance is a rounding residue."""
        path = tmp_path / "product.csv"
        path.write_text("x1,y1,6\nx1,y2,9\nx2,y1,14\nx2,y2,21\n", encoding="utf-8")
        argv = ["--input", str(path), "--format", "counts", "--measure", "mi"]
        code = main(["normality", *argv, "--n", "2000", "--replicates", "200"])
        assert code == 2
        assert "degenerate CLT" in capsys.readouterr().err

    # None allocates: the first two fail past sys.maxsize, and the third
    # when numpy's broadcast_to refuses at once a view of 2**62 sizes.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["power", "--n", "1000", "--replicates", "100000000000000000000"],
             "replicates must be at most 9223372036854775807, got 100000000000000000000"),
            (["trace", "--measure", "mi", "--sizes", "1:100000000000000000000:1"],
             "sizes grid must have at most 9223372036854775807 entries, "
             "got 100000000000000000000"),
            (["power", "--n", "1000", "--replicates", "4611686018427387904"],
             "out of memory"),
        ],
        ids=["replicates", "sizes_grid", "memory"],
    )
    def test_oversized_counts_exit_2(self, tmp_path, monkeypatch, capsys, args, message):
        if sys.maxsize != 2**63 - 1:
            pytest.skip("the bounds are those of a 64-bit build")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t3.csv").write_text(README_TABLE, encoding="utf-8")
        assert main([*args, "--input", "t3.csv", "--format", "counts"]) == 2
        err = capsys.readouterr().err
        assert f"pairinfo: error: {message}\n" in err
        assert "Traceback" not in err

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


# The names of cli that perfbench/tracing.py rebinds and cli calls.  Each
# must be looked up in cli's globals at call time, or its traced metrics
# read 0.
CLI_LAYERS = (
    "run", "parse_pairs_csv", "parse_counts_csv", "estimate_report",
    "independence_test", "convergence_trace", "normality_study", "rejection_rate",
)
PAIRS_TABLE = "x1,y1\nx1,y2\nx2,y1\nx1,y2\nx2,y2\n"


@pytest.mark.parametrize(
    "args, fmt, called",
    [
        (["estimate"], "counts", {"parse_counts_csv": 1, "estimate_report": 2}),
        (["estimate"], "pairs", {"parse_pairs_csv": 1, "estimate_report": 2}),
        (["test"], "counts", {"parse_counts_csv": 1, "independence_test": 1}),
        (
            ["trace", "--measure", "mi", "--sizes", "100:300:100"],
            "counts", {"parse_counts_csv": 1, "convergence_trace": 1},
        ),
        (
            ["normality", "--measure", "entropy", "--n", "1000", "--replicates", "100"],
            "counts", {"parse_counts_csv": 1, "normality_study": 1},
        ),
        (
            ["power", "--n", "200", "--replicates", "20"],
            "pairs", {"parse_pairs_csv": 1, "rejection_rate": 1},
        ),
    ],
    ids=["estimate", "estimate_pairs", "test", "trace", "normality", "power"],
)
def test_each_layer_is_called_through_the_cli_globals(
    tmp_path, monkeypatch, capsys, args, fmt, called
):
    calls = dict.fromkeys(CLI_LAYERS, 0)

    def counting(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    for name in CLI_LAYERS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    path = tmp_path / "in.csv"
    path.write_text(README_TABLE if fmt == "counts" else PAIRS_TABLE, encoding="utf-8")
    assert main(args + ["--input", str(path), "--format", fmt]) == 0
    assert calls == {**dict.fromkeys(CLI_LAYERS, 0), "run": 1, **called}


class TestRunLibrary:
    def test_unknown_command_raises_and_writes_nothing(self, counts_file, tmp_path):
        out = tmp_path / "out.json"
        config = cli.RunConfig("bogus", counts_file, "counts", output=str(out))
        with pytest.raises(ValueError, match="^unknown command 'bogus'$"):
            cli.run(config)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("estimate", {}), ("test", {}), ("power", {"n": 500, "replicates": 20})],
    )
    def test_csv_format_of_a_json_command_writes_json(
        self, counts_file, tmp_path, command, extra
    ):
        results = {}
        for output_format in ("json", "csv"):
            out = tmp_path / f"{output_format}.out"
            config = cli.RunConfig(
                command, counts_file, "counts", output=str(out),
                output_format=output_format, **extra,
            )
            assert cli.run(config) == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["config"]["output_format"] == output_format
            results[output_format] = report["results"]
        assert results["csv"] == results["json"]


# Each command's required flags; the input file need not exist, since every
# argv below fails, or asks for help, before it is read.
REQUIRED_FLAGS = {
    "estimate": [],
    "test": [],
    "trace": ["--measure", "mi", "--sizes", "1:3:1"],
    "normality": ["--measure", "mi", "--n", "10", "--replicates", "5"],
    "power": ["--n", "10", "--replicates", "5"],
}
COMPLETE = {
    name: [name, "--input", "t3.csv", "--format", "counts", *flags]
    for name, flags in REQUIRED_FLAGS.items()
}
USAGE_ARGVS = {
    "help": ["-h"],
    **{f"{name}_help": [name, "-h"] for name in REQUIRED_FLAGS},
    "none": [],
    "dashes": ["--"],
    "unknown_command": ["frobnicate"],
    **{f"{name}_unknown_flag": [*argv, "--bogus"] for name, argv in COMPLETE.items()},
    "estimate_seed": [*COMPLETE["estimate"], "--seed", "3"],
    "trace_stray_positional": [*COMPLETE["trace"], "extra"],
    "missing_input": ["estimate", "--format", "counts"],
    "unknown_measure": [*COMPLETE["trace"], "--measure", "kl"],
    "bad_n": [*COMPLETE["normality"], "--n", "x"],
    "bad_alpha": [*COMPLETE["power"], "--alpha", "x"],
}


def _exit(call, argv, capsys):
    """The exit code, standard output and standard error of ``call(argv)``,
    which must exit."""
    with pytest.raises(SystemExit) as info:
        call(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


class TestParser:
    @pytest.mark.parametrize("argv", USAGE_ARGVS.values(), ids=USAGE_ARGVS)
    def test_usage_text_is_the_full_parsers(self, capsys, argv):
        """Compared in one interpreter, so that it holds under any Python
        version's argparse wording."""
        full = _exit(cli.build_parser().parse_args, argv, capsys)
        assert _exit(main, argv, capsys) == full
        assert full[0] in (0, 64)

    @pytest.mark.parametrize(
        "argv, message",
        [([], "required: command\n"), (["frobnicate"], "argument command: invalid choice")],
        ids=["no_command", "unknown_command"],
    )
    def test_errors_name_the_command_argument(self, capsys, argv, message):
        """Where no command is named, errors call it ``command``, not by the
        metavar that lists every command in the usage line."""
        assert message in _exit(main, argv, capsys)[2]

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["trace", "-h"], ["trace"]),
            ([*COMPLETE["power"], "--bogus"], ["power"]),
            (["frobnicate"], list(REQUIRED_FLAGS)),
            (["-h"], list(REQUIRED_FLAGS)),
        ],
        ids=["help", "unknown_flag", "unknown_command", "top_help"],
    )
    def test_a_command_builds_only_its_parser(self, capsys, monkeypatch, argv, built):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(action, name, **kwargs):
            added.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        _exit(main, argv, capsys)
        assert added == built

    def test_no_flag_spec_but_traces_output_format_sets_a_default(self):
        """An omitted flag stays out of the namespace and takes its
        ``RunConfig`` default, so each default is written once."""
        specs = {**{(None, flag): spec for flag, spec in cli._FLAGS.items()}, **cli._CHANGES}
        assert [key for key, spec in specs.items() if "default" in spec] == [
            ("trace", "--output-format")
        ]
