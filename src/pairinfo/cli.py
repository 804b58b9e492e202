"""Command-line surface: ingest CSV data, estimate, test, run studies.

Subcommands
-----------
estimate    joint entropy and mutual information with confidence intervals
test        likelihood-ratio independence test
trace       convergence trace over growing sample sizes (plot-ready rows)
normality   standardized-estimate distribution vs the standard normal
power       rejection rate of the test under the ingested distribution

Input is CSV in one of two layouts: ``pairs`` (one observation per row,
two label columns) or ``counts`` (one cell per row: x label, y label,
count).  Labels are enumerated in first-appearance order, never sorted.
Study commands treat the ingested table's relative frequencies as the true
distribution to simulate from.

Reports go to ``--output`` (default ``-`` = standard output) as JSON with
a fixed key order and floats rounded to 9 significant digits (non-finite
ones as null), so identical input and configuration produce byte-identical
bytes.  The trace command emits CSV rows by default; ``--output-format``
switches between json and csv for the two row-oriented studies.  Logs go
to standard error only.

Exit codes: 0 success, 2 input or data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence, TextIO

import numpy as np

from .asymptotics import EstimateReport, estimate_report
from .inference import independence_test
from .montecarlo import (
    NormalityStudy,
    RngSpec,
    convergence_trace,
    normality_study,
    rejection_rate,
)
from .pmf import EmpiricalPmf, LabeledAlphabets

# Not called by the CLI, but perfbench/tracing.py rebinds it here.
from .pmf import estimate_pmf  # noqa: F401

log = logging.getLogger("pairinfo")

SCHEMA_VERSION = 2

_MAX_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation, embedded in every report for provenance."""

    command: str
    input: str
    format: str
    header: bool = False
    alpha: float = 0.05
    seed: int = 0
    n: int | None = None
    replicates: int | None = None
    sizes: list[int] | None = None
    measure: str | None = None
    output: str = "-"
    output_format: str = "json"


def _rows(stream: TextIO, header: bool, width: int, start: int = 1):
    """Yield ``(lineno, row)`` for each data row of ``width`` fields.

    Skips the header row when asked and blank lines; rows are yielded
    unstripped, so each caller strips the fields it keeps.  Records are
    numbered from ``start``, for a walk that resumes part way into a file
    after ``start - 1`` lines that were one record each, and every
    ``line N:`` error names its record by that number: the line the record
    starts on, unless a quoted field of an earlier record spans lines.  A
    record csv cannot read raises ``ValueError`` too.
    """
    lineno = start - 1
    try:
        for lineno, row in enumerate(csv.reader(stream), start=start):
            if (header and lineno == 1) or not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"line {lineno}: expected {width} fields, got {len(row)}"
                )
            yield lineno, row
    except csv.Error as exc:
        # The record csv failed on is the one after the last it read.
        raise ValueError(f"line {lineno + 1}: {exc}") from None


# Bytes of a pairs file read at a time, rows of a record walk turned into
# cells at a time, and distinct lines the tally holds before it yields
# their cells and starts afresh.
_BLOCK_BYTES = 1 << 15
_BLOCK_LINES = 4096
_KNOWN_LINES = 1 << 16
# The longest line, in bytes, that the known-line table holds, and the
# most lines looked up one by one before the table is searched again.
_WINDOW = 64
_LOOKUP_LINES = 1024
_BOM = b"\xef\xbb\xbf"
# Odd multipliers of a line's hash, one per 8-byte word of its window; the
# last also mixes the sum.
_MULTIPLIERS = np.array(
    [
        0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
        0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9,
    ],
    dtype=np.uint64,
)
# _TAIL_MASKS[k] keeps the first k bytes of a little-endian word.
_TAIL_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _whole_records(head: list[str], lines: list[str]) -> list[list[str]] | None:
    """The row of each of ``lines``, read after the header lines ``head``.

    Returns ``None`` unless every line is one whole record, of 2 fields
    for each of ``lines``.
    """
    records = csv.reader([*head, *lines, "\n"])
    try:
        rows = list(islice(records, len(head) + len(lines)))[len(head) :]
        # A quote left open swallows the trailing blank line, so the records
        # run out early; otherwise that blank line is the one record left.
        if next(records) or next(records, None) is not None:
            return None
    except (csv.Error, StopIteration):
        return None
    if not set(map(len, rows)) <= {2}:
        return None
    return rows


def _walked_cells(
    records: Iterable[str],
    header: bool,
    start: int,
    x_order: dict[str, int],
    y_order: dict[str, int],
):
    """Yield ``(x indices, y indices, 1)`` for each block of rows walked
    with :func:`_rows`, the first numbered ``start``."""
    walk = _rows(records, header, 2, start)
    while True:
        xs: list[int] = []
        ys: list[int] = []
        for _, (x, y) in islice(walk, _BLOCK_LINES):
            xs.append(x_order.setdefault(x.strip(), len(x_order)))
            ys.append(y_order.setdefault(y.strip(), len(y_order)))
        if not xs:
            return
        yield np.fromiter(xs, np.intp, len(xs)), np.fromiter(ys, np.intp, len(ys)), 1


def _chunks(stream: BinaryIO):
    """Yield ``(data, end)`` for each run of whole lines of ``stream``.

    ``data[:end]`` is the run, read ``_BLOCK_BYTES`` at a time and cut
    after its last newline, and ``data[end:]`` is the start of the next
    line, which begins the next run.  Only the stream's last line may lack
    a newline.  A byte order mark is dropped from the first bytes read.
    """
    data = stream.read(_BLOCK_BYTES).removeprefix(_BOM)
    while data:
        end = data.rfind(b"\n") + 1
        if end:
            yield data, end
        carry = len(data) - end
        # A line longer than a block doubles the next read.
        data = data[end:] + stream.read(max(_BLOCK_BYTES, carry))
        if len(data) == carry:  # the end of the stream
            if carry:
                yield data, carry
            return


def _lines(chunk: np.ndarray):
    """The start of each line of ``chunk`` and its length without its
    newline.  Only the last line may lack a newline."""
    ends = np.flatnonzero(chunk == 10)
    if chunk[-1] != 10:
        ends = np.append(ends, chunk.size)
    # Narrow positions halve the memory of a chunk's arrays.
    ends = ends.astype(np.int32 if chunk.size < 1 << 31 else np.intp)
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    return starts, np.subtract(ends, starts, out=ends)


def _line_words(chunk: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The first ``_WINDOW`` bytes at most of each line of ``chunk``, as
    rows of little-endian words, zero past the line's end."""
    width = min(_WINDOW, -(-int(lengths.max(initial=1)) // 8) * 8)
    padded = np.zeros(chunk.size + width, np.uint8)
    padded[: chunk.size] = chunk
    # The word that starts at each byte of the chunk.
    at = np.ndarray((chunk.size + width - 7,), "<u8", padded, strides=(1,))
    words = np.empty((width // 8, starts.size), np.uint64)
    for j, word in enumerate(words):
        # Fancy indexing reads the unaligned words in place, where take
        # would first copy all of them.
        word[:] = at[starts + 8 * j]
        word &= _TAIL_MASKS.take(lengths - 8 * j, mode="clip")
    return words


def _hashes(words: np.ndarray) -> np.ndarray:
    """A hash of each column of ``words``; zero rows below change none."""
    hashes = words[0] * _MULTIPLIERS[0]
    for j in range(1, len(words)):
        hashes += words[j] * _MULTIPLIERS[j]
    # Mix the high bits, which pick the slot, with the low ones.
    hashes ^= hashes >> np.uint64(29)
    hashes *= _MULTIPLIERS[-1]
    return hashes


def _slot_bits(lines: int) -> int:
    """Bits of a slot in a table for ``lines`` lines, at least 8 slots each."""
    return max(10, (8 * lines - 1).bit_length())


class _KnownLines:
    """Distinct lines, numbered from 1 in the order they are first met.

    ``ids`` maps each line to its number.  Each line of at most
    ``_WINDOW`` bytes also keeps its length and its words, and a table of
    slots, at least 8 times as many as the lines, holds at the slot that a
    hash of its words picks the id of one such line, or 0.  Id 0 is no
    line: its length, -1, is that of none.
    """

    def __init__(self):
        self.ids: dict[bytes, int] = {}
        self.lengths = np.full(64, -1, np.int32)
        self.words = np.zeros((1, 64), np.uint64)
        self._slot(_slot_bits(0))

    def _slot(self, bits: int):
        """Empty the table and make it ``2**bits`` slots."""
        self.slots = np.zeros(1 << bits, np.int32)
        self.shift = np.uint64(64 - bits)

    def find(self, chunk: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """The id of each line of ``chunk`` that the table holds, and 0 for
        the rest.

        The hash only picks the slot: a line is found only if it has the
        length and the words of the line whose id the slot, or else the
        slot beside it, holds.
        """
        words = _line_words(chunk, starts, lengths)
        ids = self.slots.take(self._slots(words), mode="wrap")
        same = self._same(ids, words, lengths)
        # A line is put beside its slot only when another line holds it.
        other = np.flatnonzero((ids != 0) & ~same)
        ids *= same
        if other.size:
            words = words[:, other]
            beside = self.slots.take(self._slots(words) ^ 1, mode="wrap")
            ids[other] = beside * self._same(beside, words, lengths[other])
        return ids

    def _slots(self, words: np.ndarray) -> np.ndarray:
        """The slot that the hash of each column of ``words`` picks."""
        hashes = _hashes(words)
        hashes >>= self.shift
        return hashes.view(np.int64)

    def _same(self, ids: np.ndarray, words: np.ndarray, lengths: np.ndarray):
        """Whether each line of ``ids`` has that length and those words.
        Words past those kept are 0 in every line of a length kept."""
        same = self.lengths.take(ids) == lengths
        for kept, word in zip(self.words, words):
            same &= kept.take(ids) == word
        return same

    def add(self, chunk: np.ndarray, starts: np.ndarray, lengths: np.ndarray, ids):
        """Keep the new lines ``ids`` of ``chunk`` that fit the window, and
        put each in its slot, or the slot beside it, if that is free."""
        fits = lengths <= _WINDOW
        if not fits.any():
            return
        ids, words = ids[fits], _line_words(chunk, starts[fits], lengths[fits])
        count = len(self.ids)
        size = self.lengths.size if count < self.lengths.size else 2 * (count + 1)
        width = max(len(self.words), len(words))
        if (width, size) != self.words.shape:
            old = self.words
            self.words = np.zeros((width, size), np.uint64)
            self.words[: old.shape[0], : old.shape[1]] = old
            grown = np.full(size - old.shape[1], -1, np.int32)
            self.lengths = np.concatenate([self.lengths, grown])
        self.lengths[ids] = lengths[fits]
        for kept, word in zip(self.words, words):
            kept[ids] = word
        bits = _slot_bits(count)
        if 1 << bits != self.slots.size:
            self._slot(bits)
            ids = np.flatnonzero(self.lengths >= 0)
            words = self.words[:, ids]
        # Where lines share a free slot, the first one met takes it.
        ids, slots = ids[::-1], self._slots(words[:, ::-1])
        for _ in range(2):
            free = self.slots.take(slots, mode="wrap") == 0
            np.put(self.slots, slots[free], ids[free], mode="wrap")
            left = np.flatnonzero(self.slots.take(slots, mode="wrap") != ids)
            ids, slots = ids[left], slots[left] ^ 1


def _listed_ids(known: _KnownLines, data: bytes, starts, lengths):
    """The ids of the lines ``data[start : start + length]``, looked up one
    at a time in ``known.ids``.

    These are the lines the table did not find: new lines, lines whose
    slot holds another line, and lines longer than the window.  New lines
    take the next ids in the order they are met.  Also returns where each
    new line is first met, and its bytes.
    """
    ids = known.ids
    count = len(ids)
    found = np.array(
        [
            ids.setdefault(data[at : at + size], len(ids) + 1)
            for at, size in zip(starts.tolist(), lengths.tolist())
        ],
        np.int32,
    )
    # Ids grow in the order lines are first met.
    numbers, first = np.unique(found, return_index=True)
    new = first[numbers > count]
    met = list(islice(reversed(ids), len(ids) - count))[::-1]
    return found, new, met


def _texts(lines: list[bytes]) -> list[str] | None:
    """Each of ``lines`` as text, or ``None`` if one holds a carriage return
    before its last byte, where text mode would end a line that ``b"\\n"``
    does not."""
    joined = b"\n".join(lines) + b"\n"
    if b"\r" in joined.replace(b"\r\n", b""):
        return None
    return joined.decode("utf-8").split("\n")[:-1]


def _tallied_chunk(known: _KnownLines, data: bytes, end: int, head: int):
    """The id in ``known`` of each line of ``data[:end]``, and the bytes of
    its first ``head`` lines and then of each line met for the first time,
    which ``known`` now holds too.

    Blank lines and the ``head`` lines have id 0: the table, empty while
    the head is read, holds neither, and they are not looked up.
    """
    chunk = np.frombuffer(data, np.uint8, end)
    starts, lengths = _lines(chunk)
    ids = known.find(chunk, starts, lengths)
    listed = np.flatnonzero(ids == 0).astype(starts.dtype)
    # Blank lines, b"\n" and b"\r\n", are not looked up, nor the head.
    blank = lengths[listed] <= (chunk[starts[listed]] == 13)
    listed = listed[~blank & (listed >= head)]
    lines = [data[: lengths[0]]] if head else []
    while listed.size:
        part, listed = listed[:_LOOKUP_LINES], listed[_LOOKUP_LINES:]
        found, first, met = _listed_ids(known, data, starts[part], lengths[part])
        ids[part] = found
        first = part[first]
        known.add(chunk, starts[first], lengths[first], ids[first])
        lines += met
        if first.size and listed.size:
            # The lines left may repeat those just met.
            ids[listed] = known.find(chunk, starts[listed], lengths[listed])
            listed = listed[ids[listed] == 0]
    return ids, lines


def _tallied_cells(tally: np.ndarray, xs: list[int], ys: list[int]):
    """``(x indices, y indices, repeats)`` of the lines counted in
    ``tally`` by id; the line of id ``i`` is in cell ``(xs[i], ys[i])``."""
    return np.array(xs[1:], np.intp), np.array(ys[1:], np.intp), tally[1 : len(xs)]


def _cell_batches(
    stream: BinaryIO, header: bool, x_order: dict[str, int], y_order: dict[str, int]
):
    """Yield ``(x indices, y indices, repeats)`` for batches of lines.

    The bytes of the stream are read a chunk of whole lines at a time, and
    one running tally counts every line by its id in :class:`_KnownLines`.
    In numpy, each line's first ``_WINDOW`` bytes are hashed to a slot of
    the table, and the line counts as the line whose id the slot holds if
    its length and bytes are the same.  The other lines are looked up one
    by one with :func:`_listed_ids`, and only lines met for the first time
    are decoded and parsed, each into a cell.  The tallied cells are
    yielded at the end of the stream, or once the tally holds over
    ``_KNOWN_LINES`` distinct lines, when it starts afresh so that memory
    stays bounded.  From the first chunk past the first where over a
    quarter of the lines are new, or that holds a line that is neither
    blank nor one whole record of two fields, the tally of the chunks
    before it is yielded and the rest of the stream is decoded and walked
    record by record with :func:`_rows`, which reads quoted fields that
    span lines and raises the ``line N:`` errors.  New labels are appended
    to ``x_order`` and ``y_order`` in first-appearance order.
    """
    known = _KnownLines()
    xs, ys = [0], [0]  # the cell of each id, after a stand-in for id 0
    tally = np.zeros(1, np.int64)
    read = 0  # lines read so far, each one whole record
    for data, end in _chunks(stream):
        head = 1 if header and not read else 0
        ids, lines = _tallied_chunk(known, data, end, head)
        rows = None
        # Past the first chunk, parsing a quarter of the lines costs about as
        # much as walking them all.
        if read and 4 * (len(lines) - head) > len(ids):
            reason = "over a quarter of its lines are new"
        else:
            reason = "a line is not one whole record of two fields"
            texts = _texts(lines) if lines else []
            if texts is not None:
                rows = _whole_records(texts[:head], texts[head:]) if texts else []
        if rows is None:
            log.info("walking records from line %d: %s", read + 1, reason)
            yield _tallied_cells(tally, xs, ys)
            # The chunk's lines, its last one read to its end, then the rest.
            start = io.StringIO((data + stream.readline()).decode("utf-8"), newline="")
            rest = io.TextIOWrapper(stream, encoding="utf-8", newline="")
            try:
                records = chain(start, rest)
                yield from _walked_cells(records, header, read + 1, x_order, y_order)
            finally:
                rest.detach()  # leave the stream open
            return
        for x, y in rows:
            xs.append(x_order.setdefault(x.strip(), len(x_order)))
            ys.append(y_order.setdefault(y.strip(), len(y_order)))
        counted = np.bincount(ids, minlength=len(xs))
        counted[: tally.size] += tally
        tally = counted
        read += len(ids)
        if len(known.ids) > _KNOWN_LINES:
            yield _tallied_cells(tally, xs, ys)
            known = _KnownLines()
            xs, ys = [0], [0]
            tally = np.zeros(1, np.int64)
    yield _tallied_cells(tally, xs, ys)


def parse_pairs_csv(
    stream: BinaryIO, header: bool = False
) -> tuple[LabeledAlphabets, np.ndarray]:
    """Read one observation per row (x label, y label) into cell counts.

    ``stream`` is binary, holding UTF-8 text; a byte order mark at its
    start is dropped.  Returns the alphabets in first-appearance order and
    an int64 vector of ``rows * cols`` counts, where cell ``cols * x + y``
    counts the rows with x label index ``x`` and y label index ``y``.
    Bytes are read in chunks of whole lines, and a line that repeats one
    met before is counted in numpy, through a table that matches the
    line's first 64 bytes exactly; a line is decoded and parsed only when
    it is first met, and the counts reach the table of cells when the
    stream ends or the tally, grown past ``_KNOWN_LINES`` distinct lines,
    starts afresh.  From a chunk of many new lines, or one holding a line
    that is not one whole record (a quoted label that spans lines, a
    ragged row, a carriage return inside a line), the rest is decoded and
    read record by record, with the same result and ``line N:`` errors,
    and one line on the ``pairinfo`` logger says where and why.  Invalid
    UTF-8 raises ``UnicodeDecodeError``.  No per-row list is kept, so
    memory grows with the table, not the rows.  The stream is read once,
    from its current position, and need not be seekable.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    counts = np.zeros((0, 0), dtype=np.int64)
    for xs, ys, repeats in _cell_batches(stream, header, x_order, y_order):
        counts = _room(counts, len(x_order), len(y_order))
        # Flat indices into the table: faster than a pair of index arrays.
        np.add.at(counts.reshape(-1), xs * counts.shape[1] + ys, repeats)
    if not x_order:
        raise ValueError("empty input: no data rows")
    alphabets = LabeledAlphabets(tuple(x_order), tuple(y_order))
    return alphabets, counts[: len(x_order), : len(y_order)].ravel()


def _room(counts: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``counts``, grown to hold at least ``rows x cols`` cells.

    The first table is exact.  Later ones keep an eighth to spare, so that
    labels which keep coming cost few copies.  New rows are added in place,
    so a table that grows in x never holds two copies of itself.
    """
    if not counts.size:
        return np.zeros((rows, cols), dtype=np.int64)
    if cols > counts.shape[1]:
        grown = np.zeros((rows + rows // 8, cols + cols // 8), dtype=np.int64)
        grown[: counts.shape[0], : counts.shape[1]] = counts
        return grown
    if rows > counts.shape[0]:
        # No view of the table exists, so it may move.
        counts.resize((rows + rows // 8, counts.shape[1]), refcheck=False)
    return counts


def parse_counts_csv(
    stream: TextIO, header: bool = False
) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    """Read one cell per row (x label, y label, count).

    Cells never mentioned get count 0; mentioning a cell twice is an
    error.  At least one count must be positive, and every count must fit
    in a signed 64-bit integer.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    cells: dict[tuple[int, int], int] = {}
    for lineno, row in _rows(stream, header, 3):
        x, y, raw = (field.strip() for field in row)
        try:
            # int() also reads "1_0", "٣" and "１２" as 10, 3 and 12.
            if not raw.isascii() or "_" in raw:
                raise ValueError
            count = int(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: count must be an integer, got {raw!r}"
            ) from None
        if count < 0:
            raise ValueError(f"line {lineno}: count must be nonnegative, got {count}")
        if count > _MAX_COUNT:
            raise ValueError(
                f"line {lineno}: count must be at most {_MAX_COUNT}, got {count}"
            )
        key = (x_order.setdefault(x, len(x_order)), y_order.setdefault(y, len(y_order)))
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate cell ({x}, {y})")
        cells[key] = count
    if not cells:
        raise ValueError("empty input: no data rows")
    alphabets = LabeledAlphabets(tuple(x_order), tuple(y_order))
    counts = np.zeros(alphabets.shape.size, dtype=np.int64)
    cols = len(y_order)
    for (xi, yi), count in cells.items():
        counts[cols * xi + yi] = count
    if not counts.any():
        raise ValueError("all counts are zero: n = 0")
    return alphabets, EmpiricalPmf(counts, alphabets.shape)


def serialize_counts_csv(alphabets: LabeledAlphabets, emp: EmpiricalPmf) -> str:
    """Counts-layout CSV for an empirical table, one row per cell.

    Zero cells are written too, so parsing the result reproduces the
    alphabets and counts exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = emp.shape.cols
    for xi, x in enumerate(alphabets.x_labels):
        for yi, y in enumerate(alphabets.y_labels):
            writer.writerow([x, y, int(emp.counts[cols * xi + yi])])
    return buf.getvalue()


def parse_sizes(text: str) -> list[int]:
    """Expand ``start:stop:step`` into an inclusive-stop size grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sizes must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"sizes must be three integers, got {text!r}") from None
    if start < 1:
        raise ValueError(f"sizes start must be >= 1, got {start}")
    if step < 1:
        raise ValueError(f"sizes step must be >= 1, got {step}")
    if stop < start:
        raise ValueError(f"sizes stop must be >= start, got {start}:{stop}:{step}")
    return list(range(start, stop + 1, step))


def _json_float(value: float):
    """``value`` rounded to 9 significant digits, or ``None`` if not finite."""
    # JSON has no NaN or infinity; strict parsers reject the bare tokens.
    return float(format(value, ".9g")) if math.isfinite(value) else None


def _jsonable(obj):
    """Plain JSON types with floats rounded to 9 significant digits and
    non-finite floats as ``None``."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            # Every element is a Python float: skip the type dispatch.
            return [_json_float(val) for val in obj.tolist()]
        return [_jsonable(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    return obj


def _compact_json(obj) -> str:
    return json.dumps(_jsonable(obj), separators=(",", ":"))


def _report_json(config: RunConfig, alphabets: LabeledAlphabets, results: dict) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "alphabets": {
            "x": list(alphabets.x_labels),
            "y": list(alphabets.y_labels),
        },
        "results": results,
    }
    return json.dumps(_jsonable(report), indent=2) + "\n"


def _csv_report(config: RunConfig, comments: list[str], columns: dict) -> str:
    """The ``# config:`` line and further comment lines, a header row of the
    column names, then one row per index: the first column as int, the
    others at nine significant digits.
    """
    buf = io.StringIO()
    for line in ["# config: " + _compact_json(asdict(config)), *comments]:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for first, *rest in zip(*columns.values()):
        writer.writerow([int(first), *(format(v, ".9g") for v in rest)])
    return buf.getvalue()


def _estimate_dict(rep: EstimateReport) -> dict:
    out = asdict(rep)
    del out["measure"]
    return out


def _normality_fields(study: NormalityStudy) -> tuple[dict, dict]:
    """The study's scalar fields and its array fields, each in field order."""
    scalars, arrays = {}, {}
    for key, val in asdict(study).items():
        (arrays if isinstance(val, np.ndarray) else scalars)[key] = val
    return scalars, arrays


def _ingest(config: RunConfig) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    path = Path(config.input)
    if config.format == "pairs":
        with path.open("rb") as stream:
            alphabets, counts = parse_pairs_csv(stream, header=config.header)
        emp = EmpiricalPmf(counts, alphabets.shape)
    else:
        # utf-8-sig drops the byte order mark that spreadsheet exports put first.
        with path.open(newline="", encoding="utf-8-sig") as stream:
            alphabets, emp = parse_counts_csv(stream, header=config.header)
    log.info(
        "ingested %s: %dx%d alphabet, n = %d",
        config.input,
        emp.shape.rows,
        emp.shape.cols,
        emp.n,
    )
    return alphabets, emp


def _emit(config: RunConfig, text: str) -> None:
    if config.output == "-":
        sys.stdout.write(text)
    else:
        Path(config.output).write_text(text, encoding="utf-8")
        log.info("wrote %s", config.output)


def run(config: RunConfig) -> int:
    """Execute one resolved command; returns the process exit code."""
    alphabets, emp = _ingest(config)
    rng = RngSpec(config.seed)
    csv_out = config.output_format == "csv"
    if config.command == "estimate":
        results = {
            measure: _estimate_dict(estimate_report(measure, emp, config.alpha))
            for measure in ("joint_entropy", "mutual_information")
        }
        text = _report_json(config, alphabets, results)
    elif config.command == "test":
        rep = independence_test(emp, config.alpha)
        text = _report_json(config, alphabets, {"independence_test": asdict(rep)})
    elif config.command == "trace":
        trace = convergence_trace(emp.as_zpmf(), config.sizes, config.measure, rng)
        if csv_out:
            true_value = format(trace.true_value, ".9g")
            comment = f"# measure: {trace.measure}, true_value: {true_value}"
            columns = {
                "size": trace.sizes,
                "estimate": trace.estimates,
                "abs_error": trace.abs_errors,
                "a_zn": trace.a_zn,
                "ratio": trace.ratio,
            }
            text = _csv_report(config, [comment], columns)
        else:
            text = _report_json(config, alphabets, {"trace": asdict(trace)})
    elif config.command == "normality":
        study = normality_study(
            emp.as_zpmf(), config.n, config.replicates, config.measure, rng
        )
        scalars, arrays = _normality_fields(study)
        if csv_out:
            comments = [
                "# summary: " + _compact_json(scalars),
                "# bin_edges: " + json.dumps(_jsonable(study.bin_edges)),
                "# bin_counts: " + json.dumps(_jsonable(study.bin_counts)),
            ]
            columns = {
                "index": range(1, study.replicates + 1),
                "t_value": study.t_values,
                "qq_theoretical": study.qq_theoretical,
                "qq_order_statistic": study.qq_sample,
            }
            text = _csv_report(config, comments, columns)
        else:
            text = _report_json(config, alphabets, {"normality": {**scalars, **arrays}})
    elif config.command == "power":
        rate = rejection_rate(
            emp.as_zpmf(), config.n, config.replicates, config.alpha, rng
        )
        results = {
            "rejection_rate": {
                "rate": rate,
                "n": config.n,
                "replicates": config.replicates,
                "alpha": config.alpha,
            }
        }
        text = _report_json(config, alphabets, results)
    else:
        raise ValueError(f"unknown command {config.command!r}")
    _emit(config, text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument(
        "--format",
        required=True,
        choices=("pairs", "counts"),
        help="input layout: one observation per row, or one cell count per row",
    )
    sub.add_argument(
        "--header",
        action="store_true",
        help="skip the first input row (header detection is never automatic)",
    )
    sub.add_argument(
        "--output", default="-", help="report path, or - for standard output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairinfo",
        description=(
            "Plug-in joint entropy and mutual information for a pair of "
            "categorical variables, with asymptotic inference, an "
            "independence test, and seeded Monte Carlo studies."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="entropy and MI with confidence intervals")
    _add_io_flags(est)
    est.add_argument("--alpha", type=float, default=0.05, help="CI level (default 0.05)")

    test = commands.add_parser("test", help="likelihood-ratio independence test")
    _add_io_flags(test)
    test.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")

    trace = commands.add_parser("trace", help="convergence trace over sample sizes")
    _add_io_flags(trace)
    trace.add_argument("--measure", required=True, choices=("entropy", "mi"))
    trace.add_argument(
        "--sizes", required=True, help="sample-size grid start:stop:step (stop inclusive)"
    )
    trace.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    trace.add_argument(
        "--output-format", choices=("json", "csv"), default="csv",
        help="csv rows (default) or a json report",
    )

    norm = commands.add_parser("normality", help="standardized estimates vs N(0,1)")
    _add_io_flags(norm)
    norm.add_argument("--measure", required=True, choices=("entropy", "mi"))
    norm.add_argument("--n", type=int, required=True, help="sample size per replicate")
    norm.add_argument("--replicates", type=int, required=True)
    norm.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    norm.add_argument(
        "--output-format", choices=("json", "csv"), default="json",
        help="json report (default) or csv rows of T values and QQ pairs",
    )

    power = commands.add_parser("power", help="test rejection rate under the ingested p.m.f.")
    _add_io_flags(power)
    power.add_argument("--n", type=int, required=True, help="sample size per replicate")
    power.add_argument("--replicates", type=int, required=True)
    power.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    power.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
    if values["sizes"] is not None:
        values["sizes"] = parse_sizes(values["sizes"])
    return RunConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return run(_config_from_args(args))
    except (ValueError, OSError, UnicodeDecodeError) as exc:
        print(f"pairinfo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
