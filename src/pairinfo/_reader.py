"""CSV ingestion: pairs and counts files read from bytes, and counts written back."""

from __future__ import annotations

import csv
import io
import logging
from itertools import chain, islice
from typing import BinaryIO, Iterable

import numpy as np

from .pmf import _INT64_MAX, EmpiricalPmf, LabeledAlphabets

log = logging.getLogger("pairinfo")


def _rows(lines: Iterable[str], header: bool, width: int, start: int = 1):
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
        for lineno, row in enumerate(csv.reader(lines), start=start):
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


# Bytes of a pairs or counts file read at a time, rows of a record walk
# turned into cells at a time, and distinct lines the tally holds before
# it yields their cells and starts afresh.
_BLOCK_BYTES = 1 << 16
_BLOCK_LINES = 4096
_KNOWN_LINES = 1 << 16
# The longest line, in bytes, that the known-line table holds (with its
# newline, 8 words), and the most lines looked up one by one before the
# table is searched again, which bounds the Python lists of a lookup pass
# (unbatched, a first chunk of 4-byte lines peaks at 1.73 MB, not 0.81).
_WINDOW = 63
_LOOKUP_LINES = 1024
_BOM = b"\xef\xbb\xbf"
# The ids of the blank lines, without their newline, in _KnownLines, and
# the id of the first line met, after id 0 and the blank lines.
_BLANK_IDS = {b"": 1, b"\r": 2}
_FIRST_ID = 1 + len(_BLANK_IDS)
# Odd multipliers of a line's hash, one per 8-byte word of its key.
_MULTIPLIERS = np.array([
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
    0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9,
], np.uint64)
# _TAIL_MASKS[k] keeps the first k bytes of a little-endian word.
_TAIL_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _walked_cells(walk, x_order: dict[str, int], y_order: dict[str, int]):
    """Yield ``(x indices, y indices, 1)`` for each block of rows of
    ``walk``, a record walk of pairs (:func:`_walk_from`)."""
    while True:
        xs: list[int] = []
        ys: list[int] = []
        for _, (x, y) in islice(walk, _BLOCK_LINES):
            xs.append(x_order.setdefault(x.strip(), len(x_order)))
            ys.append(y_order.setdefault(y.strip(), len(y_order)))
        if not xs:
            return
        yield np.fromiter(xs, np.intp, len(xs)), np.fromiter(ys, np.intp, len(ys)), 1


def _text_lines(runs: Iterable[bytearray]):
    """The lines of runs of whole UTF-8 lines, as text mode with
    ``newline=""`` reads them.  A run that does not decode gives the lines
    before its bad one, then raises, so that a record walk reports the
    first bad line in the file."""
    for run in runs:
        try:
            text, error = run.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            text, error = run[: run.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), exc
        yield from io.StringIO(text, newline="")
        if error:
            raise error


def _walk_from(buffer, end: int, chunks, header: bool, width: int, read: int, why):
    """The record walk (:func:`_rows`) of ``buffer[:end]`` and of the runs
    left in ``chunks``, the first numbered ``read + 1``.  Unless ``why`` is
    ``None``, one line on the ``pairinfo`` logger says where and why."""
    if why:
        log.info("walking records from line %d: %s", read + 1, why)
    runs = chain([buffer[:end]], (run[:stop] for run, stop in chunks))
    return _rows(_text_lines(runs), header, width, read + 1)


def _chunks(stream: BinaryIO):
    """Yield ``(buffer, end)`` for each run of whole lines of ``stream``.

    ``buffer[:end]`` is the run, read ``_BLOCK_BYTES`` at a time into one
    reused buffer and cut after its last newline; the bytes after it begin
    the next run.  Only the stream's last line may lack a newline; one is
    then put after it, and ``end`` counts it.  Over 64 bytes of the buffer
    follow ``end``, for the words :func:`_keys` reads past a line's end.
    A byte order mark is dropped from the first bytes read.
    """
    first = stream.read(_BLOCK_BYTES)
    if isinstance(first, str):
        raise TypeError("input must be a binary stream, such as open(path, 'rb')")
    buffer = bytearray(first.removeprefix(_BOM))
    size = len(buffer)
    buffer += bytes(_BLOCK_BYTES + 2 * _WINDOW - size)
    while size:
        end = buffer.rfind(b"\n", 0, size) + 1
        if end:
            yield buffer, end
        carry = size - end
        # A line longer than a block doubles the next read.
        more = max(_BLOCK_BYTES, carry)
        buffer[:carry] = buffer[end:size]
        if carry + more + 2 * _WINDOW > len(buffer):
            buffer = buffer[:carry] + bytes(more + 2 * _WINDOW)
        size = carry + stream.readinto(memoryview(buffer)[carry : carry + more])
        if size == carry:  # the end of the stream
            if carry:
                buffer[carry] = 10
                yield buffer, carry + 1
            return


def _lines(chunk: np.ndarray):
    """The start of each line of ``chunk``, whose last byte is a newline,
    and its length without its newline."""
    # Narrow positions halve the memory of a chunk's arrays.
    ends = np.flatnonzero(chunk == 10).astype(np.int32 if chunk.size < 1 << 31 else np.intp)
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    return starts, np.subtract(ends, starts, out=ends)


def _keys(view: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list:
    """The key of each line of ``view``: its bytes and its newline, or the
    first 64 of them, as rows of little-endian words, zero past the newline.

    The first row is multiplied by an odd constant, a one-to-one map, so a
    one-word key is its own hash.  Words are read in place, past the line's
    end too, so ``view`` must hold 64 bytes more than its last line.
    """
    width = min(8, int(lengths.max(initial=0)) // 8 + 1)
    shortest = int(lengths.min(initial=_WINDOW)) + 1
    # The word that starts at each byte of the view.
    at = np.ndarray((view.size - 7,), "<u8", view, strides=(1,))
    rows = [at[starts]] + [at[starts + 8 * j] for j in range(1, width)]
    for j, row in enumerate(rows):
        if 8 * (j + 1) > shortest:  # a key ends in this word
            row &= _TAIL_MASKS.take(lengths + (1 - 8 * j), mode="clip")
    rows[0] *= _MULTIPLIERS[0]
    return rows


def _slot_bits(lines: int) -> int:
    """Bits of a slot in a table for ``lines`` lines, at least 4 slots each."""
    return max(10, (4 * lines - 1).bit_length())


class _KnownLines:
    """Distinct lines, numbered from 1 in the order they are first met.

    ``ids`` maps each line to its number.  Each line of at most
    ``_WINDOW`` bytes also keeps its key (:func:`_keys`), and a table of
    slots, at least 4 times as many as the lines, holds its id: a hash of
    the key picks a slot ``h``, and the line takes the first free one of
    ``h``, ``h ^ 1``, ..., ``h ^ reach``, where ``reach`` is the farthest
    any line went.  Slots are emptied only when the table grows, and then
    every line takes one again, so each line has one while any is free.
    Id 0 is no line: its key, 8 newlines, is that of none.  The blank
    lines are held from the start, so they are found like lines met
    before and never looked up.
    """

    def __init__(self):
        self.ids: dict[bytes, int] = dict(_BLANK_IDS)
        # The keys of id 0, a line of 7 newlines, and of the blank lines.
        view = np.frombuffer(b"\n" * 8 + b"\r\n".ljust(72, b"\0"), np.uint8)
        self.words = np.zeros((1, 64), np.uint64)
        self.words[0, :3] = _keys(view, np.array([0, 7, 8]), np.array([7, 0, 1]))[0]
        self._grow(_slot_bits(len(self.ids)))

    def _grow(self, bits: int):
        """Empty the table, make it ``2**bits`` slots and give every line a
        slot again; where lines share a free slot, the first one met wins."""
        self.slots = np.zeros(1 << bits, np.int32)
        self.shift = np.uint64(64 - bits)
        self.reach = 0
        ids = np.flatnonzero(self.words.any(axis=0))[1:]
        ids, home = ids[::-1], self._slots(list(self.words[:, ids]))[::-1]
        for step in range(self.slots.size):
            if not ids.size:
                break
            self.reach = step
            slots = home ^ step
            free = self.slots.take(slots) == 0
            self.slots[slots[free]] = ids[free]
            left = self.slots.take(slots) != ids
            ids, home = ids[left], home[left]

    def find(self, view: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """The id of each line of ``view`` that the table holds, or 0, the
        index of each line of id 0, and the keys of those lines.  The hash
        only picks the slots searched: a line is found only if one holds
        the id of its key."""
        rows = _keys(view, starts, lengths)
        ids = self._slots(rows)
        # Ids as intp, which every later take and count needs.
        ids[...] = self.slots.take(ids)
        missing = np.flatnonzero(~self._same(ids, rows))
        ids[missing] = 0
        rows = [row[missing] for row in rows]
        # A line whose slot holds another line may be in the slots after it.
        if missing.size and self.reach:
            steps = np.arange(1, self.reach + 1)[:, None]
            held = self.slots.take(self._slots(rows) ^ steps)
            # Each line is in one slot at most.
            found = (held * self._same(held, rows)).sum(axis=0)
            ids[missing] = found
            left = np.flatnonzero(found == 0)
            missing, rows = missing[left], [row[left] for row in rows]
        return ids, missing.astype(starts.dtype), rows

    def _slots(self, rows: list) -> np.ndarray:
        """The slot where the search for each key of ``rows`` starts."""
        hashes = rows[0]
        for row, multiplier in zip(rows[1:], _MULTIPLIERS[1:]):
            hashes = hashes + row * multiplier
        return (hashes >> self.shift).view(np.int64)

    def _same(self, ids: np.ndarray, rows: list) -> np.ndarray:
        """Whether the line of each of ``ids`` has the key ``rows``.  A key
        ends in a newline, so its words up to the fewer rows decide."""
        same = self.words[0].take(ids) == rows[0]
        for kept, row in zip(self.words[1:], rows[1:]):
            same &= kept.take(ids) == row
        return same

    def add(self, ids: list, rows: list):
        """Keep the new lines ``ids``, whose keys are ``rows``, and give
        each the first free slot of its search, in the order they are met."""
        count, (width, size) = len(self.ids), self.words.shape
        if count >= size or len(rows) > width:
            shape = max(width, len(rows)), max(size, 2 * count)
            old, self.words = self.words, np.zeros(shape, np.uint64)
            self.words[:width, :size] = old
        for kept, row in zip(self.words, rows):
            kept[ids] = row
        bits = _slot_bits(count)
        if 1 << bits != self.slots.size:
            return self._grow(bits)
        # Past the first chunks, a chunk meets a few new lines, which cost
        # less one at a time than in the numpy step loop of _grow.
        slots, size = memoryview(self.slots), self.slots.size
        for number, home in zip(ids, self._slots(rows).tolist()):
            step = 0
            while step < size and slots[home ^ step]:
                step += 1
            if step < size:
                slots[home ^ step] = number
                self.reach = max(self.reach, step)


def _listed_ids(known: _KnownLines, data: bytes, starts, lengths):
    """The ids of the lines ``data[start : start + length]``, looked up one
    at a time in ``known.ids``: lines the table did not find, which are new
    lines, lines over the window and, only while no slot is free, others.
    New lines take the next ids in the order they are met.  Also returns
    the index of each new line that fits the window, and the bytes of
    every new line."""
    ids = known.ids
    found, fresh, met = [], [], []
    for index, (at, size) in enumerate(zip(starts.tolist(), lengths.tolist())):
        line = data[at : at + size]
        number = ids.get(line)
        if number is None:
            number = ids[line] = len(ids) + 1
            met.append(line)
            if size <= _WINDOW:
                fresh.append(index)
        found.append(number)
    return found, fresh, met


def _new_rows(lines: list[bytes], head: int) -> list[list[str]] | None:
    """The row of each of ``lines`` past the first ``head``.

    Returns ``None`` unless each of ``lines`` is one whole record of UTF-8,
    of 2 fields past the head, and none holds a carriage return before its
    last byte, where text mode would end a line that ``b"\\n"`` does not.
    """
    # A blank line follows the lines.
    joined = b"\n".join(lines) + b"\n\n"
    if b"\r" in joined.replace(b"\r\n", b""):
        return None
    try:
        records = csv.reader(io.StringIO(joined.decode("utf-8"), newline=""))
        del joined
        rows = list(islice(records, head, len(lines)))
        # A quote left open swallows the blank line, so the records run out
        # early.  With no "\r", records cannot outnumber lines.
        next(records)
    except (UnicodeDecodeError, csv.Error, StopIteration):
        return None
    if not set(map(len, rows)) <= {2}:
        return None
    return rows


def _line_ids(known: _KnownLines, buffer: bytearray, end: int, starts, lengths):
    """The id in ``known`` of each line ``buffer[start : start + length]``
    of ``buffer[:end]``, and the bytes of each line met for the first time,
    which ``known`` now holds too.  A line is keyed with the byte after it,
    its newline or, for a label of a counts line, its comma."""
    view = np.frombuffer(buffer, np.uint8)
    ids, listed, keys = known.find(view, starts, lengths)
    data = bytes(memoryview(buffer)[:end]) if listed.size else b""
    count = len(known.ids)
    lines = []
    for at in range(0, listed.size, _LOOKUP_LINES):
        part = listed[at : at + _LOOKUP_LINES]
        part_keys = [row[at : at + _LOOKUP_LINES] for row in keys]
        if len(known.ids) > count:
            # The lines left may repeat those just met.
            ids[part], missing, part_keys = known.find(view, starts[part], lengths[part])
            part = part[missing]
        found, fresh, met = _listed_ids(known, data, starts[part], lengths[part])
        ids[part] = found
        known.add([found[i] for i in fresh], [row[fresh] for row in part_keys])
        lines += met
    return ids, lines


def _tallied_chunk(known: _KnownLines, buffer: bytearray, end: int, head: int):
    """How many lines of ``buffer[:end]`` have each id in ``known``, how
    many lines it holds, and the bytes of its first ``head`` lines, which
    are not looked up, then of each line met for the first time, which
    ``known`` now holds too."""
    starts, lengths = _lines(np.frombuffer(buffer, np.uint8, end))
    lines = [bytes(buffer[: lengths[0]])] if head else []
    ids, met = _line_ids(known, buffer, end, starts[head:], lengths[head:])
    return np.bincount(ids, minlength=len(known.ids) + 1), ids.size + head, lines + met


def _tallied_cells(tally: np.ndarray, xs: list[int], ys: list[int]):
    """``(x indices, y indices, repeats)`` of the lines counted in ``tally``
    by id; the line of id ``i >= _FIRST_ID`` is in cell ``(xs[i], ys[i])``."""
    cells = slice(_FIRST_ID, len(xs))
    return np.array(xs[cells], np.intp), np.array(ys[cells], np.intp), tally[cells]


def _cell_batches(
    stream: BinaryIO, header: bool, x_order: dict[str, int], y_order: dict[str, int]
):
    """Yield ``(x indices, y indices, repeats)`` for batches of lines.

    The bytes of the stream are read a chunk of whole lines at a time, and
    one running tally counts every line by its id in :class:`_KnownLines`,
    whose table is searched in numpy for every line of the chunk at once.
    New lines and lines over ``_WINDOW`` bytes are looked up one by one
    with :func:`_listed_ids`, and only new lines are decoded and parsed,
    each into a cell.  The tallied cells are yielded at the end of the
    stream, or once the tally holds over ``_KNOWN_LINES`` distinct lines,
    when it starts afresh so that memory stays bounded.  From the first
    chunk past the first where over a quarter of the lines are new, or that
    holds a line that is neither blank nor one whole UTF-8 record of two
    fields, the tally of the chunks before it is yielded and the rest of
    the stream is decoded a chunk at a time and walked record by record
    with :func:`_rows`, which reads quoted fields that span lines and
    raises the ``line N:`` errors.  New labels are appended to ``x_order``
    and ``y_order`` in first-appearance order.
    """
    read = 0  # lines read so far, each one whole record
    chunks = _chunks(stream)
    for buffer, end in chunks:
        if not read or len(known.ids) > _KNOWN_LINES:
            if read:
                yield _tallied_cells(tally, xs, ys)
            known = _KnownLines()
            # The cell of each id, after stand-ins for those below _FIRST_ID.
            xs, ys = [0] * _FIRST_ID, [0] * _FIRST_ID
            tally = np.zeros(1, np.int64)
        head = 1 if header and not read else 0
        counted, chunk_lines, lines = _tallied_chunk(known, buffer, end, head)
        rows = None
        # Past the first chunk, parsing a quarter of the lines costs about as
        # much as walking them all.
        if read and 4 * len(lines) > chunk_lines:
            reason = "over a quarter of its lines are new"
        else:
            reason = "a line is not one whole record of two fields"
            rows = _new_rows(lines, head) if lines else []
        if rows is None:
            walk = _walk_from(buffer, end, chunks, header, 2, read, reason)
            yield _tallied_cells(tally, xs, ys)
            yield from _walked_cells(walk, x_order, y_order)
            return
        for x, y in rows:
            xs.append(x_order.setdefault(x.strip(), len(x_order)))
            ys.append(y_order.setdefault(y.strip(), len(y_order)))
        counted[: tally.size] += tally
        tally = counted
        read += chunk_lines
        del lines, rows  # before the next chunk is read
    if read:
        yield _tallied_cells(tally, xs, ys)


def parse_pairs_csv(
    stream: BinaryIO, header: bool = False
) -> tuple[LabeledAlphabets, np.ndarray]:
    """Read one observation per row (x label, y label) into cell counts.

    ``stream`` is a buffered binary stream (``readinto`` fills the reused
    buffer) of UTF-8 text; a byte order mark at its start is dropped.
    Returns the alphabets in first-appearance order and an int64 vector of
    ``rows * cols`` counts, where cell ``cols * x + y`` counts the rows
    with x label index ``x`` and y label index ``y``.  A line is decoded
    and parsed only when it is first met, and repeats are counted in numpy
    (:func:`_cell_batches`) through :func:`_line_ids`, which also looks up
    the labels of :func:`parse_counts_csv`.  From a chunk of many new lines, or one
    holding a line that is not one whole record (a quoted label that spans
    lines, a ragged row, a carriage return inside a line), the rest is
    decoded and read record by record, with the same result and ``line
    N:`` errors, and one line on the ``pairinfo`` logger says where and
    why.  Invalid UTF-8 raises ``UnicodeDecodeError``, unless a bad record
    comes before it in the file, whatever the chunk size.  No per-row list
    is kept, so memory grows with the table, not the rows.  The stream is
    read once, from its current position, and need not be seekable.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    counts = np.zeros((0, 0), dtype=np.int64)
    for xs, ys, repeats in _cell_batches(stream, header, x_order, y_order):
        counts = _room(counts, len(x_order), len(y_order))
        # Flat indices into the table: faster than a pair of index arrays.
        np.add.at(counts.reshape(-1), xs * counts.shape[1] + ys, repeats)
    return _labeled(x_order, y_order, counts)


def _labeled(x_order: dict[str, int], y_order: dict[str, int], table: np.ndarray):
    """Both readers' end: the alphabets, and ``table`` cut to them and flattened."""
    if not x_order:
        raise ValueError("empty input: no data rows")
    alphabets = LabeledAlphabets(tuple(x_order), tuple(y_order))
    return alphabets, table[: len(x_order), : len(y_order)].ravel()


def _room(counts: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``counts``, grown to hold at least ``rows x cols`` cells.

    The first table is exact.  Later ones keep an eighth to spare, so that
    labels which keep coming cost few copies.  New rows are added in place,
    so a table that grows in x never holds two copies of itself.
    """
    if not counts.size:
        return np.zeros((rows, cols), dtype=counts.dtype)
    if cols > counts.shape[1]:
        grown = np.zeros((rows + rows // 8, cols + cols // 8), dtype=counts.dtype)
        grown[: counts.shape[0], : counts.shape[1]] = counts
        return grown
    if rows > counts.shape[0]:
        # No view of the table exists, so it may move.
        counts.resize((rows + rows // 8, counts.shape[1]), refcheck=False)
    return counts


# The most digits of a count split, as 10**18 - 1 fits in int64.
COUNT_DIGITS = 18


def plain_cells(buffer: bytearray, end: int, head: int):
    """If every line of ``buffer[:end]`` past the first ``head`` is blank
    or plain, the start and length of each x label, those of each y label
    and each count, of the lines not blank, and how many lines there are.

    A plain line is two labels that are not empty and a count of 1 to
    ``COUNT_DIGITS`` ASCII digits, with no other comma.  The chunk must be
    UTF-8 with no quote, carriage return or NUL, and no line longer than
    csv's field limit, so csv reads each plain line as one record whose
    count no rule refuses.
    """
    try:
        str(buffer[:end], "utf-8")
    except UnicodeDecodeError:
        return None
    chunk = np.frombuffer(buffer, np.uint8, end)
    starts, lengths = _lines(chunk)
    if any(map(buffer[:end].__contains__, b'"\r\0')) or lengths.max() > csv.field_size_limit():
        return None
    commas = np.flatnonzero(chunk == ord(","))
    commas = commas[commas > (lengths[0] if head else -1)]
    lines, starts, lengths = starts.size, starts[head:], lengths[head:]
    starts, ends = starts[lengths > 0], (starts + lengths)[lengths > 0]
    # Pair i of the commas lies in line i only if every line holds two.
    xs, ys = commas[0::2], commas[1::2]
    if commas.size != 2 * starts.size:
        return None
    width = int((ends - ys - 1).max(initial=1))
    if width > COUNT_DIGITS or not ((starts < xs) & (xs + 1 < ys) & (ys + 1 < ends)).all():
        return None
    counts = np.zeros(starts.size, np.int64)
    # Digit columns, aligned on the right: a column left of a count adds 0.
    for at in (ends - column for column in range(width, 0, -1)):
        digit = (chunk.take(at, mode="clip") - np.uint8(ord("0"))) * (at > ys)
        if (digit > 9).any():
            return None
        counts = counts * 10 + digit
    return (starts, xs - starts), (xs + 1, ys - xs - 1), counts, lines


class Labels:
    """The raw labels of a counts column, each keyed by its bytes and comma
    in ``known``, and ``index``, the index in ``order`` of each id's label:
    ``order`` maps each stripped label to its first-appearance index."""

    def __init__(self, order: dict[str, int]):
        self.known, self.order = _KnownLines(), order
        self.index = np.zeros(_FIRST_ID, np.intp)  # stand-ins: no label has these ids

    def indices(self, buffer: bytearray, end: int, starts, lengths) -> np.ndarray:
        """The index of each label ``buffer[start : start + length]``.  A
        label that fits the window and repeats the one before it is not
        looked up, so a column sorted by label costs a lookup a run."""
        new = np.ones(starts.size, bool)
        new[1:] = (lengths[1:] != lengths[:-1]) | (lengths[1:] > _WINDOW)
        for row in _keys(np.frombuffer(buffer, np.uint8), starts, lengths):
            new[1:] |= row[1:] != row[:-1]
        heads = np.flatnonzero(new)
        ids, met = _line_ids(self.known, buffer, end, starts[heads], lengths[heads])
        ids = np.repeat(ids, np.diff(heads, append=starts.size))
        if met:
            texts = (raw.decode("utf-8").strip() for raw in met)
            new = [self.order.setdefault(text, len(self.order)) for text in texts]
            self.index = np.concatenate([self.index, new])
        return self.index[ids]


# The fewest lines of a first counts chunk split in numpy (2-vCPU Xeon): at 506
# lines the split and the walk take 0.62 ms each, at 256 0.50 and 0.32 ms.
_FIELD_LINES = 512


def parse_counts_csv(
    stream: BinaryIO, header: bool = False
) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    """Read one cell per row (x label, y label, count).

    Cells never mentioned get count 0; mentioning a cell twice is an
    error.  At least one count must be positive, and every count must fit
    in a signed 64-bit integer.  ``stream`` is binary and is read a chunk
    of whole lines at a time, as :func:`parse_pairs_csv` reads it.  A chunk
    of plain lines (:func:`plain_cells`) is split in numpy: only labels new
    to their column are decoded and stripped, and counts are read from
    their digits.  From the first chunk with another line or a cell met
    before, the labels and cells so far are kept and the rest is walked
    record by record with every rule of the format, so the first bad line
    in the file decides the error, and one line on the ``pairinfo`` logger
    says where and why.  A first chunk of under ``_FIELD_LINES`` lines is
    walked without a log line.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    labels = None
    # Each cell's count, and whether a line named it.
    table, seen = np.zeros((0, 0), np.int64), np.zeros((0, 0), bool)
    read = 0  # lines read so far, each one whole record
    walked = None  # the lines left to the record walk
    chunks = _chunks(stream)
    for buffer, end in chunks:
        plain = reason = None
        if read or buffer.count(b"\n", 0, end) >= _FIELD_LINES:
            plain = plain_cells(buffer, end, 1 if header and not read else 0)
            reason = "a line is not a plain cell"
        if plain is not None:
            *fields, counts, lines = plain
            labels = labels or (Labels(x_order), Labels(y_order))
            xs, ys = (column.indices(buffer, end, *f) for column, f in zip(labels, fields))
            table = _room(table, len(x_order), len(y_order))
            seen = _room(seen, len(x_order), len(y_order))
            flat = xs * table.shape[1] + ys
            ordered = np.sort(flat)
            if not (seen.reshape(-1)[flat].any() or (ordered[1:] == ordered[:-1]).any()):
                table.reshape(-1)[flat], seen.reshape(-1)[flat] = counts, True
                read += lines
                continue
            reason = "a cell is repeated"
        walked = _walk_from(buffer, end, chunks, header, 3, read, reason)
        break
    for lineno, (x, y, raw) in walked or ():
        x, y, raw = x.strip(), y.strip(), raw.strip()
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
        if count > _INT64_MAX:
            raise ValueError(
                f"line {lineno}: count must be at most {_INT64_MAX}, got {count}"
            )
        key = (x_order.setdefault(x, len(x_order)), y_order.setdefault(y, len(y_order)))
        if key[0] >= seen.shape[0] or key[1] >= seen.shape[1]:
            table, seen = (_room(a, len(x_order), len(y_order)) for a in (table, seen))
        if seen[key]:
            raise ValueError(f"line {lineno}: duplicate cell ({x}, {y})")
        table[key], seen[key] = count, True
    alphabets, counts = _labeled(x_order, y_order, table)
    return alphabets, EmpiricalPmf(counts, alphabets.shape)


def serialize_counts_csv(alphabets: LabeledAlphabets, emp: EmpiricalPmf) -> str:
    """Counts-layout CSV for an empirical table, one row per cell.

    Zero cells are written too, so parsing the result reproduces the
    alphabets and counts exactly.  A table whose shape is not the
    alphabets', or a label the reader would strip, or drop as a byte order
    mark as the file's first bytes, raises ``ValueError``.
    """
    if emp.shape != alphabets.shape:
        raise ValueError(
            f"table shape {emp.shape.rows}x{emp.shape.cols} does not match the "
            f"{alphabets.shape.rows}x{alphabets.shape.cols} alphabets"
        )
    labels = alphabets.x_labels + alphabets.y_labels
    for label in labels:
        if label != label.strip():
            raise ValueError(f"label {label!r} has leading or trailing whitespace")
    if alphabets.x_labels[0].startswith("\ufeff"):
        raise ValueError(f"first x label {alphabets.x_labels[0]!r} starts with U+FEFF")
    # The writer quotes a field for "\n", its line terminator, but not for a
    # bare "\r", which the reader takes for the end of a line.
    quoting = csv.QUOTE_ALL if any("\r" in label for label in labels) else csv.QUOTE_MINIMAL
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    cols = emp.shape.cols
    for xi, x in enumerate(alphabets.x_labels):
        for yi, y in enumerate(alphabets.y_labels):
            writer.writerow([x, y, int(emp.counts[cols * xi + yi])])
    return buf.getvalue()
