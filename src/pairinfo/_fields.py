"""The counts field path of :func:`pairinfo.cli.parse_counts_csv`: chunks
of plain counts lines, split in numpy.

Kept out of :mod:`pairinfo.cli`, which imports this module on the first
counts chunk it splits, so that a run that reads no counts file of many
lines does not hold its code: about 0.25 MB resident under CPython 3.11.
"""

import csv

import numpy as np

from .cli import _FIRST_ID, _WINDOW, _keys, _KnownLines, _line_ids, _lines

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
