"""Index bijection between pair outcomes and the flattened single-variable alphabet.

A pair of categorical variables with a row alphabet of size ``rows`` and a
column alphabet of size ``cols`` has ``rows * cols`` joint outcomes.  Joint
outcomes are enumerated row-major and 1-based: cell (i, j) maps to index
``cols * (i - 1) + j``, so (1, 1) is index 1 and (rows, cols) is index
``rows * cols``.  All public indices are 1-based and every error message uses
the same convention; callers that prefer 0-based storage can convert at the
boundary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


def _integer(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int in ``[least, most]``, either end left open by
    ``None``: Python and numpy ints pass, bools and the rest raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


def _integers(values: np.ndarray, name: str, least: int, most: int) -> np.ndarray:
    """A fresh int64 copy of the 1-D array ``values``, of any dtype; the
    first entry that is not an integer in ``[least, most]`` (an integral
    float counts as its int) goes to :func:`_integer` as ``name[i]``."""
    kind = values.dtype.kind
    if kind in "iuf":
        # Bounds that round as floats may flag a good entry, never miss a bad one.
        fit = (values > least - 1) & (values < most + 1)
        if kind == "f":
            fit &= values == np.floor(values)
        suspects = np.flatnonzero(~fit)
        entries = values[suspects].tolist()
    else:  # objects one by one; no bool, str, complex or datetime is an integer
        suspects = range(values.size)
        # A datetime goes as text: its tolist() may give bare ints.
        entries = (values.astype(str) if kind in "Mm" else values).tolist()
    for i, entry in zip(suspects, entries):
        if isinstance(entry, (float, np.floating)) and entry.is_integer():
            entry = int(entry)
        _integer(entry, f"{name}[{i}]", least, most)
    return values.astype(np.int64)


@dataclass(frozen=True)
class PairShape:
    """Alphabet sizes of a pair of categorical variables."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _integer(self.rows, "rows", 1))
        object.__setattr__(self, "cols", _integer(self.cols, "cols", 1))
        # Fail at construction rather than at encode time.
        if self.rows * self.cols > sys.maxsize:
            raise ValueError(
                f"rows * cols = {self.rows} * {self.cols} exceeds the "
                "addressable index range"
            )

    @property
    def size(self) -> int:
        """Number of joint outcomes, rows * cols."""
        return self.rows * self.cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def encode_pair(i: int, j: int, shape: PairShape) -> int:
    """Map the 1-based cell (i, j) to its flattened index cols*(i-1) + j."""
    i = _integer(i, "row index i", 1, shape.rows)
    j = _integer(j, "column index j", 1, shape.cols)
    return shape.cols * (i - 1) + j


def decode_index(k: int, shape: PairShape) -> tuple[int, int]:
    """Invert :func:`encode_pair`: flattened index k back to the cell (i, j)."""
    k = _integer(k, "flattened index k", 1, shape.size)
    i, j = divmod(k - 1, shape.cols)
    return i + 1, j + 1


def diagonal_index(i: int, shape: PairShape) -> int:
    """Flattened index ``encode_pair(i, i, shape)`` of the diagonal cell
    (i, i); the shape must be square."""
    if not shape.is_square:
        raise ValueError(
            f"diagonal index requires a square shape, got {shape.rows} x {shape.cols}"
        )
    i = _integer(i, "diagonal index i", 1, shape.cols)
    return encode_pair(i, i, shape)


__all__ = ["PairShape", "encode_pair", "decode_index", "diagonal_index"]
