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


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy ints pass, bools and the rest raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PairShape:
    """Alphabet sizes of a pair of categorical variables."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _integer(self.rows, "rows"))
        object.__setattr__(self, "cols", _integer(self.cols, "cols"))
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if self.cols < 1:
            raise ValueError(f"cols must be >= 1, got {self.cols}")
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
    i, j = _integer(i, "row index i"), _integer(j, "column index j")
    if not 1 <= i <= shape.rows:
        raise ValueError(f"row index i = {i} outside [1, {shape.rows}]")
    if not 1 <= j <= shape.cols:
        raise ValueError(f"column index j = {j} outside [1, {shape.cols}]")
    return shape.cols * (i - 1) + j


def decode_index(k: int, shape: PairShape) -> tuple[int, int]:
    """Invert :func:`encode_pair`: flattened index k back to the cell (i, j)."""
    k = _integer(k, "flattened index k")
    if not 1 <= k <= shape.size:
        raise ValueError(f"flattened index k = {k} outside [1, {shape.size}]")
    i, j = divmod(k - 1, shape.cols)
    return i + 1, j + 1


def diagonal_index(i: int, shape: PairShape) -> int:
    """Flattened index ``encode_pair(i, i, shape)`` of the diagonal cell
    (i, i); the shape must be square."""
    if not shape.is_square:
        raise ValueError(
            f"diagonal index requires a square shape, got {shape.rows} x {shape.cols}"
        )
    i = _integer(i, "diagonal index i")
    if not 1 <= i <= shape.cols:
        raise ValueError(f"diagonal index i = {i} outside [1, {shape.cols}]")
    return encode_pair(i, i, shape)


__all__ = ["PairShape", "encode_pair", "decode_index", "diagonal_index"]
