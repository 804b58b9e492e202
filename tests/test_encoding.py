"""Tests for the 1-based row-major pair <-> index encoding."""

import io
import math
import re
import sys

import numpy as np
import pytest

from pairinfo import (
    PairShape,
    RngSpec,
    ZPmf,
    chi_square_cdf,
    chi_square_quantile,
    confidence_interval,
    convergence_trace,
    decode_index,
    diagonal_index,
    encode_pair,
    estimate_pmf,
    normality_study,
    rejection_rate,
    sample_z,
    variance_check,
)
from pairinfo.cli import parse_counts_csv, parse_sizes
from pairinfo.pmf import _from_objects

NOT_INTEGERS = [1.5, 2.0, math.nan, True, "2", None]


class TestPairShape:
    def test_size_and_square(self):
        assert PairShape(3, 4).size == 12
        assert PairShape(3, 3).is_square
        assert not PairShape(3, 4).is_square

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            PairShape(0, 4)
        with pytest.raises(ValueError):
            PairShape(3, -1)

    def test_rejects_overflowing_size(self):
        with pytest.raises(ValueError, match="addressable"):
            PairShape(2**40, 2**40)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer_dimensions(self, value):
        with pytest.raises(ValueError, match="rows must be an integer"):
            PairShape(value, 2)
        with pytest.raises(ValueError, match="cols must be an integer"):
            PairShape(2, value)

    def test_a_fractional_shape_never_reaches_a_pmf(self):
        with pytest.raises(ValueError, match="rows must be an integer"):
            ZPmf([1 / 3] * 3, PairShape(1.5, 2))

    def test_stores_numpy_integers_as_ints(self):
        shape = PairShape(np.int64(2), np.uint8(3))
        assert shape == PairShape(2, 3)
        assert type(shape.rows) is int and type(shape.cols) is int
        assert type(shape.size) is int


class TestEncodePair:
    def test_row_major_layout(self):
        """k = cols*(i-1) + j walks the table row by row."""
        shape = PairShape(2, 3)
        expected = {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 4, (2, 2): 5, (2, 3): 6}
        for (i, j), k in expected.items():
            assert encode_pair(i, j, shape) == k

    def test_out_of_range_coordinates(self):
        shape = PairShape(2, 3)
        with pytest.raises(ValueError, match="^row index i must be at least 1, got 0$"):
            encode_pair(0, 1, shape)
        with pytest.raises(ValueError, match="^row index i must be at most 2, got 3$"):
            encode_pair(3, 1, shape)
        with pytest.raises(ValueError, match="^column index j must be at most 3, got 4$"):
            encode_pair(1, 4, shape)


    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer_coordinates(self, value):
        shape = PairShape(2, 3)
        with pytest.raises(ValueError, match="row index i must be an integer"):
            encode_pair(value, 1, shape)
        with pytest.raises(ValueError, match="column index j must be an integer"):
            encode_pair(1, value, shape)

    def test_numpy_coordinates_give_an_int(self):
        k = encode_pair(np.int64(2), np.int32(3), PairShape(2, 3))
        assert k == 6 and type(k) is int


class TestDecodeIndex:
    def test_inverse_formulas(self):
        """i = floor((k + cols - 1)/cols), j = k - cols*(i-1)."""
        shape = PairShape(3, 5)
        assert decode_index(1, shape) == (1, 1)
        assert decode_index(5, shape) == (1, 5)
        assert decode_index(6, shape) == (2, 1)
        assert decode_index(15, shape) == (3, 5)

    def test_out_of_range_index(self):
        shape = PairShape(2, 2)
        with pytest.raises(ValueError, match="^flattened index k must be at least 1, got 0$"):
            decode_index(0, shape)
        with pytest.raises(ValueError, match="^flattened index k must be at most 4, got 5$"):
            decode_index(5, shape)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer_index(self, value):
        with pytest.raises(ValueError, match="flattened index k must be an integer"):
            decode_index(value, PairShape(2, 3))

    def test_numpy_index_gives_ints(self):
        cell = decode_index(np.int64(5), PairShape(2, 3))
        assert cell == (2, 2) and all(type(v) is int for v in cell)

    def test_bijection_small_shapes(self):
        """encode and decode invert each other on every cell."""
        for rows in range(1, 9):
            for cols in range(1, 9):
                shape = PairShape(rows, cols)
                seen = set()
                for i in range(1, rows + 1):
                    for j in range(1, cols + 1):
                        k = encode_pair(i, j, shape)
                        assert decode_index(k, shape) == (i, j)
                        seen.add(k)
                assert seen == set(range(1, shape.size + 1))


class TestDiagonalIndex:
    def test_matches_encode_of_equal_coordinates(self):
        for s in range(1, 14):
            shape = PairShape(s, s)
            for i in range(1, s + 1):
                assert diagonal_index(i, shape) == encode_pair(i, i, shape)
                assert diagonal_index(i, shape) == 1 + (i - 1) * (s + 1)

    def test_requires_square_shape(self):
        with pytest.raises(ValueError, match="square"):
            diagonal_index(1, PairShape(2, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            diagonal_index(4, PairShape(3, 3))

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer_index(self, value):
        with pytest.raises(ValueError, match="diagonal index i must be an integer"):
            diagonal_index(value, PairShape(3, 3))


class _Drawn(Exception):
    """Raised by :class:`_NoDraws` where a study would draw its first replicate."""


class _NoDraws(RngSpec):
    """A seed whose substreams are never built: a study that reaches one has
    taken its sizes and counts."""

    def substream(self, stream):
        raise _Drawn


DEMO = ZPmf([0.1, 0.2, 0.3, 0.4], PairShape(2, 2))
INT64_MAX = 2**63 - 1

# Each bounded integer input: its name in the message, a call that passes it
# the value, and its least and most values (None where the range is open).
BOUNDED = {
    "PairShape rows": ("rows", lambda v: PairShape(v, 1), 1, None),
    "PairShape cols": ("cols", lambda v: PairShape(1, v), 1, None),
    "encode_pair i": ("row index i", lambda v: encode_pair(v, 1, PairShape(3, 4)), 1, 3),
    "encode_pair j": ("column index j", lambda v: encode_pair(1, v, PairShape(3, 4)), 1, 4),
    "decode_index": ("flattened index k", lambda v: decode_index(v, PairShape(3, 4)), 1, 12),
    "diagonal_index": ("diagonal index i", lambda v: diagonal_index(v, PairShape(3, 3)), 1, 3),
    "substream": ("stream index", lambda v: RngSpec(0).substream(v), 0, 2**64 - 1),
    "sample_z": ("sample size", lambda v: sample_z(DEMO, v, RngSpec(0)), 1, None),
    "trace size": (
        "sample size", lambda v: convergence_trace(DEMO, [v], "mi", _NoDraws()), 1, INT64_MAX
    ),
    "normality n": (
        "sample size", lambda v: normality_study(DEMO, v, 100, "mi", _NoDraws()), 1000, INT64_MAX
    ),
    "normality replicates": (
        "replicates", lambda v: normality_study(DEMO, 1000, v, "mi", _NoDraws()), 100, sys.maxsize
    ),
    "power n": (
        "sample size", lambda v: rejection_rate(DEMO, v, 1, 0.05, _NoDraws()), 1, INT64_MAX
    ),
    "power replicates": (
        "replicates", lambda v: rejection_rate(DEMO, 10, v, 0.05, _NoDraws()), 1, sys.maxsize
    ),
    "variance n": (
        "sample size", lambda v: variance_check(DEMO, v, 2, "mi", _NoDraws()), 1, INT64_MAX
    ),
    "variance replicates": (
        "replicates", lambda v: variance_check(DEMO, 10, v, "mi", _NoDraws()), 2, sys.maxsize
    ),
    "interval n": ("sample size", lambda v: confidence_interval(0.5, 0.1, v, 0.05), 1, None),
    "chi-square cdf df": ("degrees of freedom", lambda v: chi_square_cdf(1.0, v), 1, None),
    "chi-square quantile df": (
        "degrees of freedom", lambda v: chi_square_quantile(0.95, v), 1, None
    ),
    "sizes start": ("sizes start", lambda v: parse_sizes(f"{v}:{max(v, 1)}:1"), 1, None),
    "sizes step": ("sizes step", lambda v: parse_sizes(f"1:2:{v}"), 1, None),
    "counts line": (
        "line 1: count",
        # The second line keeps the sample nonempty and its total in int64.
        lambda v: parse_counts_csv(io.BytesIO(f"x1,y1,{v}\nx1,y2,{int(v < 1)}\n".encode()), False),
        0,
        INT64_MAX,
    ),
    "object count": (
        "count", lambda v: _from_objects(np.array([v], dtype=object), "count"),
        -(2**63), INT64_MAX,
    ),
    "sample outcome": ("sample[0]", lambda v: estimate_pmf([v], PairShape(2, 2)), 1, 4),
}


def _takes(call, value):
    """``call(value)`` passes the range check: it returns, or fails past it."""
    try:
        call(value)
    except (_Drawn, MemoryError):  # numpy makes no view of 2**60 sizes or more
        pass


@pytest.mark.parametrize("name, call, least, most", BOUNDED.values(), ids=list(BOUNDED))
def test_each_bounded_input_takes_its_range_and_refuses_one_step_past(name, call, least, most):
    """Every bounded integer input states its range through
    ``encoding._integer``, in the same two texts."""
    _takes(call, least)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {least}, got "
                                         f"{least - 1}$"):
        call(least - 1)
    if most is not None:
        _takes(call, most)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at most {most}, got "
                                             f"{most + 1}$"):
            call(most + 1)
