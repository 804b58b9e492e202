"""Tests for the 1-based row-major pair <-> index encoding."""

import math

import numpy as np
import pytest

from pairinfo import PairShape, ZPmf, decode_index, diagonal_index, encode_pair

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
        with pytest.raises(ValueError, match="i = 0"):
            encode_pair(0, 1, shape)
        with pytest.raises(ValueError, match="i = 3"):
            encode_pair(3, 1, shape)
        with pytest.raises(ValueError, match="j = 4"):
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
        with pytest.raises(ValueError, match="k = 0"):
            decode_index(0, shape)
        with pytest.raises(ValueError, match="k = 5"):
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
