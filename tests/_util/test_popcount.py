"""Unit tests for the vectorized popcount tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.popcount import (
    POPCOUNT16,
    _table_popcount_u32,
    _table_popcount_u64,
    popcount_u32,
    popcount_u64,
)


class TestTable:
    def test_size_and_extremes(self):
        assert POPCOUNT16.shape == (1 << 16,)
        assert POPCOUNT16[0] == 0
        assert POPCOUNT16[0xFFFF] == 16

    def test_spot_values(self):
        assert POPCOUNT16[0b1011] == 3
        assert POPCOUNT16[1 << 15] == 1


class TestPopcountU32:
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50))
    def test_matches_python_bit_count(self, values):
        arr = np.array(values, dtype=np.uint32)
        expected = np.array([v.bit_count() for v in values], dtype=np.uint8)
        assert (popcount_u32(arr) == expected).all()

    def test_empty(self):
        assert popcount_u32(np.array([], dtype=np.uint32)).shape == (0,)


class TestPopcountU64:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=50))
    def test_matches_python_bit_count(self, values):
        arr = np.array(values, dtype=np.uint64)
        expected = np.array([v.bit_count() for v in values], dtype=np.uint16)
        assert (popcount_u64(arr).astype(np.uint16) == expected).all()

    def test_all_ones(self):
        assert popcount_u64(np.array([2**64 - 1], dtype=np.uint64))[0] == 64


class TestNativeAndTablePathsAgree:
    """``np.bitwise_count`` (numpy >= 2.0) and the 16-bit-table fallback
    must return the same counts in the same dtype."""

    EDGE_U64 = [0, 2**64 - 1] + [1 << b for b in range(64)]
    EDGE_U32 = [0, 2**32 - 1] + [1 << b for b in range(32)]

    @staticmethod
    def _native():
        native = getattr(np, "bitwise_count", None)
        if native is None:
            pytest.skip("numpy has no bitwise_count")
        return native

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=50))
    def test_u64_random_words(self, values):
        native = self._native()
        arr = np.array(values + self.EDGE_U64, dtype=np.uint64)
        table = _table_popcount_u64(arr)
        assert table.dtype == native(arr).dtype == popcount_u64(arr).dtype
        assert np.array_equal(table, native(arr))
        assert np.array_equal(popcount_u64(arr), table)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50))
    def test_u32_random_words(self, values):
        native = self._native()
        arr = np.array(values + self.EDGE_U32, dtype=np.uint32)
        table = _table_popcount_u32(arr)
        assert table.dtype == native(arr).dtype == popcount_u32(arr).dtype
        assert np.array_equal(table, native(arr))
        assert np.array_equal(popcount_u32(arr), table)

    def test_edge_words(self):
        arr = np.array(self.EDGE_U64, dtype=np.uint64)
        expected = [0, 64] + [1] * 64
        assert _table_popcount_u64(arr).tolist() == expected
        assert popcount_u64(arr).tolist() == expected
