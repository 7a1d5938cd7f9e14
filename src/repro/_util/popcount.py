"""Vectorized population counts for subset-enumeration kernels.

The exact wireless-expansion computation (:mod:`repro.expansion.wireless`)
enumerates all ``2^k`` subsets of a vertex set ``S`` as ``uint32``/``uint64``
bitmasks and needs, for every right-side vertex ``v`` with neighbourhood mask
``m_v``, the number of set bits of ``mask & m_v`` across the whole subset
array at once.  numpy >= 2.0 does that with the native ``np.bitwise_count``
ufunc; on older numpy a 16-bit lookup table keeps it a handful of
vectorized gathers instead of a Python loop per subset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["POPCOUNT16", "popcount_u32", "popcount_u64"]


def _build_table() -> np.ndarray:
    table = np.zeros(1 << 16, dtype=np.uint8)
    for i in range(16):
        table[(np.arange(1 << 16) >> i) & 1 == 1] += 1
    return table


#: ``POPCOUNT16[x]`` is the number of set bits of the 16-bit integer ``x``.
POPCOUNT16: np.ndarray = _build_table()

#: The native popcount ufunc (numpy >= 2.0); older numpy falls back to
#: :data:`POPCOUNT16` gathers.  Both return ``uint8`` counts.
_bitwise_count = getattr(np, "bitwise_count", None)


def _table_popcount_u32(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.uint32)
    lo = POPCOUNT16[values & np.uint32(0xFFFF)]
    hi = POPCOUNT16[values >> np.uint32(16)]
    return lo + hi


def _table_popcount_u64(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.uint64)
    c = POPCOUNT16[values & np.uint64(0xFFFF)]
    c = c + POPCOUNT16[(values >> np.uint64(16)) & np.uint64(0xFFFF)]
    c = c + POPCOUNT16[(values >> np.uint64(32)) & np.uint64(0xFFFF)]
    c = c + POPCOUNT16[values >> np.uint64(48)]
    return c


def popcount_u32(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint32`` array (returns ``uint8`` counts)."""
    if _bitwise_count is None:
        return _table_popcount_u32(values)
    return _bitwise_count(np.asarray(values, dtype=np.uint32))


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (returns ``uint8`` counts)."""
    if _bitwise_count is None:
        return _table_popcount_u64(values)
    return _bitwise_count(np.asarray(values, dtype=np.uint64))
