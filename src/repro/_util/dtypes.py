"""Dtype-narrowing policy shared by the dense and packed engines.

One module owns every "how narrow can this integer be" decision so the
radio network, the CSR storage and the bitset kernels cannot drift apart:

* :func:`count_dtype_for_degree` — the neighbour-count dtype of the dense
  engine's count kernel (``counts = A @ transmit``): counts are bounded by
  the max degree, and the narrower the count, the more trials one word
  lane-sums at once;
* :func:`narrow_uint` — index-array narrowing for CSR ``indptr`` /
  ``indices`` storage;
* :data:`WORD_DTYPE` / :data:`WORD_BITS` — the packed-bitset trial-word
  layout (64 trial bits to a uint64 word).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "WORD_DTYPE",
    "count_dtype_for_degree",
    "narrow_uint",
]

#: The packed-bitset engines' trial-word dtype and width.  Everything that
#: packs trials into words (bitset kernels, packed counter coins, the
#: transmission tally) assumes exactly this layout.
WORD_DTYPE = np.uint64
WORD_BITS = 64


def count_dtype_for_degree(max_degree: int) -> type:
    """Narrowest signed dtype holding neighbour counts up to ``max_degree``.

    Signed (not uint) because count matrices feed comparisons and
    subtractions; the bound is the positive range of the dtype.
    """
    max_degree = int(max_degree)
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    if max_degree < 2**7:
        return np.int8
    if max_degree < 2**15:
        return np.int16
    if max_degree < 2**31:
        return np.int32
    return np.int64


def narrow_uint(values: np.ndarray, max_value: int) -> np.ndarray:
    """Cast an index array to the narrowest uint dtype holding ``max_value``.

    ``max_value`` below zero clamps to zero (an empty structure's bound),
    matching :func:`numpy.min_scalar_type` on the clamped value.
    """
    dtype = np.min_scalar_type(max(int(max_value), 0))
    return np.asarray(values).astype(dtype, copy=False)
