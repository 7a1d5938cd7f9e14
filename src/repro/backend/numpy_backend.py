"""The always-on host backend: numpy, verbatim.

Every method is the exact expression the engine used before the backend
shim existed — ``asarray``/``to_numpy`` are identity ``np.asarray``
calls, the neighbour-count operator is the scipy CSR cast
``graph.adjacency.astype(count_dtype, copy=False)``, and the value
operator is the raw ``graph.adjacency`` the workload folds always
multiplied by.  That makes the numpy path through the shim bit-for-bit
the pre-backend engine: same objects, same kernels, same dtypes.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host numpy backend — the default everywhere."""

    name = "numpy"
    device = "cpu"
    is_host = True
    xp = np

    def asarray(self, array, dtype=None):
        return np.asarray(array) if dtype is None else np.asarray(array, dtype)

    def to_numpy(self, array):
        return np.asarray(array)

    def astype(self, array, dtype):
        return np.asarray(array).astype(dtype)

    def matmul(self, a, b):
        return a @ b

    def count_nonzero(self, array) -> int:
        return int(np.count_nonzero(array))

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def ones_like(self, array):
        return np.ones_like(array)

    def is_bool(self, array) -> bool:
        return bool(np.asarray(array).dtype == bool)

    def adjacency_operator(self, graph, dtype):
        # The scipy CSR cast the pre-backend RadioNetwork built lazily —
        # copy=False so the int8 common case aliases scipy's own buffers.
        return graph.adjacency.astype(dtype, copy=False)

    def neighbor_counts(self, operator, transmitting):
        return operator @ np.asarray(transmitting).astype(operator.dtype)

    def value_operator(self, graph):
        # The raw int32 scipy CSR: int64 operands upcast the product,
        # exactly as the workload folds always computed it.
        return graph.adjacency

    def value_matmul(self, operator, values):
        return operator @ values
