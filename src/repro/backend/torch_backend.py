"""The optional torch backend (``pip install repro[torch]``).

Torch tensors run the same dense kernels the numpy path runs, behind the
:class:`~repro.backend.base.ArrayBackend` contract.  Two CPU-torch facts
shape the implementation:

* sparse integer matmul is unsupported, so the adjacency operators embed
  into floats with documented exact-integer bounds — float32 for
  neighbour counts (exact while ``max_degree < 2**24``; every graph the
  repo builds is orders of magnitude below that) and float64 for the
  delivered-value products (exact while values stay below ``2**53``;
  workload values are vertex ids and small prefix counters);
* there is no uint64 dtype, so the packed-bitset engine's word kernels
  cannot be expressed — the bitset engine stays numpy-only by contract
  and the broadcast runner says so when asked otherwise.

Randomness never runs here: the counter-based RNG
(:mod:`repro._util.rng`) draws host-side and the coins transfer in, so a
torch run consumes bit-identical per-trial streams to the numpy run —
which is what makes the seeded statistical-equivalence contracts in
``tests/backend/`` tight.

A cupy backend would follow this file's recipe exactly (cupy has real
integer sparse matmul, so it would skip the float embedding); it is
documented in DESIGN.md rather than shipped because CI has no GPU to
hold it to its contract.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["TorchBackend"]


class _TorchNamespace:
    """A small numpy-flavoured facade over :mod:`torch`.

    Exposes the namespace spellings routed modules use (``zeros``,
    ``nonzero`` returning a tuple, ``flatnonzero``) with tensors created
    on the backend's device.  Everything else resolves to the torch
    module itself via attribute fallthrough.
    """

    def __init__(self, torch, device: str) -> None:
        self._torch = torch
        self._device = device

    def __getattr__(self, name):
        return getattr(self._torch, name)

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(shape, dtype=dtype, device=self._device)

    def ones(self, shape, dtype=None):
        return self._torch.ones(shape, dtype=dtype, device=self._device)

    def arange(self, *args, dtype=None):
        return self._torch.arange(*args, dtype=dtype, device=self._device)

    def nonzero(self, array):
        # numpy's tuple-of-index-vectors convention, not torch's (k, ndim).
        return self._torch.nonzero(array, as_tuple=True)

    def flatnonzero(self, array):
        return self._torch.nonzero(array.reshape(-1), as_tuple=True)[0]

    def count_nonzero(self, array):
        return self._torch.count_nonzero(array)


class TorchBackend(ArrayBackend):
    """Torch backend; ``device`` defaults to CPU.

    Raises :class:`ImportError` at construction when torch is not
    installed — :func:`repro.backend.resolve_backend` turns that into the
    documented single-``RuntimeWarning`` numpy fallback.
    """

    name = "torch"
    is_host = False

    def __init__(self, device: str = "cpu") -> None:
        import torch  # the optional extra; ImportError is the fallback signal

        self._torch = torch
        self.device = str(device)
        self.xp = _TorchNamespace(torch, self.device)
        self._dtypes = {
            np.dtype(np.bool_): torch.bool,
            np.dtype(np.int8): torch.int8,
            np.dtype(np.int16): torch.int16,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
        }

    def _dtype(self, dtype):
        if isinstance(dtype, self._torch.dtype):
            return dtype
        key = np.dtype(dtype)
        if key not in self._dtypes:
            raise TypeError(f"torch backend has no mapping for dtype {key}")
        return self._dtypes[key]

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def asarray(self, array, dtype=None):
        t = self._torch
        if isinstance(array, t.Tensor):
            out = array if str(array.device) == self.device else array.to(self.device)
        else:
            out = t.as_tensor(np.ascontiguousarray(array), device=self.device)
        if dtype is not None:
            out = out.to(self._dtype(dtype))
        return out

    def to_numpy(self, array):
        if isinstance(array, self._torch.Tensor):
            return array.detach().cpu().numpy()
        return np.asarray(array)

    def astype(self, array, dtype):
        return self.asarray(array).to(self._dtype(dtype))

    # ------------------------------------------------------------------
    # Kernel ops
    # ------------------------------------------------------------------
    def matmul(self, a, b):
        return a @ b

    def count_nonzero(self, array) -> int:
        return int(self._torch.count_nonzero(self.asarray(array)))

    def where(self, condition, a, b):
        return self._torch.where(condition, a, b)

    def maximum(self, a, b):
        return self._torch.maximum(a, b)

    def ones_like(self, array):
        return self._torch.ones_like(array)

    def is_bool(self, array) -> bool:
        if isinstance(array, self._torch.Tensor):
            return array.dtype == self._torch.bool
        return bool(np.asarray(array).dtype == bool)

    # ------------------------------------------------------------------
    # Adjacency operators
    # ------------------------------------------------------------------
    def _coo(self, graph, dtype):
        """The graph's 0/1 adjacency as a coalesced sparse COO tensor,
        built from the plain-numpy CSR (no scipy materialization)."""
        t = self._torch
        csr = graph.csr
        rows = np.repeat(
            np.arange(csr.n, dtype=np.int64),
            csr.degrees.astype(np.int64),
        )
        cols = csr.indices.astype(np.int64)
        indices = t.as_tensor(
            np.ascontiguousarray(np.stack([rows, cols])), device=self.device
        )
        values = t.ones(cols.shape[0], dtype=dtype, device=self.device)
        return t.sparse_coo_tensor(
            indices, values, (csr.n, csr.n), device=self.device
        ).coalesce()

    def adjacency_operator(self, graph, dtype):
        # CPU torch has no integer sparse matmul: embed into float32,
        # exact while max_degree < 2**24 (the requested narrow host dtype
        # already certifies a far smaller bound).
        return self._coo(graph, self._torch.float32)

    def neighbor_counts(self, operator, transmitting):
        t = self._torch
        dense = self.asarray(transmitting).to(t.float32)
        if dense.ndim == 1:
            return t.sparse.mm(operator, dense[:, None])[:, 0]
        return t.sparse.mm(operator, dense)

    def value_operator(self, graph):
        return self._coo(graph, self._torch.float64)

    def value_matmul(self, operator, values):
        t = self._torch
        dense = self.asarray(values).to(t.float64)
        squeeze = dense.ndim == 1
        if squeeze:
            dense = dense[:, None]
        out = t.sparse.mm(operator, dense).round().to(t.int64)
        return out[:, 0] if squeeze else out

    # ------------------------------------------------------------------
    # Device
    # ------------------------------------------------------------------
    def synchronize(self) -> None:
        if self.device.startswith("cuda"):  # pragma: no cover - no CI GPU
            self._torch.cuda.synchronize()
