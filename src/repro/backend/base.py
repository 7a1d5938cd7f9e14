"""The array-backend contract every routed dense kernel runs through.

An :class:`ArrayBackend` is a thin shim over one array library: a
namespace handle (:attr:`~ArrayBackend.xp`), host transfer
(:meth:`~ArrayBackend.asarray` / :meth:`~ArrayBackend.to_numpy`), the
handful of ops the engine's hot paths actually use (``matmul`` /
``count_nonzero``-style), and the two adjacency operators behind every
simulation kernel:

* :meth:`~ArrayBackend.neighbor_counts` — the narrow-integer sparse
  product ``counts = A @ transmit`` that every channel's reception rule
  folds (``RadioNetwork.transmit_counts``);
* :meth:`~ArrayBackend.value_matmul` — the exact int64 delivered-value
  product ``A @ (transmitting · values)`` the value workloads and the
  expansion pipeline's boundary-mask extraction build on.

Contract discipline
-------------------
The numpy backend (:class:`repro.backend.numpy_backend.NumpyBackend`) is
the *host* backend: its ``xp`` is literally :mod:`numpy`, its transfer
ops are identity ``np.asarray`` calls, and its operators are the exact
expressions the engine used before the shim existed — so the numpy path
is bit-for-bit the pre-backend engine, with zero new tolerance.

Accelerator backends (torch today, cupy by the same recipe) satisfy a
*statistical* equivalence contract instead: counter-based randomness is
always drawn host-side (``repro._util.rng`` is pure numpy) and
transferred in, so per-trial streams are identical, but floating-point
matmul embeddings may legally differ at the representation level.  The
torch backend's integer embeddings are exact within documented bounds
(float32 counts: ``max_degree < 2**24``; float64 values: ``< 2**53``),
so in practice torch-cpu results are bit-equal too — the
backend-parametrized suite pins both contracts.

Result arrays and the packed-bitset engine are host-resident by
contract: every ``BatchBroadcastResult`` field is a numpy array, and the
bitset kernels (uint64 word tricks numpy owns and torch has no dtype
for) never route through a backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = ["ArrayBackend"]


class ArrayBackend(ABC):
    """One array library behind the dense simulation kernels."""

    #: Registry name (``"numpy"``, ``"torch"``; what ``backend=`` selects).
    name: str = "abstract"

    #: Where this backend's arrays live (``"cpu"``, ``"cuda"``, ...).
    device: str = "cpu"

    #: True only for the numpy host backend: transfer ops are identity,
    #: arrays are numpy arrays, and host-only code (the bitset engine,
    #: scipy structures) may consume them directly.
    is_host: bool = False

    #: The backend's array namespace: :mod:`numpy` itself on the host
    #: backend, a numpy-flavoured facade over the library elsewhere.
    xp: Any = None

    @property
    def spec(self) -> str:
        """The registry string that rebuilds this backend via
        :func:`repro.backend.get_backend` — picklable where live backend
        handles (which hold library modules) are not."""
        return self.name if self.device == "cpu" else f"{self.name}:{self.device}"

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    @abstractmethod
    def asarray(self, array, dtype=None):
        """Move a (host or backend) array onto this backend.

        Host backend: identity ``np.asarray``.  Accelerators: a device
        transfer (no-op for arrays already resident).  ``dtype`` uses the
        *numpy* dtype vocabulary; backends map it through their dtype
        table.
        """

    @abstractmethod
    def to_numpy(self, array):
        """Move a backend array back to host numpy (identity on host)."""

    def astype(self, array, dtype):
        """Backend array cast, numpy dtype vocabulary."""
        return self.asarray(array, dtype=dtype)

    # ------------------------------------------------------------------
    # The kernel ops the routed hot paths actually use
    # ------------------------------------------------------------------
    @abstractmethod
    def matmul(self, a, b):
        """Dense ``a @ b`` on backend arrays."""

    @abstractmethod
    def count_nonzero(self, array) -> int:
        """Number of nonzero entries, as a Python int."""

    @abstractmethod
    def where(self, condition, a, b):
        """Elementwise select — the masked-fold primitive value workloads
        use in place of numpy's ``out=/where=`` in-place forms."""

    @abstractmethod
    def maximum(self, a, b):
        """Elementwise maximum."""

    @abstractmethod
    def ones_like(self, array):
        """An all-ones array matching ``array``'s shape and dtype."""

    def is_bool(self, array) -> bool:
        """Whether ``array`` is a boolean array of this backend."""
        return bool(getattr(array, "dtype", None) == bool)

    # ------------------------------------------------------------------
    # Adjacency operators (the two sparse kernels behind everything)
    # ------------------------------------------------------------------
    @abstractmethod
    def adjacency_operator(self, graph, dtype):
        """A backend-resident operator for the neighbour-count product.

        ``dtype`` is the host count dtype
        (:func:`repro._util.dtypes.count_dtype_for_degree`); backends
        without narrow-integer matmul may embed into a wider exact type
        and must document the exactness bound.
        """

    @abstractmethod
    def neighbor_counts(self, operator, transmitting):
        """``operator @ transmitting`` — per-vertex transmitting-neighbour
        counts for one trial vector or an ``(n, T)`` trial matrix."""

    @abstractmethod
    def value_operator(self, graph):
        """A backend-resident operator for exact int64 delivered-value
        products (``A @ (transmitting · values)``)."""

    @abstractmethod
    def value_matmul(self, operator, values):
        """``operator @ values`` with exact int64 results (backends using
        a float embedding must stay within its exact-integer range)."""

    # ------------------------------------------------------------------
    # Device
    # ------------------------------------------------------------------
    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on host) —
        what the benches call around timed regions."""

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"<{type(self).__name__} name={self.name!r} device={self.device!r}>"
