"""Pluggable array backends for the dense simulation kernels.

The engine's hot paths — neighbour-count products, channel reception
folds, workload value folds, the expansion pipeline's boundary-mask
mat-mats — run through an
:class:`~repro.backend.base.ArrayBackend` shim instead of importing
numpy directly.  :data:`HOST` is the always-on numpy backend (its ``xp``
is literally :mod:`numpy`, so host-side code spells ``np = HOST.xp`` and
runs bit-for-bit the pre-backend kernels); accelerator backends are
optional extras resolved by name:

>>> from repro.backend import resolve_backend
>>> resolve_backend(None).name          # the default
'numpy'
>>> resolve_backend("torch").name       # 'torch' when installed,
'...'                                   # numpy + one RuntimeWarning when not

Selection threads through the stack as the ``backend=`` scenario
segment, the CLI's ``--backend`` flag, and ``run_broadcast_batch``'s
``backend=`` keyword; it is serialized only when non-default, so
pre-backend cache keys never move.
"""

from __future__ import annotations

import warnings

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_NAMES",
    "HOST",
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]

#: The always-on host backend (numpy).  A singleton: identity checks like
#: ``backend is HOST`` are valid fast paths.
HOST = NumpyBackend()

#: Names ``backend=`` accepts, mapped to short descriptions (torch is an
#: optional extra; cupy is documented in DESIGN.md as the GPU recipe).
BACKEND_NAMES: dict[str, str] = {
    "numpy": "host numpy (the always-on default; bit-for-bit reference)",
    "torch": "torch tensors, CPU or CUDA (optional extra: repro[torch])",
}


def _build(name: str, device: str | None) -> ArrayBackend:
    if name == "numpy":
        return HOST
    if name == "torch":
        from repro.backend.torch_backend import TorchBackend

        return TorchBackend(device) if device else TorchBackend()
    raise ValueError(
        f"unknown backend {name!r}; known backends: "
        f"{', '.join(sorted(BACKEND_NAMES))}"
    )


def get_backend(name: str) -> ArrayBackend:
    """Build a backend by name, raising :class:`ImportError` when the
    backing library is absent (``resolve_backend`` adds the fallback).

    ``"torch:cuda"``-style suffixes select a device; the bare name is the
    backend's default device.
    """
    key = str(name).strip().lower()
    base, _, device = key.partition(":")
    return _build(base, device or None)


def resolve_backend(spec) -> ArrayBackend:
    """The engine's resolution rule: backend instance, name, or ``None``.

    ``None`` / ``"numpy"`` return the :data:`HOST` singleton.  A named
    accelerator backend whose library is not installed degrades to numpy
    with a single :class:`RuntimeWarning` — runs never fail for lack of
    an optional extra, they just run on the host.
    """
    if spec is None:
        return HOST
    if isinstance(spec, ArrayBackend):
        return spec
    try:
        return get_backend(spec)
    except ImportError as exc:
        warnings.warn(
            f"backend {spec!r} is unavailable ({exc}); falling back to "
            "numpy (install the optional extra, e.g. pip install "
            "'wireless-expanders-repro[torch]')",
            RuntimeWarning,
            stacklevel=2,
        )
        return HOST


def available_backends() -> dict[str, bool]:
    """Which registered backends can actually be built here (the CLI's
    discovery surface and the backend-parametrized suite's skip gate)."""
    out: dict[str, bool] = {}
    for name in BACKEND_NAMES:
        try:
            get_backend(name)
        except ImportError:
            out[name] = False
        else:
            out[name] = True
    return out
