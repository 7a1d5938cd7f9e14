"""Content-addressed result store for the experiment runtime.

Every runtime task — one grid point (or one repetition) of a sweep, one
bench measurement — is addressed by a stable hash of *what would be
computed*: the task function's qualified name, its parameters, its derived
seed, and a code-version salt.  Because the repo's seeding discipline makes
every task a pure function of exactly those inputs, the hash is a true
content address: re-running a sweep looks each task up before computing it,
so warm reruns are pure cache replays and interrupted runs resume where
they stopped (see :mod:`repro.runtime.manifest`).

Payloads persist under ``results/cache/`` as one JSON document per task;
numpy arrays inside a result are packed into one ``uint8`` blob, the only
member of an ``.npz`` sidecar.  Integer arrays are stored in the narrowest
integer dtype of their signedness that holds their values, and the JSON
document's ``layout`` records each array's original dtype and shape, so
dtypes and shapes survive the round trip bit for bit.  Corrupted entries
(truncated JSON, missing sidecar, a failed zip CRC, a size mismatch,
undecodable payload) are discarded and treated as misses — the cache can
always be rebuilt by recomputing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.obs.metrics import METRICS
from repro.obs.tracing import active_recorder

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ResultStore",
    "canonical_dumps",
    "code_salt",
    "expansion_key",
    "scenario_key",
    "task_key",
    "write_json_payload",
]

#: Default cache root, relative to the invoking process's working directory
#: (the CLI's ``--cache-dir`` and :class:`ResultStore`'s ``root`` override it).
DEFAULT_CACHE_DIR = os.path.join("results", "cache")

_KIND = "__kind__"

#: Key-schema revision, mixed into the salt alongside the package version.
#: Bumped whenever how keys are derived changes — ``k2``: scenario-canonical
#: keys (spec-equal runs share an address regardless of producing helper).
_KEY_SCHEMA = "k3"


def code_salt() -> str:
    """The code-version salt mixed into every task key.

    Bumping the package version or the key-schema revision (or setting
    ``REPRO_CACHE_SALT``) retires every cached result at once — the blunt
    but safe answer to "did the code that produced this payload change?".
    """
    env = os.environ.get("REPRO_CACHE_SALT")
    if env:
        return env
    try:
        version = importlib.metadata.version("wireless-expanders-repro")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        version = "unversioned"
    return f"{version}+{_KEY_SCHEMA}"


def _encode(obj: Any, arrays: list[np.ndarray] | None, inline: bool) -> Any:
    """Lower ``obj`` to a JSON-able tree.

    Three modes share this walker:

    * ``arrays`` a list — arrays are appended to it and referenced by index
      (the ``.npz`` persistence mode, lossless);
    * ``inline=True`` — arrays/scalars become plain lists/numbers (the
      human-readable sidecar mode, lossy on dtype);
    * otherwise — arrays are replaced by a digest of their bytes (the
      key-hashing mode, where only identity matters).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        if inline:
            return obj.tolist()
        if arrays is not None:
            if obj.dtype.hasobject:
                raise TypeError(
                    f"cannot persist an array of dtype {obj.dtype} in the "
                    "result store; object arrays have no byte layout"
                )
            arrays.append(obj)
            return {_KIND: "ndarray", "ref": len(arrays) - 1}
        data = np.ascontiguousarray(obj)
        return {
            _KIND: "ndarray",
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(obj, np.generic):
        if inline:
            return obj.item()
        return {_KIND: "npscalar", "dtype": obj.dtype.str, "value": obj.item()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _encode(getattr(obj, f.name), arrays, inline)
            for f in dataclasses.fields(obj)
        }
        if inline:
            return fields
        return {
            _KIND: "dataclass",
            "type": f"{type(obj).__module__}:{type(obj).__qualname__}",
            "fields": fields,
        }
    if isinstance(obj, tuple):
        items = [_encode(v, arrays, inline) for v in obj]
        return items if inline else {_KIND: "tuple", "items": items}
    if isinstance(obj, list):
        return [_encode(v, arrays, inline) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _KIND not in obj:
            return {k: _encode(v, arrays, inline) for k, v in obj.items()}
        return {
            _KIND: "dict",
            "items": [
                [_encode(k, arrays, inline), _encode(v, arrays, inline)]
                for k, v in obj.items()
            ],
        }
    raise TypeError(
        f"cannot persist {type(obj).__name__} in the result store; supported "
        "payloads are JSON scalars, lists/tuples/dicts, numpy arrays and "
        "scalars, and dataclasses of those"
    )


def _decode(obj: Any, arrays: list[np.ndarray]) -> Any:
    """Invert the ``.npz`` persistence mode of :func:`_encode`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_decode(v, arrays) for v in obj]
    kind = obj.get(_KIND)
    if kind is None:
        return {k: _decode(v, arrays) for k, v in obj.items()}
    if kind == "ndarray":
        return arrays[obj["ref"]]
    if kind == "npscalar":
        return np.dtype(obj["dtype"]).type(obj["value"])
    if kind == "tuple":
        return tuple(_decode(v, arrays) for v in obj["items"])
    if kind == "dict":
        return {_decode(k, arrays): _decode(v, arrays) for k, v in obj["items"]}
    if kind == "dataclass":
        module, _, qualname = obj["type"].partition(":")
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        return target(**{k: _decode(v, arrays) for k, v in obj["fields"].items()})
    raise ValueError(f"unknown payload marker {kind!r}")


_SIGNED = (np.int8, np.int16, np.int32, np.int64)
_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


def _stored_dtype(arr: np.ndarray) -> np.dtype:
    """The dtype ``arr`` is stored in: integers shrink to the narrowest
    native dtype of the same signedness holding their ``[min, max]``;
    everything else is stored as it is."""
    if arr.dtype.kind not in "iu":
        return arr.dtype
    ladder = _SIGNED if arr.dtype.kind == "i" else _UNSIGNED
    if arr.size == 0:
        return np.dtype(ladder[0])
    lo, hi = int(arr.min()), int(arr.max())
    for candidate in ladder[:-1]:
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            return np.dtype(candidate)
    return np.dtype(ladder[-1])


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """Concatenate the arrays' C-order bytes, narrowed, into one ``uint8``
    blob; returns it with the ``[original descr, stored descr, shape]``
    layout that :func:`_unpack` inverts."""
    stored = [a.astype(_stored_dtype(a), copy=False) for a in arrays]
    blob = np.empty(sum(s.nbytes for s in stored), dtype=np.uint8)
    layout, offset = [], 0
    for original, narrow in zip(arrays, stored):
        blob[offset : offset + narrow.nbytes] = narrow.reshape(-1).view(np.uint8)
        offset += narrow.nbytes
        layout.append([
            np.lib.format.dtype_to_descr(original.dtype),
            np.lib.format.dtype_to_descr(narrow.dtype),
            list(original.shape),
        ])
    return blob, layout


def _unpack(blob: np.ndarray, layout: list) -> list[np.ndarray]:
    """Invert :func:`_pack`: slice the blob and widen each array back to its
    original dtype.  Every array is a fresh, writeable copy."""
    arrays, offset = [], 0
    for original, narrow, shape in layout:
        dtype = np.lib.format.descr_to_dtype(narrow)
        count = math.prod(shape)
        view = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset += count * dtype.itemsize
        arrays.append(
            view.reshape(shape).astype(
                np.lib.format.descr_to_dtype(original), copy=True
            )
        )
    if offset != blob.size:
        raise ValueError("array blob longer than its layout")
    return arrays


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON rendering of ``obj`` for key hashing.

    Dict insertion order does not matter (keys are sorted) and numpy arrays
    contribute a digest of their raw bytes, so structurally equal inputs
    always hash alike.
    """
    return json.dumps(
        _encode(obj, arrays=None, inline=False),
        sort_keys=True,
        separators=(",", ":"),
    )


def _fn_name(fn: Callable | str) -> str:
    if isinstance(fn, str):
        name = fn
    else:
        name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    if "<lambda>" in name:
        raise ValueError(
            f"task function {name!r} has no stable import path; content "
            "addressing needs a named function (several lambdas in one "
            "scope would share an address)"
        )
    return name


def task_key(
    fn: Callable | str,
    params: Any,
    seed: int | Iterable[int],
    salt: str | None = None,
) -> str:
    """The content address of one task: sha256 over (function qualname,
    canonical params, seed(s), code salt)."""
    if not isinstance(seed, int):
        seed = [int(s) for s in seed]
    identity = {
        "fn": _fn_name(fn),
        "params": params,
        "seed": seed,
        "salt": code_salt() if salt is None else str(salt),
    }
    return hashlib.sha256(canonical_dumps(identity).encode()).hexdigest()


def scenario_key(scenario, view: str = "result", salt: str | None = None) -> str:
    """The content address of one scenario evaluation.

    Unlike :func:`task_key`, the identity is the scenario's *canonical
    dict* (its ``to_dict`` form, which already carries the seed) plus the
    result ``view`` — no function qualname — so spec-equal runs hit the
    same entry regardless of which helper produced them
    (``Scenario.run``, ``ScenarioSweep``, the CLI, or a legacy shim).

    ``view`` distinguishes payload shapes of the same spec: ``"result"``
    (the full :class:`~repro.radio.broadcast.BatchBroadcastResult`) and
    ``"summary"`` (the plain-dict table row).
    """
    canonical = scenario.to_dict() if hasattr(scenario, "to_dict") else scenario
    if not isinstance(canonical, dict):
        raise TypeError(
            f"scenario_key needs a Scenario (or its canonical dict); "
            f"got {type(scenario).__name__}"
        )
    identity = {
        "scenario": canonical,
        "view": str(view),
        "salt": code_salt() if salt is None else str(salt),
    }
    return hashlib.sha256(canonical_dumps(identity).encode()).hexdigest()


def expansion_key(graph, expansion, seed: int, salt: str | None = None) -> str:
    """The content address of one wireless-expansion measurement.

    Identity is the canonical ``(graph spec, expansion spec, seed)``
    triple under the ``"expansion"`` view — the measurement analogue of
    :func:`scenario_key`, so spec-equal estimates share one entry whether
    they came from ``repro expansion``, a sweep, or the E17 bench.
    ``graph`` / ``expansion`` may be spec objects (``to_dict`` is taken)
    or already-canonical dicts.
    """
    canonical = {
        "graph": graph.to_dict() if hasattr(graph, "to_dict") else graph,
        "expansion": (
            expansion.to_dict() if hasattr(expansion, "to_dict") else expansion
        ),
        "seed": int(seed),
    }
    return scenario_key(canonical, view="expansion", salt=salt)


def _atomic_write_bytes(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_payload(path: str, payload: Any) -> str:
    """Write ``payload`` as human-readable JSON (arrays inlined as lists).

    The shared machine-readable emitter: every bench writes its ``.json``
    sidecar through this, and the store uses the same atomic-replace
    discipline for its own documents.
    """
    text = json.dumps(
        _encode(payload, arrays=None, inline=True), indent=2, sort_keys=True
    )
    _atomic_write_bytes(path, (text + "\n").encode())
    return path


@dataclass(frozen=True)
class CacheStats:
    """One ``repro cache stats`` snapshot.

    The first four fields describe the on-disk state; the defaulted tail
    carries the producing :class:`ResultStore` instance's *live* counters
    (this process's lookups and their wall time) — zero on a cold snapshot.
    """

    root: str
    entries: int
    manifests: int
    bytes: int
    hits: int = 0
    misses: int = 0
    get_seconds: float = 0.0
    put_seconds: float = 0.0
    time_saved_seconds: float = 0.0


class ResultStore:
    """Content-addressed persistence under one cache root.

    ``hits`` / ``misses`` count this instance's lookups (a warm replay of a
    sweep is exactly ``hits == tasks, misses == 0`` — the invariant CI's
    runtime-smoke step asserts).  ``get_seconds`` / ``put_seconds``
    accumulate lookup/persist wall time, and ``time_saved`` the recorded
    compute time of tasks a sweep replayed instead of re-running; all are
    mirrored into the process metrics registry (``repro cache stats``) and,
    when a trace recording is active, emitted as ``cache.get`` /
    ``cache.put`` spans with hit/miss counters.
    """

    def __init__(self, root: str | os.PathLike | None = None, salt: str | None = None):
        self.root = os.path.abspath(os.fspath(root) if root is not None else DEFAULT_CACHE_DIR)
        self.salt = code_salt() if salt is None else str(salt)
        self.hits = 0
        self.misses = 0
        self.get_seconds = 0.0
        self.put_seconds = 0.0
        self.time_saved = 0.0

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def manifests_dir(self) -> str:
        return os.path.join(self.root, "manifests")

    def key(self, fn: Callable | str, params: Any, seed: int | Iterable[int]) -> str:
        """Task key under this store's salt."""
        return task_key(fn, params, seed, self.salt)

    def scenario_key(self, scenario, view: str = "result") -> str:
        """Scenario key under this store's salt (see :func:`scenario_key`)."""
        return scenario_key(scenario, view, self.salt)

    def expansion_key(self, graph, expansion, seed: int) -> str:
        """Expansion-measurement key under this store's salt (see
        :func:`expansion_key`)."""
        return expansion_key(graph, expansion, seed, self.salt)

    def _paths(self, key: str) -> tuple[str, str]:
        shard = os.path.join(self.objects_dir, key[:2])
        return os.path.join(shard, key + ".json"), os.path.join(shard, key + ".npz")

    def _load(self, key: str) -> Any:
        """Decode entry ``key`` or raise ``KeyError`` (no counter updates).

        Any failure past "file not found" means a corrupted entry; it is
        deleted so the caller recomputes instead of tripping on it forever.
        """
        json_path, npz_path = self._paths(key)
        try:
            with open(json_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:  # entry absent: a plain miss
            raise KeyError(key) from None
        except Exception:
            self.discard(key)
            raise KeyError(key) from None
        try:
            if payload.get("key") != key:
                raise ValueError("payload/key mismatch")
            arrays: list[np.ndarray] = []
            if payload.get("arrays"):
                # The zip CRC-32 of the blob member is the integrity check.
                with np.load(npz_path) as znp:
                    arrays = _unpack(znp["blob"], payload["layout"])
            return _decode(payload["value"], arrays)
        except Exception:
            # Anything past a parsed JSON document — key mismatch, missing
            # or unreadable sidecar, bad CRC, no layout (an entry written
            # before the blob format), undecodable payload — is a corrupted
            # entry: drop it so recomputation heals the store.
            self.discard(key)
            raise KeyError(key) from None

    def contains(self, key: str) -> bool:
        """Whether ``key`` holds a well-formed entry, without decoding it.

        Parses the JSON header and checks the ``.npz`` sidecar exists and a
        ``layout`` describes it when arrays are referenced — cheap enough
        for manifest progress scans over large payloads (the full decode
        happens once, in :meth:`get`).  Corruption counts as absent and is
        discarded; the hit/miss counters are untouched.
        """
        json_path, npz_path = self._paths(key)
        try:
            with open(json_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("key") != key:
                raise ValueError("payload/key mismatch")
            if payload.get("arrays"):
                if "layout" not in payload:
                    raise ValueError("entry predates the array blob")
                if not os.path.isfile(npz_path):
                    raise ValueError("missing npz sidecar")
            return True
        except FileNotFoundError:
            return False
        except Exception:
            self.discard(key)
            return False

    def get(self, key: str) -> Any:
        """Return the cached value for ``key`` or raise ``KeyError``."""
        rec = active_recorder()
        start = time.perf_counter()
        try:
            value = self._load(key)
        except KeyError:
            elapsed = time.perf_counter() - start
            self.misses += 1
            self.get_seconds += elapsed
            METRICS.incr("cache.misses")
            METRICS.incr("cache.get_seconds", elapsed)
            if rec is not None:
                rec.counter("cache.miss")
            raise
        elapsed = time.perf_counter() - start
        self.hits += 1
        self.get_seconds += elapsed
        METRICS.incr("cache.hits")
        METRICS.incr("cache.get_seconds", elapsed)
        if rec is not None:
            rec.counter("cache.hit")
            rec.record(
                {
                    "kind": "span",
                    "name": "cache.get",
                    "path": "cache.get",
                    "start": start,
                    "duration": elapsed,
                    "pid": os.getpid(),
                }
            )
        return value

    def record_time_saved(self, seconds: float) -> None:
        """Credit ``seconds`` of compute a cache replay avoided (sweeps
        call this with the manifest's recorded per-task wall times)."""
        self.time_saved += float(seconds)
        METRICS.incr("cache.time_saved_seconds", float(seconds))

    def put(self, key: str, value: Any, meta: dict | None = None) -> str:
        """Persist ``value`` under ``key``; returns the JSON path.

        The ``.npz`` sidecar (if any) lands before the JSON document, so a
        crash mid-put never leaves a JSON entry pointing at missing arrays.
        Raises ``TypeError``, writing nothing, for an unsupported payload
        (including object-dtype arrays).
        """
        rec = active_recorder()
        start = time.perf_counter()
        arrays: list[np.ndarray] = []
        encoded = _encode(value, arrays=arrays, inline=False)
        json_path, npz_path = self._paths(key)
        payload = {"key": key, "salt": self.salt, "arrays": len(arrays), "value": encoded}
        if arrays:
            blob, payload["layout"] = _pack(arrays)
            os.makedirs(os.path.dirname(npz_path), exist_ok=True)
            # The suffix must end in ".npz" or np.savez appends one, writing
            # past the temp name and breaking the atomic replace.
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(npz_path), suffix=".tmp.npz"
            )
            os.close(fd)
            try:
                np.savez(tmp, blob=blob)
                os.replace(tmp, npz_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        if meta:
            payload["meta"] = _encode(meta, arrays=None, inline=True)
        _atomic_write_bytes(
            json_path,
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(),
        )
        elapsed = time.perf_counter() - start
        self.put_seconds += elapsed
        METRICS.incr("cache.put_seconds", elapsed)
        if rec is not None:
            rec.record(
                {
                    "kind": "span",
                    "name": "cache.put",
                    "path": "cache.put",
                    "start": start,
                    "duration": elapsed,
                    "pid": os.getpid(),
                }
            )
        return json_path

    def discard(self, key: str) -> bool:
        """Remove entry ``key`` (returns whether anything existed)."""
        removed = False
        for path in self._paths(key):
            if os.path.exists(path):
                os.unlink(path)
                removed = True
        return removed

    def drop(self, keys: Iterable[str]) -> int:
        """Remove a batch of entries; returns how many existed."""
        return sum(1 for k in keys if self.discard(k))

    def stats(self) -> CacheStats:
        """Entry/manifest counts and total on-disk bytes under the root."""
        entries = 0
        total = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _, files in os.walk(self.objects_dir):
                for name in files:
                    total += os.path.getsize(os.path.join(dirpath, name))
                    if name.endswith(".json"):
                        entries += 1
        manifests = 0
        if os.path.isdir(self.manifests_dir):
            for name in os.listdir(self.manifests_dir):
                if name.endswith(".json"):
                    manifests += 1
                    total += os.path.getsize(os.path.join(self.manifests_dir, name))
        return CacheStats(
            root=self.root,
            entries=entries,
            manifests=manifests,
            bytes=total,
            hits=self.hits,
            misses=self.misses,
            get_seconds=self.get_seconds,
            put_seconds=self.put_seconds,
            time_saved_seconds=self.time_saved,
        )

    def clear(self) -> CacheStats:
        """Delete every cached entry and manifest; returns what was removed."""
        removed = self.stats()
        for sub in (self.objects_dir, self.manifests_dir):
            if os.path.isdir(sub):
                shutil.rmtree(sub)
        return removed

    def sweep_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Remove temp files orphaned by writers killed mid-write.

        ``put`` is crash-safe by construction: payloads are written under
        a private ``mkstemp`` name and atomically ``os.replace``d into
        their content address (npz sidecar first, JSON document last), so
        a reader can never observe a partial entry no matter when a
        writer dies.  What a kill *can* leak is the temp file itself.
        This sweeps ``*.tmp*`` files older than ``max_age_seconds`` —
        the age guard keeps in-flight writes of live concurrent writers
        untouched (pass ``0`` to remove all).  Returns the count removed.
        """
        removed = 0
        cutoff = time.time() - max_age_seconds
        if os.path.isdir(self.objects_dir):
            for dirpath, _, files in os.walk(self.objects_dir):
                for name in files:
                    if ".tmp" not in name:
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        if os.path.getmtime(path) <= cutoff:
                            os.unlink(path)
                            removed += 1
                    except OSError:
                        continue  # raced with its writer; leave it alone
        if removed:
            METRICS.incr("cache.tmp_swept", removed)
        return removed
