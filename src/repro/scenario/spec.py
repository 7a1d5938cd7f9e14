"""Frozen, picklable scenario specs — the repo's declarative front door.

Every claim in the paper is a statement about a *configuration*: a graph
family, a broadcast protocol, a channel model, a trial count, a seed.
This module makes that configuration a first-class object:

* :class:`GraphSpec` / :class:`ProtocolSpec` — frozen component specs
  resolved against the :mod:`repro.scenario.registry` registries (the
  channel side is :class:`repro.radio.channel.ChannelSpec`, promoted to
  the same interface);
* :class:`Scenario` — the top-level spec tying the components to
  ``trials`` / ``seed`` / ``max_rounds``, with one entry
  point, :meth:`Scenario.run`, replacing direct engine plumbing.

Every spec supports four lossless views: the compact string form
(:meth:`from_string` / :meth:`describe`), the canonical plain-data form
(:meth:`to_dict` / :meth:`from_dict` — what cache keys hash), pickling
(frozen dataclasses, so specs ride into
:class:`~repro.runtime.executor.ParallelExecutor` workers as-is), and the
live objects (:meth:`build`)::

    sc = Scenario.from_string("hypercube(10) | decay | erasure(0.05) | trials=64")
    batch = sc.run()                      # BatchBroadcastResult
    sc.run(executor=4, cache="results/cache")   # parallel + content-addressed

Seeding contract
----------------
For a deterministic graph family, ``Scenario(graph=g, seed=s).run()`` is
bit-for-bit identical to ``run_broadcast_batch(graph, protocol,
trials=..., seed=s)`` on the same graph.  For a randomized family the
seed splits ``(protocol_seed, graph_seed) = spawn_seeds(seed, 2)``, so a
spec-born run agrees bit for bit with ``measure_chain_broadcast_batch``
(or any helper) handed the same two seeds, and spec-equal runs share
cache entries.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

import numpy as np

from repro._util import (
    parse_byte_size,
    parse_call,
    parse_value,
    spawn_seeds,
)
from repro._util.callspec import CallSpec as _CallSpec
from repro.obs.metrics import METRICS
from repro.obs.tracing import active_recorder, maybe_span
from repro.radio.channel import ChannelSpec
from repro.scenario.registry import GRAPHS, PROTOCOLS, BuiltGraph
from repro.workload import WORKLOADS, WorkloadSpec

__all__ = [
    "GraphSpec",
    "ProtocolSpec",
    "RealizedScenario",
    "Scenario",
    "WorkloadSpec",
    "clear_graph_memo",
]

#: Byte cap of the per-process graph memo, summed over every held graph's
#: :attr:`~repro.graphs.graph.Graph.nbytes`; the newest entry is always
#: kept, however large.
GRAPH_MEMO_BYTES = 128 * 2**20

_GRAPH_MEMO: OrderedDict = OrderedDict()
_GRAPH_MEMO_LOCK = threading.Lock()


def clear_graph_memo() -> None:
    """Drop every memoized graph (test isolation, or to release memory)."""
    with _GRAPH_MEMO_LOCK:
        _GRAPH_MEMO.clear()


def _memo_count(name: str) -> None:
    METRICS.incr(name)
    rec = active_recorder()
    if rec is not None:
        rec.counter(name)


@dataclass(frozen=True)
class GraphSpec(_CallSpec):
    """A graph-family spec, e.g. ``hypercube(10)`` or ``chain(8, 4)``."""

    family: str
    args: tuple = ()
    kwargs: tuple = ()

    kind = "graph"
    _registry = GRAPHS
    _name_field = "family"

    @property
    def _call_name(self) -> str:
        return self.family

    def build(self, seed=None) -> BuiltGraph:
        """Realize the graph (randomized families consume ``seed``).

        Memoized per process on ``(spec string, int seed, registry
        entry)``: the same spec and seed return the same read-only
        instance.  A randomized family with ``seed=None`` or a
        ``Generator`` seed draws fresh randomness, so it bypasses the
        memo; a deterministic family ignores ``seed`` entirely.
        """
        entry = self.entry
        if not entry.randomized:
            seed = None
        elif isinstance(seed, (int, np.integer)):
            seed = int(seed)
        else:
            return self._realize(entry, seed)
        key = (self.describe(), seed, entry)
        with _GRAPH_MEMO_LOCK:
            built = _GRAPH_MEMO.get(key)
            if built is not None:
                _GRAPH_MEMO.move_to_end(key)
        if built is not None:
            _memo_count("graphs.memo.hits")
            return built
        _memo_count("graphs.memo.misses")
        built = self._realize(entry, seed)
        with _GRAPH_MEMO_LOCK:
            _GRAPH_MEMO[key] = built
            total = sum(b.graph.nbytes for b in _GRAPH_MEMO.values())
            while total > GRAPH_MEMO_BYTES and len(_GRAPH_MEMO) > 1:
                _, evicted = _GRAPH_MEMO.popitem(last=False)
                total -= evicted.graph.nbytes
        return built

    def _realize(self, entry, seed) -> BuiltGraph:
        """Call the registered builder — the uncached half of :meth:`build`."""
        kwargs = dict(self.kwargs)
        if entry.randomized:
            kwargs["rng"] = seed
        with maybe_span("graph.build", family=self.family) as span_meta:
            built = entry.builder(*self.args, **kwargs)
            if not isinstance(built, BuiltGraph):
                built = BuiltGraph(graph=built)
            if span_meta is not None:
                span_meta["n"] = built.graph.n
        return built


@dataclass(frozen=True)
class ProtocolSpec(_CallSpec):
    """A protocol spec, e.g. ``decay`` or ``aloha(0.25)``."""

    name: str
    args: tuple = ()
    kwargs: tuple = ()

    kind = "protocol"
    _registry = PROTOCOLS
    _name_field = "name"

    @property
    def _call_name(self) -> str:
        return self.name

    def build(self):
        """A fresh protocol instance (protocols hold per-run state)."""
        return self.entry.builder(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class RealizedScenario:
    """The live objects one :class:`Scenario` resolves to.

    ``channel`` is ``None`` for the classic model — exactly the value the
    legacy ``run_broadcast_batch(channel=...)`` call would receive, which
    keeps ``Scenario.run`` bit-for-bit equal to the call it replaces.
    ``source`` is the workload's nominal source (what the protocol's
    ``reset_batch`` receives); multi-source workloads draw their own.
    """

    built: BuiltGraph
    protocol: Any
    channel: Any
    source: int
    protocol_seed: Any
    workload: Any = None


_SCALAR_FIELDS = (
    "trials", "seed", "source", "max_rounds", "engine", "memory_budget",
    "telemetry", "backend",
)
_ENGINE_CHOICES = ("auto", "dense", "bitset")
_COMPONENT_FIELDS = ("graph", "protocol", "channel", "workload")
_COMPONENT_TYPES = {
    "graph": GraphSpec,
    "protocol": ProtocolSpec,
    "channel": ChannelSpec,
    "workload": WorkloadSpec,
}
#: The canonical dict of the default workload — scenarios carrying it
#: serialize without a workload entry, so broadcast specs keep hashing
#: (and reading) exactly as they did before the workload layer.
_DEFAULT_WORKLOAD_DICT = {"name": "broadcast"}
_ASSIGN_RE = re.compile(r"^([a-z_]+)\s*=\s*(.+)$", re.DOTALL)


def _extra_segment_error(seg: str, text: str, values: Mapping[str, Any]) -> str:
    """Diagnose a bare segment arriving after all four component slots
    are taken: a *duplicate* of an already-assigned component kind gets a
    message saying so (``... | erasure(0.1) | erasure(0.9)``), anything
    else keeps the generic too-many-segments error."""
    try:
        name = parse_call(seg)[0]
    except ValueError:
        return f"too many component segments in scenario {text!r}"
    if name in GRAPHS:
        kind = "graph"
    elif name in PROTOCOLS:
        kind = "protocol"
    elif name in WORKLOADS:
        kind = "workload"
    else:
        try:
            ChannelSpec._canonical_name(name)
        except ValueError:
            return f"too many component segments in scenario {text!r}"
        kind = "channel"
    return (
        f"duplicate {kind} segment {seg!r} in scenario {text!r} "
        f"({kind} already set to {str(values.get(kind))!r})"
    )


def _segment_kinds(name: str) -> set:
    """Which component registries claim a bare segment's call name."""
    kinds = set()
    if name in GRAPHS:
        kinds.add("graph")
    if name in PROTOCOLS:
        kinds.add("protocol")
    if name in WORKLOADS:
        kinds.add("workload")
    try:
        ChannelSpec._canonical_name(name)
    except ValueError:
        pass
    else:
        kinds.add("channel")
    return kinds


def _coerce_component(key: str, value):
    cls = _COMPONENT_TYPES[key]
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        return cls.from_string(value)
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    raise TypeError(
        f"scenario {key} must be a {cls.__name__}, spec string, or dict; "
        f"got {type(value).__name__}"
    )


def _coerce_scalar(key: str, value):
    if key == "engine":
        # The one non-numeric scalar: keep the string, validate membership
        # (parse_value would hand "bitset" back unchanged anyway, but a
        # quoted form or a stray literal must not slip through as an int).
        if isinstance(value, str):
            value = parse_value(value)
        if value not in _ENGINE_CHOICES:
            raise ValueError(
                f"scenario engine must be one of "
                f"{', '.join(_ENGINE_CHOICES)}; got {value!r}"
            )
        return value
    if key == "source":
        # Tombstone of the retired `Scenario.source` alias: the broadcast
        # workload owns its source, so there is one spelling of it.
        raise ValueError(
            f"scenario field source={value} was removed; set the source "
            "on the workload instead, e.g. broadcast(source=N)"
        )
    if key == "backend":
        # Tombstone of the removed array-backend shim: every run is numpy,
        # so `backend=numpy` (any case, any `:device`) parses as a no-op
        # that the callers drop — it never reaches the canonical views.
        if (
            isinstance(value, str)
            and value.strip().lower().partition(":")[0] == "numpy"
        ):
            return None
        raise ValueError(
            f"scenario backend={value!r} is no longer supported: the "
            "array-backend shim was removed and every run uses numpy; "
            "drop backend= from the spec"
        )
    if key == "telemetry":
        # The one boolean scalar.  Accept bools, 0/1, and the usual
        # switch spellings so spec strings read `telemetry=on`.
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("on", "true", "1"):
                return True
            if lowered in ("off", "false", "0"):
                return False
        raise ValueError(
            f"scenario telemetry must be on/off (or true/false, 0/1); "
            f"got {value!r}"
        )
    if key == "memory_budget" and isinstance(value, str):
        # Accept human byte sizes ("2GiB", "512MB") wherever the grammar
        # accepts the field — spec strings and -S overrides alike.
        parsed = parse_value(value)
        if parsed is None:
            return None
        if isinstance(parsed, str):
            return parse_byte_size(parsed)
        value = parsed
    elif isinstance(value, str):
        value = parse_value(value)
    if key in ("max_rounds", "memory_budget") and value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"scenario {key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experiment configuration.

    Attributes
    ----------
    graph, protocol, channel, workload:
        The component specs.  ``workload`` defaults to single-source
        ``broadcast`` — the classic task — and is omitted from the
        string/dict views when default, so pre-workload scenarios
        serialize (and hash) exactly as they always did.
    trials:
        Independent protocol trials, advanced together by the batched
        engine.
    seed:
        Master seed; see the module docstring for the split discipline.
    max_rounds:
        Round cap; ``None`` is the engine's ``50·n·log₂n``-ish default.
    engine:
        Simulation backend: ``"dense"`` (sparse mat-mat counts),
        ``"bitset"`` (packed-word CSR gathers), or ``"auto"`` (the
        default — pick per run; see
        :func:`repro.radio.broadcast.run_broadcast_batch`).
    memory_budget:
        Peak per-run working-set budget in bytes; the engine shards the
        trial batch into column chunks that fit (``None`` = unbounded).
        Spec strings accept human sizes: ``memory_budget=2GiB``.
    telemetry:
        When ``True``, the run records per-round collision telemetry
        (:class:`~repro.obs.telemetry.RoundTelemetry`) into the result's
        ``extras``.  Off by default, and serialized only when on, so
        telemetry-off scenarios keep their pre-telemetry cache keys.
        Spec strings accept ``telemetry=on`` / ``telemetry=off``.

    The broadcast source is the workload's: ``broadcast(source=N)``.
    Without one, the run starts at the graph family's default source
    (vertex 0 everywhere except the chain, whose root is the source).
    A ``source=`` field in the string, dict or override view is an eager
    ``ValueError`` naming that spelling.

    The same views still accept ``backend=numpy`` (the removed
    array-backend selector) as a no-op, so old specs keep parsing to the
    same scenario and cache key; any other backend is an eager
    ``ValueError``.
    """

    graph: GraphSpec
    protocol: ProtocolSpec = ProtocolSpec("decay")
    channel: ChannelSpec = ChannelSpec()
    workload: WorkloadSpec = WorkloadSpec("broadcast")
    trials: int = 1
    seed: int = 0
    max_rounds: int | None = None
    engine: str = "auto"
    memory_budget: int | None = None
    telemetry: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "graph", _coerce_component("graph", self.graph)
        )
        object.__setattr__(
            self, "protocol", _coerce_component("protocol", self.protocol)
        )
        object.__setattr__(
            self, "channel", _coerce_component("channel", self.channel)
        )
        object.__setattr__(
            self, "workload", _coerce_component("workload", self.workload)
        )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            # numpy would reject this only at run() with an opaque
            # "expected non-negative integer" — name the field here.
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.engine not in _ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {', '.join(_ENGINE_CHOICES)}, "
                f"got {self.engine!r}"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got {self.memory_budget}"
            )
        if not isinstance(self.telemetry, bool):
            object.__setattr__(
                self, "telemetry", _coerce_scalar("telemetry", self.telemetry)
            )

    # ------------------------------------------------------------------
    # The four views
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Scenario":
        """Parse the compact scenario form.

        ``|``-separated segments: bare component specs fill the
        graph → protocol → channel → workload slots in order (a bare
        segment whose name belongs to a *later* registry skips ahead, so
        ``"chain(4, 2) | gossip(k=2)"`` works without naming a protocol),
        and any segment may be a ``key=value`` assignment (``graph=``,
        ``protocol=``, ``channel=``, ``workload=``, ``trials=``,
        ``seed=``, ``max_rounds=``, ``engine=``,
        ``memory_budget=``, ``telemetry=``)::

            "hypercube(10) | decay | erasure(0.05) | trials=64 | seed=3"
            "margulis(8) | decay | erasure(0.1) | gossip(k=16)"
            "chain(8, 4) | trials=16"
            "graph=cplus(12) | protocol=flooding"
        """
        segments = [seg.strip() for seg in text.split("|")]
        segments = [seg for seg in segments if seg]
        if not segments:
            raise ValueError("empty scenario string")
        values: dict[str, Any] = {}
        positional = list(_COMPONENT_FIELDS)
        for seg in segments:
            match = _ASSIGN_RE.match(seg)
            key = match.group(1) if match else None
            if key in _SCALAR_FIELDS or key in _COMPONENT_FIELDS:
                if key in values:
                    raise ValueError(
                        f"duplicate {key!r} in scenario string {text!r}"
                    )
                values[key] = match.group(2).strip()
                if key in positional:
                    positional.remove(key)
            else:
                # A bare component spec (note: "erasure(p=0.1)" has an "="
                # but not at segment top level, so it lands here).
                while positional and positional[0] in values:
                    positional.pop(0)
                if not positional:
                    raise ValueError(_extra_segment_error(seg, text, values))
                slot = positional[0]
                try:
                    kinds = _segment_kinds(parse_call(seg)[0])
                except ValueError:
                    kinds = set()
                if kinds and slot not in kinds:
                    # A recognizable name out of positional order: route
                    # it to the first open slot of its own kind, or fall
                    # through to the duplicate/too-many diagnosis when
                    # every slot of its kind is already taken.
                    open_kinds = [k for k in positional if k in kinds]
                    if not open_kinds:
                        raise ValueError(
                            _extra_segment_error(seg, text, values)
                        )
                    slot = open_kinds[0]
                positional.remove(slot)
                values[slot] = seg
        if "graph" not in values:
            raise ValueError(
                f"scenario {text!r} names no graph (the first segment, "
                "e.g. 'hypercube(10) | decay | classic')"
            )
        kwargs: dict[str, Any] = {}
        for key, raw in values.items():
            if key in _COMPONENT_FIELDS:
                kwargs[key] = _coerce_component(key, raw)
            else:
                kwargs[key] = _coerce_scalar(key, raw)
        kwargs.pop("backend", None)  # checked tombstone, see _coerce_scalar
        return cls(**kwargs).validate()

    def describe(self) -> str:
        """Canonical string form: the component specs, then any
        non-default scalar as ``key=value``.  ``from_string(describe())``
        reconstructs an equal scenario.  The workload segment appears
        only when non-default, so broadcast scenarios read as they always
        did."""
        parts = [
            self.graph.describe(),
            self.protocol.describe(),
            self.channel.describe(),
        ]
        if self.workload.to_dict() != _DEFAULT_WORKLOAD_DICT:
            parts.append(self.workload.describe())
        if self.trials != 1:
            parts.append(f"trials={self.trials}")
        if self.seed != 0:
            parts.append(f"seed={self.seed}")
        if self.max_rounds is not None:
            parts.append(f"max_rounds={self.max_rounds}")
        if self.engine != "auto":
            parts.append(f"engine={self.engine}")
        if self.memory_budget is not None:
            parts.append(f"memory_budget={self.memory_budget}")
        if self.telemetry:
            parts.append("telemetry=on")
        return " | ".join(parts)

    def to_dict(self) -> dict:
        """Canonical nested plain-data form — the content-address view
        (:meth:`repro.runtime.ResultStore.scenario_key` hashes this)."""
        out: dict[str, Any] = {
            "graph": self.graph.to_dict(),
            "protocol": self.protocol.to_dict(),
            "channel": self.channel.to_dict(),
            "trials": int(self.trials),
            "seed": int(self.seed),
        }
        # Emitted only when non-default so plain broadcast scenarios hash
        # to the same content-address key shape they always did.
        if self.workload.to_dict() != _DEFAULT_WORKLOAD_DICT:
            out["workload"] = self.workload.to_dict()
        if self.max_rounds is not None:
            out["max_rounds"] = int(self.max_rounds)
        if self.engine != "auto":
            out["engine"] = str(self.engine)
        if self.memory_budget is not None:
            out["memory_budget"] = int(self.memory_budget)
        if self.telemetry:
            out["telemetry"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        extra = set(data) - set(_COMPONENT_FIELDS) - set(_SCALAR_FIELDS)
        if extra:
            raise ValueError(f"unknown scenario fields {sorted(extra)}")
        kwargs: dict[str, Any] = {
            "graph": GraphSpec.from_dict(data["graph"]),
        }
        if "protocol" in data:
            kwargs["protocol"] = ProtocolSpec.from_dict(data["protocol"])
        if "channel" in data:
            kwargs["channel"] = ChannelSpec.from_dict(data["channel"])
        if "workload" in data:
            kwargs["workload"] = WorkloadSpec.from_dict(data["workload"])
        for key in _SCALAR_FIELDS:
            if key in data:
                kwargs[key] = data[key]
        for key in ("source", "backend"):
            if key in kwargs:  # checked tombstones, see _coerce_scalar
                _coerce_scalar(key, kwargs.pop(key))
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Eager validation
    # ------------------------------------------------------------------
    def validate(self) -> "Scenario":
        """Eagerly check every component spec without building the graph.

        The graph spec's parameters are checked against its family's
        registered domain (:attr:`~repro.scenario.registry.SpecEntry.check`)
        and builder signature; the protocol and channel specs are cheap,
        so they are simply built and discarded.  Invoked by
        :meth:`from_string`, the CLI's scenario resolution, and
        :meth:`ScenarioSweep.points <repro.scenario.sweep.ScenarioSweep.points>`
        so a bad grid fails before any simulation runs, not mid-sweep.
        Returns ``self`` so call sites can chain.
        """
        self.graph.validate()
        self.protocol.validate()
        self.workload.validate()
        self.protocol.build()
        channel_model = self.channel.build()
        # Workload x channel compatibility (value workloads need
        # exactly-one-neighbour reception semantics) fails here, before
        # any graph is built or simulation runs.
        self.workload.build().check_channel(channel_model)
        return self

    # ------------------------------------------------------------------
    # Overrides (the CLI's -S key=value hook and ScenarioSweep's grid)
    # ------------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """A copy with the given field overrides applied.

        Keys are scenario fields (``graph``, ``protocol``, ``channel``,
        ``workload``, ``trials``, ``seed``, ``max_rounds``,
        ``engine``, ``memory_budget``, ``telemetry``) or dotted paths
        one level into a component spec (``channel.erasure_p``,
        ``protocol.name``, ``graph.family``).  Component values may be
        spec objects, spec strings, or canonical dicts; scalar values may
        be ints or their string forms — exactly what ``-S key=value``
        hands over.
        """
        out = self
        for key, value in overrides.items():
            head, dot, attr = key.partition(".")
            if dot:
                if head not in _COMPONENT_FIELDS:
                    raise KeyError(
                        f"unknown scenario override {key!r} (dotted paths "
                        f"start with one of {', '.join(_COMPONENT_FIELDS)})"
                    )
                component = getattr(out, head)
                if attr not in {f.name for f in fields(component)}:
                    raise KeyError(
                        f"{type(component).__name__} has no field {attr!r}"
                    )
                if isinstance(value, str) and attr not in (
                    "name", "family", "faults"
                ):
                    value = parse_value(value)
                component = replace(component, **{attr: value})
                out = replace(out, **{head: component})
            elif head in _COMPONENT_FIELDS:
                out = replace(out, **{head: _coerce_component(head, value)})
            elif head in _SCALAR_FIELDS:
                coerced = _coerce_scalar(head, value)
                if head == "backend":
                    continue  # checked tombstone, see _coerce_scalar
                out = replace(out, **{head: coerced})
            else:
                known = ", ".join(_COMPONENT_FIELDS + _SCALAR_FIELDS)
                raise KeyError(
                    f"unknown scenario override {key!r} (known fields: {known})"
                )
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def seeds(self) -> tuple[Any, Any]:
        """``(protocol_seed, graph_seed)`` under the split discipline."""
        if self.graph.randomized:
            protocol_seed, graph_seed = spawn_seeds(self.seed, 2)
            return protocol_seed, graph_seed
        return self.seed, None

    def build(self) -> RealizedScenario:
        """Resolve every spec to its live object."""
        protocol_seed, graph_seed = self.seeds
        built = self.graph.build(seed=graph_seed)
        workload_spec = self.workload
        if workload_spec.to_dict() == _DEFAULT_WORKLOAD_DICT and built.source:
            # The graph family's default source (the chain's root) only
            # exists once the graph is realized — pin it on the default
            # broadcast workload here.
            workload_spec = WorkloadSpec(
                "broadcast", (), {"source": int(built.source)}
            )
        workload = workload_spec.build()
        channel_spec = self.channel
        channel = (
            None
            if channel_spec.to_dict() == {"name": "classic"}
            else channel_spec.build()
        )
        return RealizedScenario(
            built=built,
            protocol=self.protocol.build(),
            channel=channel,
            source=workload.protocol_source,
            protocol_seed=protocol_seed,
            workload=workload,
        )

    def run(self, executor=None, cache=None):
        """Run the scenario through the batched engine.

        Returns the :class:`~repro.radio.broadcast.BatchBroadcastResult`.

        ``executor`` (an :class:`~repro.runtime.Executor` or int job
        count) shards the trials across worker processes — bit-for-bit
        identical to the serial run, because per-trial streams are derived
        seeds either way.  ``cache`` (a
        :class:`~repro.runtime.ResultStore` or cache-root path) replays a
        spec-equal previous run and persists new ones under the
        scenario's canonical-dict key, regardless of which helper
        produced the entry.
        """
        from repro.runtime.executor import as_executor, as_store
        from repro.scenario.tasks import run_scenario, run_scenario_sharded

        store = as_store(cache) if cache is not None else None
        if store is not None:
            key = store.scenario_key(self)
            try:
                return store.get(key)
            except KeyError:
                pass
        exec_ = as_executor(executor)
        if exec_.jobs > 1 and self.trials > 1:
            result = run_scenario_sharded(self, exec_)
        else:
            result = run_scenario(self)
        if store is not None:
            store.put(key, result, meta={"scenario": self.describe()})
        return result
