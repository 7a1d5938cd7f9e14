"""Outside-in layer timing: wrap public entry points, record nested spans.

:class:`LayerTracer` replaces each public function or method named in
:data:`LAYERS` with a thin wrapper that records one span per call into a
:class:`repro.obs.tracing.TraceRecorder` (``id`` and ``parent`` in the
span's ``meta``, so the JSONL stays readable by ``repro obs summary``) and
puts the original back on :meth:`LayerTracer.restore`.  Nothing inside the
program changes: methods are replaced in the class that defines them, so
MRO-depth checks such as ``legacy_hooks_specialized`` and class flags such
as ``words_native`` see the same classes as before.

A layer's self time is its spans' durations minus the part covered by
their child spans.  The tracing overhead is estimated from the number of
spans times what one wrapper costs (:func:`span_cost`), not from a traced
and an untraced run: on a noisy host their ratio measures the noise.  The benchmark drives the program from one client, so
the calls it makes never overlap in time, even when the HTTP server runs
them on its own thread; one span stack shared by all threads therefore
links a server-side queue call to the client request that caused it.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
import types
from collections import Counter, defaultdict

#: Span names, one per layer boundary (the metric names derive from them).
LAYERS = (
    "graphs.build",
    "radio.protocols.coins",
    "radio.network.deliver",
    "workload.fold",
    "radio.broadcast",
    "obs.telemetry.append",
    "runtime.store.put",
    "runtime.store.get",
    "scenario.parse",
    "scenario.key",
    "service.queue",
    "service.api",
    "expansion.pipeline.enumerate",
    "expansion.pipeline.evaluate",
    "expansion.pipeline.select",
    "spokesman.portfolio",
)

#: ServiceClient methods that each make exactly one HTTP request.
_CLIENT_REQUESTS = ("submit", "job", "jobs", "cancel", "healthz", "metrics")


def _subclasses(cls):
    """``cls`` and every loaded subclass, depth first."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class LayerTracer:
    """Install span-recording wrappers on the program's layer entry points."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._paths: dict[int, str] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, fn, layer, observe):
        rec, lock, stack, paths = self.recorder, self._lock, self._stack, self._paths
        label = getattr(fn, "__qualname__", repr(fn))
        pid = os.getpid()
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            with lock:
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1] if stack else None
                path = layer if parent is None else f"{paths[parent]}/{layer}"
                paths[sid] = path
                stack.append(sid)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                duration = clock() - start
                with lock:
                    stack.remove(sid)
                rec.record({
                    "kind": "span", "name": layer, "path": path,
                    "start": start, "duration": duration, "pid": pid,
                    "meta": {"id": sid, "parent": parent, "fn": label},
                })
                if observe is not None:
                    observe(self.counters, args, result, error)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = label
        return wrapper

    def wrap(self, owner, attr: str, layer: str, observe=None) -> None:
        """Wrap ``owner.attr`` (a module function, or a plain function,
        classmethod or staticmethod defined in class ``owner``)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, layer, observe))
        else:
            wrapped = self._wrapper(raw, layer, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def wrap_function(self, module, attr: str, layer: str, observe=None) -> None:
        """Wrap a module function and every ``from module import attr``
        alias of it in the program's loaded modules."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self.wrap(mod, attr, layer, observe)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        import repro.expansion.pipeline as pipeline
        import repro.radio.broadcast as broadcast
        import repro.workload.zoo  # noqa: F401 - loads the WorkloadState subclasses
        from repro.obs.telemetry import TelemetryAccumulator
        from repro.radio.network import RadioNetwork
        from repro.radio.protocols import BroadcastProtocol
        from repro.runtime.store import ResultStore
        from repro.scenario.spec import GraphSpec, Scenario
        from repro.service.client import ServiceClient
        from repro.service.queue import JobQueue
        from repro.workload.base import WorkloadState

        self.wrap(GraphSpec, "build", "graphs.build")
        for cls in _subclasses(BroadcastProtocol):
            for attr in ("transmitters_batch", "transmitters_words"):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "radio.protocols.coins")
        for attr in ("step", "step_words"):
            self.wrap(RadioNetwork, attr, "radio.network.deliver")
        for cls in _subclasses(WorkloadState):
            if "fold" in cls.__dict__:
                self.wrap(cls, "fold", "workload.fold")
        self.wrap_function(
            broadcast, "run_broadcast_batch", "radio.broadcast", _observe_batch
        )
        for attr in TelemetryAccumulator.__dict__:
            if attr.startswith("append_"):
                self.wrap(TelemetryAccumulator, attr, "obs.telemetry.append")
        self.wrap(ResultStore, "put", "runtime.store.put", _observe_put)
        self.wrap(ResultStore, "get", "runtime.store.get", _observe_get)
        self.wrap(ResultStore, "scenario_key", "scenario.key")
        self.wrap(Scenario, "from_string", "scenario.parse")
        for attr, value in list(JobQueue.__dict__.items()):
            if callable(value) and (attr == "__init__" or not attr.startswith("_")):
                observe = _observe_lease if attr == "lease" else None
                self.wrap(JobQueue, attr, "service.queue", observe)
        for attr in _CLIENT_REQUESTS:
            self.wrap(ServiceClient, attr, "service.api", _observe_request(attr))
        self.wrap(pipeline, "enumerate_candidates", "expansion.pipeline.enumerate",
                  _observe_candidates)
        self.wrap(pipeline, "evaluate_candidates", "expansion.pipeline.evaluate")
        self.wrap(pipeline, "select_minimum", "expansion.pipeline.select")
        self.wrap(pipeline, "portfolio_candidate_values", "spokesman.portfolio")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """Per layer: summed self time and the number of outermost calls
        (calls not made from inside a span of the same layer)."""
        spans = [e for e in self.recorder.events if e.get("kind") == "span"]
        layer_of = {e["meta"]["id"]: e["name"] for e in spans}
        child_time: dict[int, float] = defaultdict(float)
        for e in spans:
            parent = e["meta"]["parent"]
            if parent is not None:
                child_time[parent] += e["duration"]
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for e in spans:
            meta = e["meta"]
            entry = totals[e["name"]]
            entry["self_s"] += e["duration"] - child_time[meta["id"]]
            if meta["parent"] is None or layer_of[meta["parent"]] != e["name"]:
                entry["calls"] += 1
        return totals

    def metrics(self, wall_s: float, cost_per_span: float) -> dict[str, float]:
        """The per-layer metrics of one traced repetition; ``cost_per_span``
        is what :func:`span_cost` measured."""
        t = self.layer_totals()
        spans = sum(e.get("kind") == "span" for e in self.recorder.events)
        c = self.counters
        covered = sum(entry["self_s"] for entry in t.values())
        gets, submits = t["runtime.store.get"]["calls"], c["api.submit"]
        return {
            "graphs.build_s": t["graphs.build"]["self_s"],
            "graphs.builds": t["graphs.build"]["calls"],
            "radio.protocols.coins_s": t["radio.protocols.coins"]["self_s"],
            "radio.protocols.coin_calls": t["radio.protocols.coins"]["calls"],
            "radio.network.deliver_s": t["radio.network.deliver"]["self_s"],
            "radio.network.deliver_calls": t["radio.network.deliver"]["calls"],
            "workload.fold_s": t["workload.fold"]["self_s"],
            "radio.broadcast.self_s": t["radio.broadcast"]["self_s"],
            "radio.broadcast.rounds_total": c["broadcast.rounds"],
            "radio.broadcast.informed_per_tx": _ratio(
                c["broadcast.informed"], c["broadcast.transmissions"]
            ),
            "obs.telemetry.append_s": t["obs.telemetry.append"]["self_s"],
            "runtime.store.put_s": t["runtime.store.put"]["self_s"],
            "runtime.store.puts": t["runtime.store.put"]["calls"],
            "runtime.store.bytes_written": c["store.bytes_written"],
            "runtime.store.get_s": t["runtime.store.get"]["self_s"],
            "runtime.store.gets": gets,
            "runtime.store.hit_ratio": _ratio(c["store.hits"], gets),
            "scenario.parse_s": t["scenario.parse"]["self_s"],
            "scenario.key_s": t["scenario.key"]["self_s"],
            "service.queue.op_s": t["service.queue"]["self_s"],
            "service.queue.ops": t["service.queue"]["calls"],
            "service.queue.empty_lease_ratio": _ratio(
                c["queue.empty_leases"], c["queue.leases"]
            ),
            "service.api.request_s": t["service.api"]["self_s"],
            "service.api.requests": t["service.api"]["calls"],
            "service.api.polls_per_job": _ratio(c["api.job"], submits),
            "expansion.pipeline.enumerate_s": t["expansion.pipeline.enumerate"]["self_s"],
            "expansion.pipeline.evaluate_s": t["expansion.pipeline.evaluate"]["self_s"],
            "expansion.pipeline.select_s": t["expansion.pipeline.select"]["self_s"],
            "expansion.pipeline.candidates": c["expansion.candidates"],
            "spokesman.portfolio_s": t["spokesman.portfolio"]["self_s"],
            "trace.coverage": _ratio(covered, wall_s),
            "trace.overhead": _ratio(wall_s, wall_s - spans * cost_per_span),
        }


def span_cost() -> float:
    """Seconds one span-recording wrapper adds to a call: nested pairs of
    wrapped no-ops against the same calls unwrapped, the fastest of three
    timings each, per span."""
    from repro.obs.tracing import TraceRecorder

    calls = 5000
    ns = types.SimpleNamespace(inner=lambda: None)
    ns.outer = lambda: ns.inner()

    def fastest() -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                ns.outer()
            best = min(best, time.perf_counter() - start)
        return best

    plain = fastest()
    tracer = LayerTracer(TraceRecorder())
    tracer.wrap(ns, "inner", "calibration")
    tracer.wrap(ns, "outer", "calibration")
    wrapped = fastest()
    tracer.restore()
    return max(0.0, (wrapped - plain) / (2 * calls))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# ----------------------------------------------------------------------
# Observers: counts read at the same boundaries, after the span closes.
# ----------------------------------------------------------------------
def _observe_batch(counters, args, result, error) -> None:
    if result is not None:
        counters["broadcast.rounds"] += int(result.rounds.sum())
        if result.informed_per_round.shape[0]:
            counters["broadcast.informed"] += int(result.informed_per_round[-1].sum())
        counters["broadcast.transmissions"] += int(result.transmissions.sum())


def _observe_put(counters, args, result, error) -> None:
    if result is not None:
        npz = result[: -len(".json")] + ".npz"
        counters["store.bytes_written"] += os.path.getsize(result)
        if os.path.exists(npz):
            counters["store.bytes_written"] += os.path.getsize(npz)


def _observe_get(counters, args, result, error) -> None:
    if error is None:
        counters["store.hits"] += 1


def _observe_lease(counters, args, result, error) -> None:
    counters["queue.leases"] += 1
    if error is None and result is None:
        counters["queue.empty_leases"] += 1


def _observe_request(name: str):
    def observe(counters, args, result, error) -> None:
        counters[f"api.{name}"] += 1

    return observe


def _observe_candidates(counters, args, result, error) -> None:
    if result is not None:
        counters["expansion.candidates"] += len(result[0])
