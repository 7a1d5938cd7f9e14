"""Runtime tracing — the wall-clock half of :mod:`repro.obs`.

A :class:`TraceRecorder` collects flat event dicts: nestable monotonic-clock
*spans* (``time.perf_counter`` start/duration, slash-joined nesting path),
*counters* (cache hits/misses), and the per-round *telemetry* events of
:func:`repro.obs.telemetry.telemetry_events`.  One recorder is installed
per process via :func:`recording`; instrumented call sites ask for it with
:func:`maybe_span`/:func:`active_recorder`, which cost a single global read
when tracing is off — the default, and the reason instrumentation is safe
to leave in hot-ish paths like ``ResultStore.get``.

Process safety: ``ParallelExecutor`` workers each build a private recorder
(installed by the ``_invoke_obs`` trampoline), run the task under a
``task`` span, and ship their events back with the result; the parent
merges them at join via :meth:`TraceRecorder.extend`.  Events carry the
recording pid so merged files stay attributable.

Sinks are JSON Lines — one event per line, written next to whatever the
command already produces — and aggregate through :func:`summarize_events`
(per-span totals, p50/p99 task latency, cache hit rate), the engine behind
``repro obs summary``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Span",
    "TraceRecorder",
    "active_recorder",
    "format_summary",
    "maybe_span",
    "read_jsonl",
    "recording",
    "summarize_events",
    "traced",
    "write_jsonl",
]


@dataclass(frozen=True)
class Span:
    """One completed span, as recorded: ``name`` is the leaf label,
    ``path`` the slash-joined nesting stack at entry."""

    name: str
    path: str
    start: float
    duration: float
    pid: int
    meta: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        event = {
            "kind": "span",
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
        }
        if self.meta:
            event["meta"] = self.meta
        return event

    @classmethod
    def from_event(cls, event: dict) -> "Span":
        return cls(
            name=event["name"],
            path=event.get("path", event["name"]),
            start=float(event.get("start", 0.0)),
            duration=float(event["duration"]),
            pid=int(event.get("pid", 0)),
            meta=dict(event.get("meta", {})),
        )


class TraceRecorder:
    """An append-only event log with a span stack.

    Spans nest per recorder (recorders are process-local, one live span
    stack each); ``perf_counter`` timestamps are only comparable within
    the recording process, durations always are.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.events: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[dict]:
        """Record a span around the body; exceptions still close it.

        Yields the span's ``meta`` dict, so the body can add facts it only
        learns while running (a built graph's ``n``).
        """
        self._stack.append(name)
        path = "/".join(self._stack)
        start = self._clock()
        try:
            yield meta
        finally:
            duration = self._clock() - start
            self._stack.pop()
            self.events.append(
                Span(
                    name=name,
                    path=path,
                    start=start,
                    duration=duration,
                    pid=os.getpid(),
                    meta=meta,
                ).to_event()
            )

    def counter(self, name: str, value: float = 1.0) -> None:
        """Record a counter increment event."""
        self.events.append(
            {
                "kind": "counter",
                "name": name,
                "value": float(value),
                "pid": os.getpid(),
            }
        )

    def record(self, event: dict) -> None:
        """Append a pre-built event (e.g. a telemetry round)."""
        self.events.append(dict(event))

    def extend(self, events: Iterable[dict]) -> None:
        """Merge another recorder's events (worker join)."""
        self.events.extend(events)

    def spans(self) -> list[Span]:
        return [
            Span.from_event(e) for e in self.events if e.get("kind") == "span"
        ]

    def write(self, path) -> None:
        write_jsonl(path, self.events)


_ACTIVE: TraceRecorder | None = None


def active_recorder() -> TraceRecorder | None:
    """The recorder installed by the innermost :func:`recording`, if any."""
    return _ACTIVE


@contextmanager
def recording(
    sink=None, recorder: TraceRecorder | None = None
) -> Iterator[TraceRecorder]:
    """Install a recorder as the process-wide active one.

    ``sink``, when given, is a path the events are written to (JSONL) on
    exit — including the error path, so a crashed run still leaves its
    trace behind.  Nesting restores the previous recorder on exit.
    """
    global _ACTIVE
    rec = recorder if recorder is not None else TraceRecorder()
    previous = _ACTIVE
    _ACTIVE = rec
    try:
        yield rec
    finally:
        _ACTIVE = previous
        if sink is not None:
            rec.write(sink)


def maybe_span(name: str, **meta):
    """A span on the active recorder, or a free no-op when tracing is off
    (``with maybe_span(...) as meta`` binds the span's meta dict, or
    ``None`` when off)."""
    rec = _ACTIVE
    if rec is None:
        return nullcontext()
    return rec.span(name, **meta)


def traced(name: str):
    """Decorator form of :func:`maybe_span` — zero-cost call-through when
    no recorder is active.  ``functools.wraps`` keeps the wrapped
    function's qualname, so decorated module-level functions still pickle
    into ``ParallelExecutor`` workers and keep their cache-key identity.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = _ACTIVE
            if rec is None:
                return fn(*args, **kwargs)
            with rec.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def write_jsonl(path, events: Iterable[dict]) -> None:
    """Write events as JSON Lines (one compact object per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")))
            handle.write("\n")


def read_jsonl(path) -> list[dict]:
    """Read a JSONL event file (blank lines tolerated)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def summarize_events(events: Iterable[dict]) -> dict:
    """Aggregate a trace into the ``repro obs summary`` view.

    Returns a plain dict with:

    * ``spans`` — per span name: count, total/mean/max seconds;
    * ``tasks`` — count and p50/p99 latency of ``task`` spans (the unit of
      executor work);
    * ``counters`` — summed counter values by name, plus ``cache_hit_rate``
      when cache counters are present;
    * ``telemetry`` — rounds covered, summed counts, and the pooled
      collision rate of any embedded telemetry events.
    """
    span_stats: dict[str, dict] = {}
    task_durations: list[float] = []
    counters: dict[str, float] = {}
    telemetry: dict[str, float] = {}
    telemetry_rounds = 0

    for event in events:
        kind = event.get("kind")
        if kind == "span":
            name = event.get("name", "?")
            duration = float(event.get("duration", 0.0))
            stat = span_stats.setdefault(
                name, {"count": 0, "total": 0.0, "max": 0.0}
            )
            stat["count"] += 1
            stat["total"] += duration
            stat["max"] = max(stat["max"], duration)
            if name == "task":
                task_durations.append(duration)
        elif kind == "counter":
            name = event.get("name", "?")
            counters[name] = counters.get(name, 0.0) + float(
                event.get("value", 0.0)
            )
        elif kind == "telemetry":
            telemetry_rounds += 1
            for key, value in event.items():
                if key in ("kind", "round", "scenario"):
                    continue
                if isinstance(value, (int, float)):
                    telemetry[key] = telemetry.get(key, 0.0) + value

    for stat in span_stats.values():
        stat["mean"] = stat["total"] / stat["count"] if stat["count"] else 0.0

    summary: dict = {"spans": span_stats, "counters": counters}

    if task_durations:
        task_durations.sort()
        summary["tasks"] = {
            "count": len(task_durations),
            "p50": _quantile(task_durations, 0.50),
            "p99": _quantile(task_durations, 0.99),
            "total": sum(task_durations),
        }

    hits = counters.get("cache.hit", 0.0)
    misses = counters.get("cache.miss", 0.0)
    if hits or misses:
        summary["cache_hit_rate"] = hits / (hits + misses)

    if telemetry_rounds:
        contacted = telemetry.get("receptions", 0.0) + telemetry.get(
            "collision_victims", 0.0
        )
        summary["telemetry"] = {
            "rounds": telemetry_rounds,
            **{k: v for k, v in telemetry.items() if k != "collision_rate"},
            "collision_rate": (
                telemetry.get("collision_victims", 0.0) / contacted
                if contacted
                else 0.0
            ),
        }

    return summary


def format_summary(summary: dict) -> str:
    """Render :func:`summarize_events` output as an aligned text report."""
    lines: list[str] = []

    spans = summary.get("spans", {})
    if spans:
        lines.append("spans:")
        width = max(len(name) for name in spans)
        for name in sorted(spans, key=lambda n: -spans[n]["total"]):
            stat = spans[name]
            lines.append(
                f"  {name:<{width}}  x{stat['count']:<6d} "
                f"total {stat['total']*1e3:10.2f} ms  "
                f"mean {stat['mean']*1e3:8.3f} ms  "
                f"max {stat['max']*1e3:8.3f} ms"
            )

    tasks = summary.get("tasks")
    if tasks:
        lines.append(
            f"tasks: {tasks['count']} spans, "
            f"p50 {tasks['p50']*1e3:.3f} ms, "
            f"p99 {tasks['p99']*1e3:.3f} ms, "
            f"total {tasks['total']*1e3:.2f} ms"
        )

    counters = summary.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:g}")
    if "cache_hit_rate" in summary:
        lines.append(f"cache hit rate: {summary['cache_hit_rate']:.1%}")

    telemetry = summary.get("telemetry")
    if telemetry:
        lines.append(
            f"telemetry: {telemetry['rounds']} rounds, "
            f"{int(telemetry.get('transmitters', 0))} transmissions, "
            f"{int(telemetry.get('collision_victims', 0))} collision victims, "
            f"{int(telemetry.get('wasted_transmissions', 0))} wasted, "
            f"collision rate {telemetry['collision_rate']:.1%}"
        )

    if not lines:
        lines.append("empty trace")
    return "\n".join(lines)
