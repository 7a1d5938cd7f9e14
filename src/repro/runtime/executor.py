"""Executor layer: serial and process-parallel task scheduling.

One interface, two implementations: :class:`SerialExecutor` evaluates tasks
inline, :class:`ParallelExecutor` farms them across a
:class:`concurrent.futures.ProcessPoolExecutor`.  A "task" is a
module-level callable plus keyword arguments (parallel execution pickles
both), and every task carries its own derived seed — the repo's seeding
discipline — so the executors are interchangeable: scheduling order may
differ, but results are bit-for-bit identical and always returned in
submission order.

Scenario sweeps (:class:`repro.scenario.ScenarioSweep`, one task per
scenario), sharded ``Scenario.run`` calls and the expansion pipeline
schedule through it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.obs.tracing import TraceRecorder, active_recorder, recording

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "as_executor",
    "default_jobs",
]


def default_jobs(fallback: int | None = None) -> int:
    """Worker count when none is given — the single ``REPRO_JOBS`` parser.

    ``REPRO_JOBS`` wins when set; otherwise ``fallback`` (the CLI and the
    benches default to 1 so parallelism is always opt-in), and with no
    fallback the available CPU budget.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer worker count, got {env!r}"
            ) from None
    if fallback is not None:
        return max(1, int(fallback))
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)  # pragma: no cover - non-Linux


def _fn_label(fn: Callable) -> str:
    return getattr(fn, "__qualname__", repr(fn))


def _invoke_obs(fn: Callable, kwargs: dict, traced: bool) -> tuple:
    """Observing trampoline: ``(result, wall_seconds, events)``.

    When the submitting process is recording a trace, each worker builds a
    private recorder, runs the task under a ``task`` span (so in-task
    instrumentation like cache spans lands somewhere), and ships its
    events back with the result — the parent merges them at join.
    """
    start = time.perf_counter()
    if not traced:
        return fn(**kwargs), time.perf_counter() - start, None
    rec = TraceRecorder()
    with recording(recorder=rec):
        with rec.span("task", fn=_fn_label(fn)):
            result = fn(**kwargs)
    return result, time.perf_counter() - start, rec.events


class Executor:
    """Interface: schedule ``fn(**kwargs)`` calls, results in call order.

    Subclasses implement :meth:`imap_timed`; ``imap`` and ``map`` are
    views of it.
    """

    jobs: int = 1

    def imap_timed(
        self, fn: Callable, calls: Sequence[Mapping[str, Any]]
    ) -> Iterator[tuple[int, Any, float]]:
        """Yield ``(call_index, result, wall_seconds)`` in *completion*
        order; ``wall_seconds`` is the call's own compute time."""
        raise NotImplementedError

    def imap(
        self, fn: Callable, calls: Sequence[Mapping[str, Any]]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(call_index, result)`` pairs in *completion* order."""
        for i, result, _ in self.imap_timed(fn, calls):
            yield i, result

    def map(self, fn: Callable, calls: Sequence[Mapping[str, Any]]) -> list:
        """Results of every call, in submission order."""
        out: list[Any] = [None] * len(calls)
        for i, result in self.imap(fn, calls):
            out[i] = result
        return out


class SerialExecutor(Executor):
    """Inline evaluation — the reference schedule every other executor must
    reproduce bit for bit."""

    jobs = 1

    def imap_timed(self, fn, calls):
        rec = active_recorder()
        for i, kwargs in enumerate(calls):
            start = time.perf_counter()
            if rec is not None:
                with rec.span("task", fn=_fn_label(fn)):
                    result = fn(**kwargs)
            else:
                result = fn(**kwargs)
            yield i, result, time.perf_counter() - start


class ParallelExecutor(Executor):
    """Process-pool evaluation of independent tasks.

    ``fn`` and every kwarg must be picklable (module-level functions, plain
    data, dataclass specs).  Worker failures propagate to the caller as the
    original exception; remaining futures are cancelled.
    """

    def __init__(self, jobs: int | None = None):
        jobs = default_jobs() if jobs is None else int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def imap_timed(self, fn, calls):
        calls = list(calls)
        if self.jobs == 1 or len(calls) <= 1:
            yield from SerialExecutor().imap_timed(fn, calls)
            return
        rec = active_recorder()
        with _ProcessPool(max_workers=min(self.jobs, len(calls))) as pool:
            futures = {
                pool.submit(_invoke_obs, fn, dict(kwargs), rec is not None): i
                for i, kwargs in enumerate(calls)
            }
            try:
                for future in as_completed(futures):
                    result, seconds, events = future.result()
                    if rec is not None and events:
                        rec.extend(events)
                    yield futures[future], result, seconds
            except BaseException:
                for future in futures:
                    future.cancel()
                raise


def as_executor(executor: "Executor | int | None") -> Executor:
    """Coerce ``None`` / a job count / an executor into an :class:`Executor`."""
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, int):
        return SerialExecutor() if executor <= 1 else ParallelExecutor(executor)
    if isinstance(executor, Executor):
        return executor
    raise TypeError(
        f"executor must be None, an int job count, or an Executor; "
        f"got {type(executor).__name__}"
    )


def as_store(cache):
    """Coerce a cache argument (store instance or root path) to a store."""
    from repro.runtime.store import ResultStore

    if isinstance(cache, ResultStore):
        return cache
    return ResultStore(cache)
