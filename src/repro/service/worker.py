"""Workers: lease jobs, execute scenarios, checkpoint per trial-shard.

A :class:`Worker` polls one :class:`~repro.service.queue.JobQueue`,
claims jobs under a heartbeated lease, and executes each submitted
:class:`~repro.scenario.spec.Scenario` through the existing runtime:

* the **full result** is looked up first under
  :meth:`~repro.runtime.store.ResultStore.scenario_key` — a spec-equal
  job that already ran (here, in a sweep, or via ``Scenario.run``)
  completes as a pure cache replay, no recompute;
* a cold job is split into contiguous **trial shards** (the exact
  per-trial seed children the serial engine would derive, so the merged
  result is bit-for-bit the uninterrupted run) and each shard's
  :class:`~repro.radio.broadcast.BatchBroadcastResult` is checkpointed
  into the store under a content address of ``(scenario, shard)``.  A
  worker killed mid-job loses at most the in-flight shard: when the
  lease expires and another worker re-claims the job, completed shards
  replay from the store and execution resumes where it stopped;
* after each shard the worker **heartbeats** (extending the lease and
  recording trial progress) and appends a ``shard`` event carrying the
  partial batch summary — the stream ``GET /jobs/<id>/stream`` relays.

:class:`WorkerPool` runs N workers as daemon processes — the pool behind
``repro serve --workers N``.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Sequence

from repro._util import as_rng, spawn_seeds
from repro.obs.metrics import METRICS
from repro.obs.tracing import maybe_span
from repro.service.queue import JobQueue, JobRecord

__all__ = [
    "DEFAULT_SHARD_TRIALS",
    "JobLost",
    "Worker",
    "WorkerPool",
    "shard_checkpoint_key",
    "shard_plan",
]

#: Trials per checkpoint shard.  Small enough that a killed worker loses
#: little and the stream ticks visibly; large enough that per-shard
#: store/heartbeat overhead stays negligible against the engine.  Every
#: worker must use one value per queue — checkpoint addresses include the
#: shard layout, so a changed value simply recomputes (never corrupts).
DEFAULT_SHARD_TRIALS = 16


class JobLost(Exception):
    """The worker no longer owns its job (cancelled or lease re-claimed);
    execution is abandoned without touching the job row."""


def shard_plan(scenario, shard_trials: int = DEFAULT_SHARD_TRIALS) -> list[list[int]]:
    """Contiguous per-shard trial-seed chunks for ``scenario``.

    The seeds are the exact children the serial engine derives
    (``spawn_seeds(protocol_seed, trials)``), chunked in order — the same
    anchoring :func:`~repro.scenario.tasks.run_scenario_sharded` uses, so
    ``merge_batches`` over the shards reproduces the unsharded run bit
    for bit regardless of where shard boundaries fall.
    """
    if shard_trials < 1:
        raise ValueError(f"shard_trials must be >= 1, got {shard_trials}")
    protocol_seed, _ = scenario.seeds
    trial_seeds = spawn_seeds(as_rng(protocol_seed), scenario.trials)
    return [
        [int(s) for s in trial_seeds[i : i + shard_trials]]
        for i in range(0, scenario.trials, shard_trials)
    ]


def shard_checkpoint_key(store, scenario, index: int, total: int, seeds: Sequence[int]) -> str:
    """Content address of one shard checkpoint: the scenario's canonical
    dict plus the shard's position and exact trial seeds, under the
    store's salt (so checkpoints retire with every other cache entry)."""
    return store.key(
        "repro.service.worker.scenario_shard",
        {"scenario": scenario.to_dict(), "shard": int(index), "shards": int(total)},
        seeds,
    )


def _batch_summary(result) -> dict:
    """The plain-JSON partial/final summary shard and result events carry."""
    return {
        "trials": int(result.trials),
        "mean_rounds": float(sum(int(r) for r in result.rounds) / result.trials),
        "completion_rate": float(result.completion_rate),
    }


class Worker:
    """One job executor over a queue and a result store.

    ``queue`` / ``store`` accept live instances or paths (each worker
    process opens its own queue connection either way).  ``lease_ttl``
    must comfortably exceed one shard's compute time — the lease is
    renewed at every shard boundary; size shards (``shard_trials``) down
    before sizing the ttl up.
    """

    def __init__(
        self,
        queue: JobQueue | str | os.PathLike,
        store=None,
        worker_id: str | None = None,
        lease_ttl: float = 60.0,
        poll_interval: float = 0.2,
        shard_trials: int = DEFAULT_SHARD_TRIALS,
    ):
        from repro.runtime.executor import as_store

        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(queue)
        self.store = as_store(store)
        # Workers are exactly the writers that get killed mid-put; starting
        # one is the natural moment to reap predecessors' stale temp files.
        self.store.sweep_tmp()
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = float(poll_interval)
        if shard_trials < 1:
            raise ValueError(f"shard_trials must be >= 1, got {shard_trials}")
        self.shard_trials = int(shard_trials)
        #: Test hook: called after each computed/resumed shard with
        #: ``(record, shard_index, shard_count)``.  Raising a
        #: ``BaseException`` here (e.g. ``KeyboardInterrupt``) simulates a
        #: worker dying mid-job — the job stays leased until expiry.
        self.after_shard = None
        self.jobs_done = 0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run_once(self) -> str | None:
        """Lease and execute at most one job; returns its id, or ``None``
        when the queue had nothing runnable."""
        record = self.queue.lease(self.worker_id, self.lease_ttl)
        if record is None:
            return None
        self.execute(record)
        return record.id

    def run(
        self, max_jobs: int | None = None, idle_timeout: float | None = None
    ) -> int:
        """Process jobs until ``max_jobs`` are done or the queue stays
        idle for ``idle_timeout`` seconds (``None`` = run forever);
        returns the number of jobs executed."""
        executed = 0
        idle_since: float | None = None
        while max_jobs is None or executed < max_jobs:
            job_id = self.run_once()
            if job_id is not None:
                executed += 1
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if idle_timeout is not None and now - idle_since >= idle_timeout:
                break
            time.sleep(self.poll_interval)
        return executed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, record: JobRecord) -> None:
        """Run one leased job to ``done``/``failed``.

        Engine/validation errors fail the job with the exception message;
        :class:`JobLost` abandons it silently (another owner took over);
        ``BaseException`` (kill/interrupt) propagates with the job still
        leased — exactly the crash the lease protocol exists to survive.
        """
        try:
            with maybe_span("service.execute", job=record.id):
                result, cache_hit = self._execute(record)
        except JobLost:
            METRICS.incr("service.jobs.lost")
            return
        except Exception as exc:
            self.queue.finish(record.id, self.worker_id, error=str(exc))
            return
        summary = _batch_summary(result)
        summary["cache_hit"] = cache_hit
        self.queue.append_event(record.id, "result", summary)
        if self.queue.finish(record.id, self.worker_id, cache_hit=cache_hit):
            self.jobs_done += 1

    def _execute(self, record: JobRecord):
        from repro.radio.broadcast import merge_batches
        from repro.scenario.spec import Scenario
        from repro.scenario.tasks import run_scenario_shard

        scenario = Scenario.from_string(record.spec)
        result_key = self.store.scenario_key(scenario)
        try:
            result = self.store.get(result_key)
        except KeyError:
            pass
        else:
            # Warm job: the whole submission is a cache replay.
            METRICS.incr("service.jobs.cache_hits")
            self.queue.heartbeat(
                record.id, self.worker_id, self.lease_ttl,
                progress_done=scenario.trials, progress_total=scenario.trials,
            )
            return result, True

        plan = shard_plan(scenario, self.shard_trials)
        total = len(plan)
        if not self.queue.heartbeat(
            record.id, self.worker_id, self.lease_ttl,
            progress_done=0, progress_total=scenario.trials,
        ):
            raise JobLost(record.id)
        parts = []
        trials_done = 0
        for index, seeds in enumerate(plan):
            ckpt_key = shard_checkpoint_key(
                self.store, scenario, index, total, seeds
            )
            try:
                part = self.store.get(ckpt_key)
                resumed = True
                METRICS.incr("service.shards.resumed")
            except KeyError:
                with maybe_span(
                    "service.shard", job=record.id, shard=index, shards=total
                ):
                    part = run_scenario_shard(scenario, seeds)
                self.store.put(ckpt_key, part)
                resumed = False
                METRICS.incr("service.shards.computed")
            parts.append(part)
            trials_done += len(seeds)
            if not self.queue.heartbeat(
                record.id, self.worker_id, self.lease_ttl,
                progress_done=trials_done, progress_total=scenario.trials,
            ):
                raise JobLost(record.id)
            self.queue.append_event(
                record.id, "shard",
                {
                    **_batch_summary(part),
                    "shard": index + 1,
                    "shards": total,
                    "trials_done": trials_done,
                    "trials": scenario.trials,
                    "resumed": resumed,
                },
            )
            if self.after_shard is not None:
                self.after_shard(record, index, total)
        result = merge_batches(parts)
        self.store.put(result_key, result, meta={"scenario": record.spec})
        # The final result subsumes the checkpoints; reclaim the space.
        self.store.drop(
            shard_checkpoint_key(self.store, scenario, i, total, seeds)
            for i, seeds in enumerate(plan)
        )
        return result, False


def _worker_main(
    queue_path: str,
    cache_root: str | None,
    lease_ttl: float,
    poll_interval: float,
    shard_trials: int,
) -> None:
    """Module-level pool-process entry point (picklable under spawn)."""
    Worker(
        queue_path,
        store=cache_root,
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        shard_trials=shard_trials,
    ).run()


class WorkerPool:
    """N workers as daemon processes over one queue file.

    Each process opens its own queue (one SQLite connection, held for
    the process's life) and result store — nothing is shared but the
    files, which is the whole concurrency story.  ``stop()`` terminates
    the processes; any in-flight job's lease expires and the next worker
    resumes it from its checkpoints.
    """

    def __init__(
        self,
        queue_path: str | os.PathLike,
        cache_root: str | os.PathLike | None = None,
        workers: int = 1,
        lease_ttl: float = 60.0,
        poll_interval: float = 0.2,
        shard_trials: int = DEFAULT_SHARD_TRIALS,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue_path = os.fspath(queue_path)
        self.cache_root = None if cache_root is None else os.fspath(cache_root)
        self.workers = int(workers)
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = float(poll_interval)
        self.shard_trials = int(shard_trials)
        self._processes: list = []

    def start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        for _ in range(self.workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    self.queue_path,
                    self.cache_root,
                    self.lease_ttl,
                    self.poll_interval,
                    self.shard_trials,
                ),
                daemon=True,
            )
            proc.start()
            self._processes.append(proc)

    def alive(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())

    def stop(self, timeout: float = 5.0) -> None:
        for proc in self._processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self._processes:
            proc.join(timeout)
        self._processes.clear()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
