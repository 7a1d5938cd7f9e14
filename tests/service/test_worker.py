"""Worker execution: cold runs, warm cache replays, and the
kill → lease-expiry → resume-from-checkpoint path, bit-for-bit."""

import time

import numpy as np
import pytest

from repro.obs.metrics import METRICS
from repro.runtime.store import ResultStore
from repro.scenario import Scenario, clear_graph_memo, run_scenario
from repro.service import JobQueue, Worker
from repro.service.worker import shard_checkpoint_key, shard_plan

SPEC = (
    "margulis(4) | decay | erasure(0.1) | gossip(k=4) "
    "| trials=10 | max_rounds=12 | seed=5"
)


def assert_batches_equal(a, b):
    assert a.trials == b.trials
    np.testing.assert_array_equal(a.rounds, b.rounds)
    np.testing.assert_array_equal(a.completed, b.completed)
    np.testing.assert_array_equal(a.informed_per_round, b.informed_per_round)
    np.testing.assert_array_equal(a.first_informed_round, b.first_informed_round)
    np.testing.assert_array_equal(a.transmissions, b.transmissions)


class TestShardPlan:
    def test_plan_covers_all_trials_contiguously(self):
        sc = Scenario.from_string(SPEC)
        plan = shard_plan(sc, shard_trials=4)
        assert [len(chunk) for chunk in plan] == [4, 4, 2]
        # The concatenated plan is exactly the serial engine's seed order.
        from repro._util import as_rng, spawn_seeds

        protocol_seed, _ = sc.seeds
        expected = [int(s) for s in spawn_seeds(as_rng(protocol_seed), sc.trials)]
        assert [s for chunk in plan for s in chunk] == expected

    def test_bad_shard_trials(self):
        with pytest.raises(ValueError, match="shard_trials"):
            shard_plan(Scenario.from_string(SPEC), shard_trials=0)


class TestColdExecution:
    def test_cold_job_runs_to_done(self, queue, store, worker):
        record, _ = queue.submit(SPEC)
        assert worker.run_once() == record.id
        done = queue.get(record.id)
        assert done.state == "done"
        assert done.cache_hit is False
        assert done.progress_done == done.progress_total == 10
        kinds = [kind for _, _, kind, _ in queue.events_since(record.id)]
        assert kinds.count("shard") == 3
        assert kinds[-2:] == ["result", "done"]

    def test_result_matches_direct_run_bit_for_bit(self, queue, store, worker):
        record, _ = queue.submit(SPEC)
        worker.run_once()
        sc = Scenario.from_string(SPEC)
        stored = store.get(store.scenario_key(sc))
        assert_batches_equal(stored, sc.run())

    def test_checkpoints_are_dropped_after_completion(
        self, queue, store, worker
    ):
        record, _ = queue.submit(SPEC)
        worker.run_once()
        sc = Scenario.from_string(SPEC)
        plan = shard_plan(sc, worker.shard_trials)
        for index, seeds in enumerate(plan):
            key = shard_checkpoint_key(store, sc, index, len(plan), seeds)
            assert not store.contains(key)
        assert store.contains(store.scenario_key(sc))

    def test_engine_failure_fails_the_job(self, queue, store, worker):
        record, _ = queue.submit(SPEC)
        # Corrupt the stored spec under the job: the queue validated it at
        # submit, but the worker re-parses — a poisoned row must land in
        # `failed` with the parse message, not crash the worker loop.
        with queue._tx() as con:
            con.execute(
                "UPDATE jobs SET spec='margulis(0) | decay' WHERE id=?",
                (record.id,),
            )
        worker.run_once()
        failed = queue.get(record.id)
        assert failed.state == "failed"
        assert "side must be positive" in failed.error


class TestGraphMemo:
    def test_shards_share_one_graph_build(self, queue, store, worker):
        # Randomized family, so the shards would each draw the graph anew
        # without the memo; 16 trials over 4-trial shards is 4 shards.
        spec = (
            "random_regular(64, 4) | decay | gossip(k=4) "
            "| trials=16 | max_rounds=12 | seed=9"
        )
        clear_graph_memo()
        record, _ = queue.submit(spec)
        misses = METRICS.get("graphs.memo.misses")
        hits = METRICS.get("graphs.memo.hits")
        worker.run_once()
        assert queue.get(record.id).state == "done"
        assert METRICS.get("graphs.memo.misses") == misses + 1
        assert METRICS.get("graphs.memo.hits") == hits + 3
        sc = Scenario.from_string(spec)
        assert len(shard_plan(sc, worker.shard_trials)) == 4
        clear_graph_memo()
        assert_batches_equal(store.get(store.scenario_key(sc)), run_scenario(sc))


class TestWarmExecution:
    def test_warm_job_is_pure_cache_replay(self, tmp_path, store):
        # Run once against queue A, then resubmit on a fresh queue sharing
        # the same store: the job completes as a cache hit, no recompute.
        queue_a = JobQueue(tmp_path / "a.db")
        queue_a.submit(SPEC)
        Worker(queue_a, store=store, shard_trials=4).run_once()

        queue_b = JobQueue(tmp_path / "b.db")
        record, _ = queue_b.submit(SPEC)
        hits = METRICS.get("service.jobs.cache_hits")
        computed = METRICS.get("service.shards.computed")
        Worker(queue_b, store=store, shard_trials=4).run_once()
        done = queue_b.get(record.id)
        assert done.state == "done"
        assert done.cache_hit is True
        assert METRICS.get("service.jobs.cache_hits") == hits + 1
        assert METRICS.get("service.shards.computed") == computed

    def test_terminal_dedupe_skips_the_queue_entirely(self, queue, store, worker):
        record, _ = queue.submit(SPEC)
        worker.run_once()
        again, created = queue.submit(SPEC)
        assert not created
        assert again.state == "done"


class TestKillAndResume:
    def test_killed_worker_resumes_from_checkpoint_bit_for_bit(
        self, tmp_path, store
    ):
        queue = JobQueue(tmp_path / "jobs.db")
        record, _ = queue.submit(SPEC)

        # Worker one dies (simulated kill) right after its first shard:
        # the checkpoint is in the store, the job still leased.
        victim = Worker(queue, store=store, lease_ttl=0.2, shard_trials=4)

        def die(rec, index, total):
            raise KeyboardInterrupt

        victim.after_shard = die
        with pytest.raises(KeyboardInterrupt):
            victim.run_once()
        assert queue.get(record.id).state == "running"

        # Until the lease lapses nobody can touch the job.
        rescuer = Worker(queue, store=store, lease_ttl=30.0, shard_trials=4)
        assert queue.lease(rescuer.worker_id, ttl=30.0) is None

        time.sleep(0.25)  # let the victim's lease expire
        resumed_before = METRICS.get("service.shards.resumed")
        assert rescuer.run_once() == record.id
        done = queue.get(record.id)
        assert done.state == "done"
        assert done.attempts == 2
        assert METRICS.get("service.shards.resumed") > resumed_before
        shard_events = [
            payload
            for _, _, kind, payload in queue.events_since(record.id)
            if kind == "shard"
        ]
        assert any(ev["resumed"] for ev in shard_events)

        # The acceptance bar: identical to a never-interrupted run.
        sc = Scenario.from_string(SPEC)
        assert_batches_equal(store.get(store.scenario_key(sc)), sc.run())

    def test_cancelled_job_is_abandoned_not_overwritten(self, queue, store):
        worker = Worker(queue, store=store, shard_trials=4)
        record, _ = queue.submit(SPEC)
        leased = queue.lease(worker.worker_id, ttl=30.0)
        queue.cancel(record.id)
        lost = METRICS.get("service.jobs.lost")
        worker.execute(leased)  # first heartbeat fails -> JobLost
        assert queue.get(record.id).state == "cancelled"
        assert METRICS.get("service.jobs.lost") == lost + 1


class TestWorkerLoop:
    def test_run_drains_the_queue_and_idles_out(self, queue, store):
        queue.submit(SPEC)
        queue.submit("hypercube(3) | decay | trials=4 | max_rounds=10")
        worker = Worker(queue, store=store, shard_trials=4,
                        poll_interval=0.01)
        assert worker.run(idle_timeout=0.05) == 2
        assert queue.depth() == 0
        assert worker.jobs_done == 2

    def test_constructor_validation(self, queue):
        with pytest.raises(ValueError, match="lease_ttl"):
            Worker(queue, lease_ttl=0)
        with pytest.raises(ValueError, match="shard_trials"):
            Worker(queue, shard_trials=0)


def test_store_paths_accepted(tmp_path):
    # Workers accept bare paths for both queue and store (the spawn-process
    # entry point passes paths, never live handles).
    worker = Worker(tmp_path / "q.db", store=tmp_path / "cache")
    assert isinstance(worker.queue, JobQueue)
    assert isinstance(worker.store, ResultStore)
