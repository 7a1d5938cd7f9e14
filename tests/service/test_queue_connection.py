"""JobQueue's long-lived connection: fresh reads across connections,
thread safety of one shared instance, the fork guard, rollback on error,
and the close/reopen lifecycle."""

import os
import sqlite3
import sys
import threading
from collections import Counter

import pytest

from repro.service import JobQueue

SPEC = (
    "margulis(4) | decay | erasure(0.1) | gossip(k=4) "
    "| trials=10 | max_rounds=12 | seed=5"
)


def _spec(seed: int) -> str:
    return f"margulis(4) | decay | erasure(0.1) | trials=4 | seed={seed}"


def _integrity(path) -> str:
    con = sqlite3.connect(path)
    try:
        return con.execute("PRAGMA integrity_check").fetchone()[0]
    finally:
        con.close()


class TestNoStaleSnapshot:
    def test_rows_committed_elsewhere_are_visible(self, queue):
        # Open the first queue's connection with reads of every kind.
        first, _ = queue.submit(_spec(1))
        queue.submit(_spec(2))
        assert len(queue.list()) == 2 and queue.get(first.id).state == "queued"
        assert queue.events_since(first.id) and queue.counts()["queued"] == 2

        with JobQueue(queue.path) as other:
            third, _ = other.submit(_spec(3))
        assert queue.get(third.id).state == "queued"
        assert {r.id for r in queue.list()} >= {first.id, third.id}

        # A raw writer too: make the third job the only runnable one.
        con = sqlite3.connect(queue.path)
        con.execute("UPDATE jobs SET state='cancelled' WHERE id != ?", (third.id,))
        con.commit()
        con.close()
        assert queue.lease("w", ttl=30.0).id == third.id


class TestThreads:
    THREADS = 8
    PER_THREAD = 3

    def test_shared_instance_under_contention(self, queue):
        barrier = threading.Barrier(self.THREADS)
        leased: list[str] = []
        errors: list[BaseException] = []

        def run(index: int) -> None:
            try:
                for k in range(self.PER_THREAD):
                    queue.submit(_spec(100 + index * self.PER_THREAD + k))
                barrier.wait()
                worker = f"w{index}"
                while (job := queue.lease(worker, ttl=60.0)) is not None:
                    leased.append(job.id)
                    assert queue.heartbeat(job.id, worker, 60.0, progress_done=1)
                    queue.append_event(job.id, "shard", {"worker": worker})
                    assert queue.finish(job.id, worker)
            except BaseException as exc:  # surfaced below, with its type
                errors.append(exc)
                barrier.abort()  # release peers still waiting to lease

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave threads mid-operation
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

        jobs = queue.list()
        assert len(jobs) == self.THREADS * self.PER_THREAD
        assert all(j.state == "done" for j in jobs)
        assert Counter(leased) == {j.id: 1 for j in jobs}
        for job in jobs:
            seqs = [seq for seq, *_ in queue.events_since(job.id)]
            assert seqs == list(range(len(seqs)))
            kinds = [kind for _, _, kind, _ in queue.events_since(job.id)]
            assert kinds == ["submitted", "leased", "shard", "done"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_opens_its_own_connection(queue):
    parent_job, _ = queue.submit(_spec(1))
    inherited = queue._con
    assert inherited is not None
    pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        code = 1
        try:
            child_job, _ = queue.submit(_spec(2))
            ok = (
                queue.get(parent_job.id).state == "queued"
                and queue._con is not inherited
                and child_job.state == "queued"
            )
            queue.close()
            code = 0 if ok else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0

    assert queue._con is inherited
    assert len(queue.list()) == 2
    job = queue.lease("parent", ttl=30.0)
    assert job.id == parent_job.id
    assert queue.finish(job.id, "parent")
    assert _integrity(queue.path) == "ok"


class TestErrors:
    def test_error_inside_transaction_rolls_back(self, queue):
        with pytest.raises(RuntimeError):
            with queue._tx() as con:
                con.execute("INSERT INTO meta VALUES ('probe', 'x')")
                raise RuntimeError("boom")
        assert not queue._con.in_transaction
        with queue._connection() as con:
            assert con.execute("SELECT * FROM meta WHERE key='probe'").fetchall() == []
        record, created = queue.submit(SPEC)
        assert created and queue.get(record.id).state == "queued"

    def test_public_error_leaves_connection_usable(self, queue):
        with pytest.raises(KeyError):
            queue.cancel("no-such-job")  # raises inside its transaction
        assert not queue._con.in_transaction
        record, _ = queue.submit(SPEC)
        assert queue.cancel(record.id)


class TestLifecycle:
    def test_close_is_idempotent_and_reopens(self, queue):
        record, _ = queue.submit(SPEC)
        queue.close()
        queue.close()
        assert queue._con is None
        assert queue.get(record.id).id == record.id
        assert queue._con is not None

    def test_context_manager_closes(self, tmp_path):
        with JobQueue(tmp_path / "jobs.db") as queue:
            queue.submit(SPEC)
            assert queue._con is not None
        assert queue._con is None
        assert _integrity(queue.path) == "ok"
