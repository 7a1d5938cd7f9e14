"""Persistent job queue: the service's SQLite-backed source of truth.

One :class:`JobQueue` wraps one SQLite database file (WAL mode, so the
API server and a pool of worker processes read and write it
concurrently).  The schema is versioned in a ``meta`` table and upgraded
by tiny forward-only migrations at open — an old queue file is always
usable, never rewritten wholesale.

Job identity is content-addressed: the job id is a prefix of
:func:`repro.runtime.store.scenario_key` over the submitted spec's
canonical dict, so submitting a spec-equal scenario twice — any spelling,
any client — dedupes to the same row (the second submission simply
returns the first job, whatever state it has reached).  Resubmitting a
``failed`` or ``cancelled`` job re-queues it in place.

State machine::

    queued ──lease──▶ running ──finish──▶ done | failed
      ▲                  │
      └── lease expiry ──┘        (cancel: queued/running ──▶ cancelled)

Leases make worker death survivable: a worker claims a job with a
time-limited lease and must heartbeat (extending it) as it checkpoints
trial shards; a job whose lease lapses is re-leasable by any worker, up
to ``max_attempts``, after which it is failed with a lease-expiry error.

Every mutation appends to an ``events`` table (per-job, monotonically
numbered) — the stream the API's SSE endpoint replays and tails.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import METRICS
from repro.obs.tracing import maybe_span

__all__ = [
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "SCHEMA_VERSION",
    "TERMINAL_STATES",
]

#: Default queue database, relative to the invoking process's working
#: directory (``repro serve --queue`` and :class:`JobQueue` override it).
DEFAULT_QUEUE_PATH = os.path.join("results", "service", "jobs.db")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves on its own (resubmission re-queues the last
#: two; ``done`` is final because the result is in the store).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Length of the scenario-key prefix used as the public job id.  64 bits
#: of content address — short enough to type, collision-free at any
#: plausible queue size (and a collision would be a spec-equal job
#: anyway for all but astronomically unlucky pairs).
_ID_LEN = 16

# ---------------------------------------------------------------------------
# Schema migrations: append-only.  Each entry upgrades from its index
# version to index+1; a fresh database replays all of them in order.
# NEVER edit an existing migration — add a new one.
# ---------------------------------------------------------------------------
_MIGRATIONS: tuple[tuple[str, ...], ...] = (
    # v0 -> v1: the original jobs + events tables.
    (
        """
        CREATE TABLE jobs (
            id            TEXT PRIMARY KEY,
            scenario_key  TEXT NOT NULL UNIQUE,
            spec          TEXT NOT NULL,
            state         TEXT NOT NULL,
            submitted_at  REAL NOT NULL,
            started_at    REAL,
            finished_at   REAL,
            attempts      INTEGER NOT NULL DEFAULT 0,
            worker        TEXT,
            lease_expires REAL,
            error         TEXT,
            progress_done INTEGER NOT NULL DEFAULT 0,
            progress_total INTEGER NOT NULL DEFAULT 0
        )
        """,
        """
        CREATE TABLE events (
            job_id  TEXT NOT NULL,
            seq     INTEGER NOT NULL,
            ts      REAL NOT NULL,
            kind    TEXT NOT NULL,
            payload TEXT NOT NULL,
            PRIMARY KEY (job_id, seq)
        )
        """,
        "CREATE INDEX idx_jobs_state ON jobs (state, submitted_at)",
    ),
    # v1 -> v2: record whether completion was a pure cache replay (the
    # warm-resubmission observability the load bench and CI assert on).
    (
        "ALTER TABLE jobs ADD COLUMN cache_hit INTEGER NOT NULL DEFAULT 0",
    ),
)

#: Current schema version — the number of migrations applied.
SCHEMA_VERSION = len(_MIGRATIONS)


@dataclass(frozen=True)
class JobRecord:
    """One row of the jobs table, as plain immutable data."""

    id: str
    scenario_key: str
    spec: str
    state: str
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    attempts: int
    worker: str | None
    lease_expires: float | None
    error: str | None
    progress_done: int
    progress_total: int
    cache_hit: bool

    def to_dict(self) -> dict:
        """The wire form ``GET /jobs/<id>`` returns."""
        return {
            "id": self.id,
            "scenario_key": self.scenario_key,
            "spec": self.spec,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "error": self.error,
            "progress_done": self.progress_done,
            "progress_total": self.progress_total,
            "cache_hit": bool(self.cache_hit),
        }


_ROW_FIELDS = (
    "id, scenario_key, spec, state, submitted_at, started_at, finished_at, "
    "attempts, worker, lease_expires, error, progress_done, progress_total, "
    "cache_hit"
)


#: Connections a process inherited across ``fork``.  Never used or closed
#: in the child — closing one would run SQLite's close path against the
#: parent's WAL — and kept referenced so no finalizer does it either.
_FORK_ORPHANS: list[sqlite3.Connection] = []


def _one(con: sqlite3.Connection, sql: str, params=()) -> tuple | None:
    """The first row of a query, or ``None``, with the statement run to
    completion: a cursor left mid-result on a long-lived connection pins
    an old WAL snapshot (stale reads, a WAL that never checkpoints)."""
    rows = con.execute(sql, params).fetchall()
    return rows[0] if rows else None


def _record(row: sqlite3.Row | tuple) -> JobRecord:
    return JobRecord(
        id=row[0],
        scenario_key=row[1],
        spec=row[2],
        state=row[3],
        submitted_at=row[4],
        started_at=row[5],
        finished_at=row[6],
        attempts=int(row[7]),
        worker=row[8],
        lease_expires=row[9],
        error=row[10],
        progress_done=int(row[11]),
        progress_total=int(row[12]),
        cache_hit=bool(row[13]),
    )


class JobQueue:
    """The persistent job store over one SQLite file.

    Safe for concurrent multi-process use: WAL journaling keeps readers
    off the writers' lock, every mutation runs in an ``IMMEDIATE``
    transaction (write lock taken up front, so check-then-update
    sequences are atomic), and a busy timeout makes short lock collisions
    waits instead of errors.

    Each process holds one connection per queue, opened lazily and
    reused by every method; one re-entrant lock serializes reads and
    transactions on it, so API handler threads and an in-process worker
    can share the instance.  A process that inherits the queue across
    ``fork`` opens its own connection and never touches the parent's.
    :meth:`close` (or leaving a ``with`` block) releases the connection;
    the next operation reopens it.

    ``salt`` feeds :func:`~repro.runtime.store.scenario_key`; leave it
    ``None`` so queue ids and result-store keys agree (both then follow
    the package-version salt and ``REPRO_CACHE_SALT``).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        salt: str | None = None,
        max_attempts: int = 3,
        busy_timeout: float = 10.0,
    ):
        from repro.runtime.store import code_salt

        self.path = os.path.abspath(
            os.fspath(path) if path is not None else DEFAULT_QUEUE_PATH
        )
        self.salt = code_salt() if salt is None else str(salt)
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.busy_timeout = float(busy_timeout)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._con: sqlite3.Connection | None = None
        self._lock = threading.RLock()
        self._pid = os.getpid()
        self._migrate()

    # ------------------------------------------------------------------
    # Connections and schema
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        # Shared across threads under ``_lock``; sqlite3.threadsafety is
        # 3 (serialized), so the C library allows it.
        con = sqlite3.connect(
            self.path, timeout=self.busy_timeout, check_same_thread=False
        )
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        con.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
        return con

    def _held_lock(self) -> threading.RLock:
        """The queue lock, behind the fork guard: a forked child starts
        with a fresh lock and no connection, orphaning (never closing)
        the parent's handle."""
        if self._pid != os.getpid():
            if self._con is not None:
                _FORK_ORPHANS.append(self._con)
            self._con, self._lock, self._pid = None, threading.RLock(), os.getpid()
        return self._lock

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """This process's connection, held exclusively for the body."""
        with self._held_lock():
            if self._con is None:
                self._con = self._connect()
            yield self._con

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """One write transaction; the lock is taken before the body runs."""
        with self._connection() as con:
            con.execute("BEGIN IMMEDIATE")
            try:
                yield con
                con.commit()
            except BaseException:
                con.rollback()
                raise

    def close(self) -> None:
        """Close this process's connection.  Idempotent; the next
        operation reopens it."""
        with self._held_lock():
            if self._con is not None:
                self._con.close()
                self._con = None

    def __enter__(self) -> JobQueue:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _migrate(self) -> None:
        """Bring the database to :data:`SCHEMA_VERSION`, forward only."""
        with self._tx() as con:
            con.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = _one(con, "SELECT value FROM meta WHERE key='schema_version'")
            version = int(row[0]) if row else 0
            if version > SCHEMA_VERSION:
                raise RuntimeError(
                    f"queue {self.path} has schema version {version}, newer "
                    f"than this code's {SCHEMA_VERSION}; upgrade the package "
                    "(migrations are forward-only)"
                )
            for target in range(version, SCHEMA_VERSION):
                for statement in _MIGRATIONS[target]:
                    con.execute(statement)
            con.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (str(SCHEMA_VERSION),),
            )

    def schema_version(self) -> int:
        """The on-disk schema version (equals :data:`SCHEMA_VERSION` after
        any successful open)."""
        with self._connection() as con:
            row = _one(con, "SELECT value FROM meta WHERE key='schema_version'")
        return int(row[0]) if row else 0

    # ------------------------------------------------------------------
    # Submission (idempotent by scenario key)
    # ------------------------------------------------------------------
    def job_identity(self, scenario) -> tuple[str, str]:
        """``(job_id, scenario_key)`` for a spec — pure, no database I/O."""
        from repro.runtime.store import scenario_key

        key = scenario_key(scenario, salt=self.salt)
        return key[:_ID_LEN], key

    def submit(self, scenario) -> tuple[JobRecord, bool]:
        """Enqueue a :class:`~repro.scenario.spec.Scenario` (or spec
        string / canonical dict); returns ``(record, created)``.

        Idempotent: a spec-equal job already ``queued``/``running``/
        ``done`` is returned as-is (``created=False``); a ``failed`` or
        ``cancelled`` one is re-queued in place.  Spec validation happens
        here (``from_string`` is eager), so a bad spec raises
        ``ValueError`` before anything touches the database — the API
        maps that to a structured 400.
        """
        from repro.scenario.tasks import _as_scenario

        sc = _as_scenario(scenario).validate()
        spec = sc.describe()
        job_id, key = self.job_identity(sc)
        now = time.time()
        with maybe_span("service.submit", job=job_id), self._tx() as con:
            row = _one(con, f"SELECT {_ROW_FIELDS} FROM jobs WHERE id=?", (job_id,))
            if row is None:
                con.execute(
                    "INSERT INTO jobs (id, scenario_key, spec, state, "
                    "submitted_at) VALUES (?, ?, ?, 'queued', ?)",
                    (job_id, key, spec, now),
                )
                self._append_event(
                    con, job_id, "submitted", {"spec": spec}, ts=now
                )
                METRICS.incr("service.jobs.submitted")
                record = self._get(con, job_id)
                return record, True
            record = _record(row)
            if record.state in ("failed", "cancelled"):
                con.execute(
                    "UPDATE jobs SET state='queued', submitted_at=?, "
                    "started_at=NULL, finished_at=NULL, attempts=0, "
                    "worker=NULL, lease_expires=NULL, error=NULL, "
                    "progress_done=0, cache_hit=0 WHERE id=?",
                    (now, job_id),
                )
                self._append_event(
                    con, job_id, "resubmitted",
                    {"spec": spec, "previous_state": record.state}, ts=now,
                )
                METRICS.incr("service.jobs.resubmitted")
                return self._get(con, job_id), False
            METRICS.incr("service.jobs.deduped")
            return record, False

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _get(self, con: sqlite3.Connection, job_id: str) -> JobRecord:
        row = _one(con, f"SELECT {_ROW_FIELDS} FROM jobs WHERE id=?", (job_id,))
        if row is None:
            raise KeyError(job_id)
        return _record(row)

    def get(self, job_id: str) -> JobRecord:
        """The job row, or ``KeyError`` for an unknown id."""
        with self._connection() as con:
            return self._get(con, job_id)

    def list(self, state: str | None = None) -> list[JobRecord]:
        """All jobs (optionally one state), newest submission first."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r}; known: {', '.join(JOB_STATES)}"
            )
        with self._connection() as con:
            if state is None:
                rows = con.execute(
                    f"SELECT {_ROW_FIELDS} FROM jobs ORDER BY submitted_at DESC"
                ).fetchall()
            else:
                rows = con.execute(
                    f"SELECT {_ROW_FIELDS} FROM jobs WHERE state=? "
                    "ORDER BY submitted_at DESC",
                    (state,),
                ).fetchall()
        return [_record(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Job counts by state (all states present, zeros included)."""
        with self._connection() as con:
            rows = con.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in JOB_STATES}
        out.update({state: int(count) for state, count in rows})
        return out

    def depth(self) -> int:
        """Jobs waiting or in flight — the ``/healthz`` queue depth."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    # ------------------------------------------------------------------
    # Leasing (the worker side of the state machine)
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, ttl: float, now: float | None = None):
        """Claim the oldest runnable job for ``worker_id``; ``None`` when
        the queue is idle.

        Runnable means ``queued``, or ``running`` with an expired lease
        (the previous worker died) — the re-queue path.  Each claim
        increments ``attempts``; a stale job that already burned
        ``max_attempts`` is failed instead of handed out again.
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        now = time.time() if now is None else float(now)
        with maybe_span("service.lease", worker=worker_id), self._tx() as con:
            while True:
                row = _one(
                    con,
                    f"SELECT {_ROW_FIELDS} FROM jobs WHERE state='queued' "
                    "OR (state='running' AND lease_expires < ?) "
                    "ORDER BY submitted_at LIMIT 1",
                    (now,),
                )
                if row is None:
                    return None
                record = _record(row)
                expired = record.state == "running"
                if expired:
                    METRICS.incr("service.leases.expired")
                    self._append_event(
                        con, record.id, "lease_expired",
                        {"worker": record.worker, "attempts": record.attempts},
                        ts=now,
                    )
                if record.attempts >= self.max_attempts:
                    error = (
                        f"lease expired after {record.attempts} attempts "
                        f"(max_attempts={self.max_attempts})"
                    )
                    con.execute(
                        "UPDATE jobs SET state='failed', finished_at=?, "
                        "worker=NULL, lease_expires=NULL, error=? WHERE id=?",
                        (now, error, record.id),
                    )
                    self._append_event(
                        con, record.id, "failed", {"error": error}, ts=now
                    )
                    METRICS.incr("service.jobs.failed")
                    continue
                con.execute(
                    "UPDATE jobs SET state='running', worker=?, "
                    "lease_expires=?, attempts=attempts + 1, "
                    "started_at=COALESCE(started_at, ?) WHERE id=?",
                    (worker_id, now + ttl, now, record.id),
                )
                self._append_event(
                    con, record.id, "leased",
                    {"worker": worker_id, "attempt": record.attempts + 1,
                     "requeued": expired},
                    ts=now,
                )
                METRICS.incr("service.leases.granted")
                return self._get(con, record.id)

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        ttl: float,
        progress_done: int | None = None,
        progress_total: int | None = None,
        now: float | None = None,
    ) -> bool:
        """Extend the lease (and optionally record shard progress).

        Returns ``False`` when the worker no longer owns the job — it was
        cancelled, re-leased after an expiry, or finished elsewhere — in
        which case the worker must abandon it mid-flight.
        """
        now = time.time() if now is None else float(now)
        sets = ["lease_expires=?"]
        params: list[Any] = [now + ttl]
        if progress_done is not None:
            sets.append("progress_done=?")
            params.append(int(progress_done))
        if progress_total is not None:
            sets.append("progress_total=?")
            params.append(int(progress_total))
        params += [job_id, worker_id]
        with self._tx() as con:
            cur = con.execute(
                f"UPDATE jobs SET {', '.join(sets)} "
                "WHERE id=? AND worker=? AND state='running'",
                params,
            )
            return cur.rowcount == 1

    def finish(
        self,
        job_id: str,
        worker_id: str,
        error: str | None = None,
        cache_hit: bool = False,
        now: float | None = None,
    ) -> bool:
        """Complete a leased job — ``done``, or ``failed`` with ``error``.

        Ownership-checked like :meth:`heartbeat`: a worker that lost its
        lease cannot overwrite another worker's result (returns ``False``).
        """
        now = time.time() if now is None else float(now)
        state = "done" if error is None else "failed"
        with self._tx() as con:
            cur = con.execute(
                "UPDATE jobs SET state=?, finished_at=?, error=?, "
                "lease_expires=NULL, cache_hit=? "
                "WHERE id=? AND worker=? AND state='running'",
                (state, now, error, int(bool(cache_hit)), job_id, worker_id),
            )
            if cur.rowcount != 1:
                return False
            payload: dict[str, Any] = {"worker": worker_id}
            if error is not None:
                payload["error"] = error
            if cache_hit:
                payload["cache_hit"] = True
            self._append_event(con, job_id, state, payload, ts=now)
        METRICS.incr(f"service.jobs.{state}")
        return True

    def cancel(self, job_id: str, now: float | None = None) -> bool:
        """Cancel a ``queued``/``running`` job; ``False`` if already
        terminal.  A running job's worker notices at its next heartbeat
        (which fails) and abandons the execution; completed shard
        checkpoints stay in the store for a future resubmission."""
        now = time.time() if now is None else float(now)
        with self._tx() as con:
            self._get(con, job_id)  # unknown ids raise KeyError
            cur = con.execute(
                "UPDATE jobs SET state='cancelled', finished_at=?, "
                "worker=NULL, lease_expires=NULL "
                "WHERE id=? AND state IN ('queued', 'running')",
                (now, job_id),
            )
            if cur.rowcount != 1:
                return False
            self._append_event(con, job_id, "cancelled", {}, ts=now)
        METRICS.incr("service.jobs.cancelled")
        return True

    # ------------------------------------------------------------------
    # Events (the stream the SSE endpoint tails)
    # ------------------------------------------------------------------
    def _append_event(
        self,
        con: sqlite3.Connection,
        job_id: str,
        kind: str,
        payload: dict,
        ts: float,
    ) -> None:
        con.execute(
            "INSERT INTO events (job_id, seq, ts, kind, payload) VALUES "
            "(?, COALESCE((SELECT MAX(seq) FROM events WHERE job_id=?), -1) + 1, "
            "?, ?, ?)",
            (job_id, job_id, ts, kind, json.dumps(payload, sort_keys=True)),
        )

    def append_event(self, job_id: str, kind: str, payload: dict) -> None:
        """Record a job event (workers stream shard completions here)."""
        with self._tx() as con:
            self._append_event(con, job_id, kind, payload, ts=time.time())

    def events_since(
        self, job_id: str, after_seq: int = -1
    ) -> list[tuple[int, float, str, dict]]:
        """Events strictly after ``after_seq`` as ``(seq, ts, kind,
        payload)``, in order — the polling primitive behind the stream."""
        with self._connection() as con:
            rows = con.execute(
                "SELECT seq, ts, kind, payload FROM events "
                "WHERE job_id=? AND seq > ? ORDER BY seq",
                (job_id, int(after_seq)),
            ).fetchall()
        return [
            (int(seq), float(ts), kind, json.loads(payload))
            for seq, ts, kind, payload in rows
        ]
