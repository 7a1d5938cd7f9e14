"""The HTTP/JSON surface of the experiment service — stdlib only.

A :class:`ServiceServer` (``http.server.ThreadingHTTPServer``) exposes
one :class:`~repro.service.queue.JobQueue`:

``POST /jobs``
    Submit a scenario.  Body: ``{"spec": "<spec string>"}`` (or the raw
    spec as ``text/plain``).  Validation is eager and structured: an
    invalid spec returns ``400`` with a JSON body whose ``error`` field
    carries the exact message the CLI prints (``duplicate channel
    segment ...``, ``trials must be >= 1 ...``).  Submission is
    idempotent — a spec-equal job returns the existing row with
    ``created: false`` (status 200 instead of 201).
``GET /jobs`` / ``GET /jobs/<id>``
    List (optionally ``?state=queued``) / inspect jobs.
``GET /jobs/<id>/stream``
    Server-sent events over chunked transfer encoding: replays the job's
    event log, then tails it — ``shard`` events as trial shards complete,
    a ``result`` summary, and a terminal ``done``/``failed``/``cancelled``
    event, after which the stream closes.  ``?timeout=S`` bounds the tail.
``POST /jobs/<id>/cancel``
    Cancel a queued/running job.
``GET /healthz``
    Liveness plus queue depth.
``GET /metrics``
    The process-wide :data:`~repro.obs.metrics.METRICS` registry, job
    counts by state, queue throughput (jobs/sec since start), and — when
    the server runs under a :func:`~repro.obs.tracing.recording` — its
    trace-span summary.  Worker processes keep their own registries;
    queue-level truth (counts, progress) always comes from SQLite.

Everything is JSON over ``Content-Length``-framed responses except the
stream, which is chunked.  No third-party dependencies anywhere.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import METRICS
from repro.obs.tracing import active_recorder, maybe_span, summarize_events
from repro.service.queue import JOB_STATES, TERMINAL_STATES, JobQueue

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ServiceServer", "create_server"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: How often the stream endpoint polls the events table while tailing.
_STREAM_POLL_SECONDS = 0.1

#: Default tail bound for ``GET /jobs/<id>/stream`` (override: ``?timeout=``).
_STREAM_TIMEOUT_SECONDS = 300.0


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server, carrying the queue every handler thread shares.

    :class:`~repro.service.queue.JobQueue` serializes its one SQLite
    connection behind a lock, so one instance is safe across handler
    threads.  ``allow_reuse_address`` keeps quick restarts from tripping
    on TIME_WAIT sockets.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, queue: JobQueue, quiet: bool = True):
        super().__init__(address, _ServiceHandler)
        self.queue = queue
        self.quiet = quiet
        self.started_at = time.time()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def create_server(
    queue: JobQueue | str | None = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    quiet: bool = True,
) -> ServiceServer:
    """A ready-to-``serve_forever`` server (``port=0`` picks an ephemeral
    port — the tests' and the bench's entry point)."""
    if not isinstance(queue, JobQueue):
        queue = JobQueue(queue)
    return ServiceServer((host, port), queue, quiet=quiet)


class _ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # ------------------------------------------------------------------
    # Framing helpers
    # ------------------------------------------------------------------
    def _json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra) -> None:
        self._json(status, {"error": message, **extra})

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    @property
    def _queue(self) -> JobQueue:
        return self.server.queue

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._get_healthz()
            elif parts == ["metrics"]:
                self._get_metrics()
            elif parts == ["jobs"]:
                self._get_jobs(parse_qs(url.query))
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1])
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "stream":
                self._stream_job(parts[1], parse_qs(url.query))
            else:
                self._error(404, f"no such resource {url.path!r}")
        except KeyError as exc:
            self._error(404, f"no such job {exc.args[0]!r}")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                self._post_job()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._post_cancel(parts[1])
            else:
                self._error(404, f"no such resource {url.path!r}")
        except KeyError as exc:
            self._error(404, f"no such job {exc.args[0]!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _read_spec(self) -> str:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        text = body.strip()
        if text.startswith("{"):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"request body is not valid JSON: {exc}") from None
            if not isinstance(payload, dict) or "spec" not in payload:
                raise ValueError('JSON body must carry a "spec" field')
            spec = payload["spec"]
            if not isinstance(spec, str):
                raise ValueError(
                    f'"spec" must be a spec string, got {type(spec).__name__}'
                )
            return spec
        if not text:
            raise ValueError(
                'empty submission; send {"spec": "<scenario>"} or a raw spec string'
            )
        return text

    def _post_job(self) -> None:
        try:
            spec = self._read_spec()
        except ValueError as exc:
            self._error(400, str(exc))
            return
        with maybe_span("service.api.submit"):
            try:
                record, created = self._queue.submit(spec)
            except (ValueError, TypeError) as exc:
                # The structured error surface: the same eager-validation
                # message the CLI prints, as a machine-readable body.
                self._error(400, str(exc), spec=spec)
                return
        self._json(
            201 if created else 200,
            {"job": record.to_dict(), "created": created},
        )

    def _post_cancel(self, job_id: str) -> None:
        cancelled = self._queue.cancel(job_id)
        self._json(
            200,
            {"cancelled": cancelled, "job": self._queue.get(job_id).to_dict()},
        )

    def _get_jobs(self, query: dict) -> None:
        state = query.get("state", [None])[0]
        try:
            records = self._queue.list(state)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        self._json(200, {"jobs": [r.to_dict() for r in records]})

    def _get_job(self, job_id: str) -> None:
        self._json(200, {"job": self._queue.get(job_id).to_dict()})

    def _get_healthz(self) -> None:
        self._json(
            200,
            {
                "ok": True,
                "queue_depth": self._queue.depth(),
                "queue": self._queue.path,
            },
        )

    def _get_metrics(self) -> None:
        counts = self._queue.counts()
        uptime = max(time.time() - self.server.started_at, 1e-9)
        payload: dict = {
            "counters": METRICS.snapshot(),
            "jobs": counts,
            "queue_depth": counts["queued"] + counts["running"],
            "uptime_seconds": uptime,
            "jobs_per_second": counts["done"] / uptime,
        }
        rec = active_recorder()
        if rec is not None:
            payload["spans"] = summarize_events(rec.events).get("spans", {})
        self._json(200, payload)

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    def _chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

    def _sse(self, kind: str, payload: dict) -> None:
        self._chunk(
            f"event: {kind}\ndata: {json.dumps(payload, sort_keys=True)}\n\n".encode()
        )

    def _stream_job(self, job_id: str, query: dict) -> None:
        record = self._queue.get(job_id)  # 404 before committing to a stream
        try:
            timeout = float(query.get("timeout", [_STREAM_TIMEOUT_SECONDS])[0])
        except ValueError:
            self._error(400, f"bad timeout {query['timeout'][0]!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        deadline = time.monotonic() + timeout
        last_seq = -1
        terminal = False
        with maybe_span("service.api.stream", job=job_id):
            while not terminal:
                for seq, ts, kind, payload in self._queue.events_since(
                    job_id, last_seq
                ):
                    last_seq = seq
                    self._sse(kind, {"seq": seq, "ts": ts, "job": job_id, **payload})
                    if kind in TERMINAL_STATES:
                        terminal = True
                if terminal:
                    break
                if time.monotonic() >= deadline:
                    self._sse(
                        "timeout",
                        {"job": job_id, "state": self._queue.get(job_id).state},
                    )
                    break
                time.sleep(_STREAM_POLL_SECONDS)
        self.wfile.write(b"0\r\n\r\n")
        METRICS.incr("service.streams.served")


# The states a stream treats as end-of-job are exactly the queue's
# terminal states; keep the import above honest under linting.
assert set(TERMINAL_STATES) <= set(JOB_STATES)
