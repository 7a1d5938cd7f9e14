"""Shared fixtures for the experiment-service tests: a tmp-backed queue
and store, a worker wired to both, and a live server on an ephemeral
port with its client."""

from __future__ import annotations

import threading

import pytest

from repro.runtime.store import ResultStore
from repro.service import JobQueue, ServiceClient, Worker, create_server

#: The suite's canonical small job — fast (tiny graph, capped rounds) but
#: wide enough (10 trials over 4-trial shards) to exercise checkpointing.
SPEC = (
    "margulis(4) | decay | erasure(0.1) | gossip(k=4) "
    "| trials=10 | max_rounds=12 | seed=5"
)


@pytest.fixture
def queue(tmp_path):
    with JobQueue(tmp_path / "jobs.db") as q:
        yield q


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


@pytest.fixture
def worker(queue, store) -> Worker:
    return Worker(queue, store=store, lease_ttl=30.0, shard_trials=4)


@pytest.fixture
def server(queue):
    srv = create_server(queue, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.fixture
def client(server) -> ServiceClient:
    return ServiceClient(server.url, timeout=30.0)
