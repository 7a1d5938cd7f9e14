"""The benchmark's workloads: set-up, the timed work, output checks.

Each workload is built from ``(seed, rep, tmpdir, corrupt)`` — its set-up:
imports, spec parsing, server and queue start — does untimed, untraced
preparation in :meth:`prepare`, runs its timed work with :meth:`run`,
and afterwards checks what the program produced with :meth:`check`.
Repetition ``rep`` of a run draws its inputs from :func:`input_seed`, so
the repetitions of one run measure different inputs and their median is
less tied to one draw.  With ``corrupt`` set, one output is altered
outside the timed region, before any check that should catch it.  The
library is imported lazily, so ``run.py`` can read the names here without
loading numpy.

* ``bitset-broadcast`` — the datacenter point: a cold build of
  ``random_regular(100000, 16)`` and 64 ``decay`` trials on the
  packed-bitset engine, classic channel.
* ``service-jobs`` — one client in a closed loop over HTTP against an
  in-process server; the main thread is also the only worker.  It times a
  cold pass of 8 distinct dense gossip jobs (telemetry on every other job)
  on an empty result store — shard computation, telemetry and store
  writes — then resubmits them into fresh queues until 200 warm jobs have
  been served from the store: reads only.
* ``expansion-n200`` — ``expansion_summary`` with the sampled estimator on
  three n≈200 graphs, plus the spokesman portfolio on one of them, after
  an untimed warm-up study.  Candidates are random samples only: BFS balls
  would add a fixed ~600 candidates that make the portfolio arm several
  times dearer, leaving fewer repetitions.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time

#: Seed whose first repetition's outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 0


def input_seed(seed: int, rep: int) -> int:
    """The input seed of repetition ``rep`` of a run with seed ``seed``."""
    return seed * 1000 + rep


class Stopwatch:
    """Accumulates time spent inside ``with stopwatch:`` blocks only, so
    output checks interleaved with the timed work stay out of it:
    ``elapsed`` wall seconds and ``cpu`` seconds of the whole process, all
    threads (the service workloads' server thread included)."""

    def __init__(self):
        self.elapsed = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start
        self.cpu += time.process_time() - self._cpu_start


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def array_digest(named_arrays) -> str:
    """sha256 over ``(name, dtype, shape, bytes)`` of each array in order."""
    import numpy as np

    h = hashlib.sha256()
    for name, value in named_arrays:
        arr = np.ascontiguousarray(value)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def batch_digest(result, fields=None) -> str:
    """Digest of a ``BatchBroadcastResult``: the named fields, or every
    field and extra when ``fields`` is ``None``."""
    if fields is None:
        fields = ("rounds", "completed", "informed_per_round",
                  "first_informed_round", "transmissions")
        extras = sorted(result.extras.items())
    else:
        extras = []
    return array_digest([(f, getattr(result, f)) for f in fields] + extras)


def compare_pinned(outcome: Outcome, digests: list[str], pinned) -> None:
    """One operation per digest: it must equal the pinned one."""
    if pinned is None:
        return
    for i, (got, want) in enumerate(zip(digests, pinned)):
        outcome.op(got == want, f"output {i} differs from the pinned digest")
    outcome.op(len(digests) == len(pinned), "wrong number of outputs")


class Workload:
    """Defaults: nothing to prepare, nothing to take down."""

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass


class BitsetBroadcast(Workload):
    """The topology is one fixed graph, rebuilt cold in every repetition;
    the input seed drives the 64 decay trials.  Seeding the graph too would
    let the generator's repair loop, whose length varies several-fold between
    graph seeds, dominate the run-to-run spread."""

    name = "bitset-broadcast"
    N = 100000
    GRAPH = "random_regular(100000, 16)"
    GRAPH_SEED = 0
    TRIALS = 64
    FIELDS = ("rounds", "completed", "first_informed_round", "transmissions")

    def __init__(self, seed: int, rep: int, tmpdir: str, corrupt: bool = False):
        import repro.radio.broadcast as broadcast
        from repro.scenario.spec import GraphSpec, ProtocolSpec

        self.inputs = input_seed(seed, rep)
        self.corrupt = corrupt
        self.graph = GraphSpec.from_string(self.GRAPH).validate()
        self.protocol = ProtocolSpec.from_string("decay").validate()
        self.broadcast = broadcast
        self.latencies: dict[str, list[float]] = {"run": []}

    def run(self) -> Stopwatch:
        watch = Stopwatch()
        with watch:
            built = self.graph.build(seed=self.GRAPH_SEED)
            self.result = self.broadcast.run_broadcast_batch(
                built.graph, self.protocol.build(), trials=self.TRIALS,
                seed=self.inputs, engine="bitset",
            )
        self.latencies["run"].append(watch.elapsed)
        if self.corrupt:
            self.result.first_informed_round[0, 0] += 1
        return watch

    def check(self, pinned) -> tuple[Outcome, list[str]]:
        import numpy as np

        r, out = self.result, Outcome()
        ipr = r.informed_per_round
        out.op(bool((np.diff(ipr, axis=0) >= 0).all()),
               "informed_per_round is not monotone")
        # Per trial, the first-informed rounds must add up to the coverage
        # curve: one source at round 0, the last node at the final round.
        for t in range(self.TRIALS):
            first = r.first_informed_round[:, t]
            if not r.completed[t] or ipr[-1, t] != self.N or first.min() < 0:
                out.op(False, f"trial {t} did not inform all {self.N} nodes")
                continue
            cum = np.bincount(first, minlength=ipr.shape[0] + 1).cumsum()
            out.op(
                first.min() == 0 and cum[0] == 1 and first.max() == r.rounds[t]
                and bool((cum[1:] == ipr[:, t]).all()),
                f"trial {t}: first_informed_round disagrees with its coverage",
            )
        digests = [batch_digest(r, self.FIELDS)]
        compare_pinned(out, digests, pinned)
        return out, digests


def _tap_store(root):
    """A ``ResultStore`` that remembers the last value it stored or served
    per key: what a cold job computed and what a warm job served, compared
    outside the timed region."""
    from repro.runtime.store import ResultStore

    class TapStore(ResultStore):
        def __init__(self, root):
            super().__init__(root)
            self.seen: dict = {}

        def get(self, key):
            value = super().get(key)
            self.seen[key] = value
            return value

        def put(self, key, value, meta=None):
            path = super().put(key, value, meta)
            self.seen[key] = value
            return path

    return TapStore(root)


class ServiceJobs(Workload):
    """A fresh store and queue, the HTTP server on its own thread, the
    client and the worker here.  The timed work is a cold pass of
    ``JOBS`` distinct jobs on the empty store, then warm passes that
    resubmit them into fresh queues until ``WARM_JOBS`` jobs have been
    served from the store: writes and reads in one total, at about equal
    CPU shares, so a change that speeds one and slows the other shows."""

    name = "service-jobs"
    SPEC = ("random_regular(4096, 8) | decay | erasure(0.05) | gossip(k=4) "
            "| trials=64 | seed={seed}{telemetry}")
    #: Distinct jobs; job ``i`` of a repetition has seed ``inputs * 8 + i``.
    JOBS = 8
    SHARD_TRIALS = 16
    WARM_JOBS = 200

    def __init__(self, seed: int, rep: int, tmpdir: str, corrupt: bool = False):
        from repro.scenario.spec import Scenario
        from repro.service import JobQueue, ServiceClient, Worker, create_server

        self.tmpdir = tmpdir
        self.corrupt = corrupt
        inputs = input_seed(seed, rep)
        self.specs = [
            Scenario.from_string(self.SPEC.format(
                seed=inputs * 8 + i,
                telemetry=" | telemetry=on" if i % 2 else "",
            )).describe()
            for i in range(self.JOBS)
        ]
        #: The job whose output :meth:`check` recomputes or corrupt alters.
        self.sample = seed % self.JOBS
        self.store = _tap_store(os.path.join(tmpdir, "cache"))
        queue = JobQueue(os.path.join(tmpdir, "cold.db"))
        self.server = create_server(queue, port=0)
        # A short poll interval keeps close() from idling in shutdown().
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.client = ServiceClient(self.server.url, timeout=60.0)
        self.worker = Worker(queue, store=self.store, shard_trials=self.SHARD_TRIALS)
        self.latencies: dict[str, list[float]] = {"cold_job": [], "warm_job": []}
        self.cold_digests: list[str] = []
        self.outcome = Outcome()

    def _job(self, spec: str, watch: Stopwatch, warm: bool):
        """Submit one job, execute it on this thread, wait until it is
        done; returns whether it ran as expected and the result the worker
        computed or served."""
        with watch:
            start = time.perf_counter()
            job, created = self.client.submit(spec)
            ran = self.worker.run_once()
            record = self.client.wait(job["id"], timeout=60.0, poll=0.001)
            latency = time.perf_counter() - start
        self.latencies["warm_job" if warm else "cold_job"].append(latency)
        ok = (
            created and ran == job["id"] and record["state"] == "done"
            and record["cache_hit"] == warm
        )
        result = self.store.seen.get(record["scenario_key"])
        self.store.seen.clear()
        return ok, result

    def run(self) -> Stopwatch:
        from repro.obs.metrics import METRICS
        from repro.service import JobQueue

        watch, out = Stopwatch(), self.outcome
        for spec in self.specs:
            ok, result = self._job(spec, watch, warm=False)
            self.cold_digests.append(batch_digest(result) if result is not None else "")
            out.op(ok and result is not None, f"cold job failed: {spec}")
        if self.corrupt:
            self.cold_digests[self.sample] = "0" * 64

        computed = METRICS.get("service.shards.computed")
        hits = METRICS.get("service.jobs.cache_hits")
        warm_rounds = math.ceil(self.WARM_JOBS / self.JOBS)
        for r in range(warm_rounds):
            with watch:
                queue = JobQueue(os.path.join(self.tmpdir, f"warm{r}.db"))
                self.server.queue = self.worker.queue = queue
            for spec, cold in zip(self.specs, self.cold_digests):
                ok, result = self._job(spec, watch, warm=True)
                same = result is not None and batch_digest(result) == cold
                out.op(ok and same, f"warm job differs from cold: {spec}")
        out.op(
            METRICS.get("service.shards.computed") == computed,
            "the warm passes computed shards",
        )
        out.op(
            METRICS.get("service.jobs.cache_hits") - hits
            == warm_rounds * self.JOBS,
            "a warm job missed the cache",
        )
        return watch

    def check(self, pinned) -> tuple[Outcome, list[str]]:
        from repro.scenario.tasks import run_scenario

        direct = batch_digest(run_scenario(self.specs[self.sample]))
        self.outcome.op(direct == self.cold_digests[self.sample],
                        f"service job {self.sample} differs from run_scenario")
        compare_pinned(self.outcome, self.cold_digests, pinned)
        return self.outcome, list(self.cold_digests)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


class ExpansionN200(Workload):
    name = "expansion-n200"
    #: Exact evaluation is exponential in a candidate's size (a ``2^k``
    #: lattice) and sizes are drawn uniformly up to the cap, so the few
    #: largest candidates carry most of the cost.  At cap 20 and 200
    #: samples their seed-drawn count moved a study's cost by ±15% between
    #: seeds; cap 16 and 3000 samples hold it within ~3% at the same cost.
    SAMPLED = "sampled(samples=3000, max_set_bits=16, include_balls=false)"
    ARMS = (
        ("random_regular(200, 8)", SAMPLED),
        ("margulis(14)", SAMPLED),
        ("hypercube(8)", SAMPLED),
        ("random_regular(200, 8)",
         "portfolio(samples=100, max_set_bits=64, include_balls=false)"),
    )
    #: One candidate stream scored exactly and from below, for the
    #: lower-bound check; the portfolio costs ~7 ms a candidate, so the
    #: stream is short and checked once per run, untimed.
    LOWER_PAIR = ("sampled(samples=200, max_set_bits=16, include_balls=false)",
                  "portfolio(samples=200, max_set_bits=16, include_balls=false)")
    WARMUP = ("sampled(samples=4)", "portfolio(samples=4, max_set_bits=64)")

    def __init__(self, seed: int, rep: int, tmpdir: str, corrupt: bool = False):
        import repro.expansion.pipeline as pipeline
        from repro.expansion.spec import ExpansionSpec
        from repro.scenario.spec import GraphSpec
        from repro.scenario.tasks import expansion_summary

        self.rep = rep
        self.inputs = input_seed(seed, rep)
        self.corrupt = corrupt
        #: The sampled arm a repetition 0 checks against the portfolio.
        self.checked_arm = seed % 3
        self.summary = expansion_summary
        self.arms = [
            (GraphSpec.from_string(g).validate(), ExpansionSpec.from_string(e))
            for g, e in self.ARMS
        ]
        # Tap the selection rule for the witness set, which the summary
        # reports only by size.
        self._pipeline = pipeline
        self._select = select = pipeline.select_minimum
        self.witnesses: list = []

        def tapped(values, candidates):
            chosen = select(values, candidates)
            self.witnesses.append(chosen[1])
            return chosen

        pipeline.select_minimum = tapped
        self.latencies: dict[str, list[float]] = {"study": []}

    def prepare(self) -> None:
        # The estimators' lazy imports and first calls cost ~0.4 s once per
        # process; a tiny study pays them before the timed one.
        for espec in self.WARMUP:
            self.summary("random_regular(32, 4)", espec, seed=0)
        self.witnesses.clear()

    def run(self) -> Stopwatch:
        # The operation is the whole four-arm study: single arms differ
        # several-fold in cost, so a median over them would jump between
        # arm types from run to run.
        watch = Stopwatch()
        with watch:
            self.outputs = [
                self.summary(graph, espec, seed=self.inputs)
                for graph, espec in self.arms
            ]
        self.latencies["study"].append(watch.elapsed)
        if self.corrupt:
            self.outputs[0]["beta_w"] += 1.0
        return watch

    def check(self, pinned) -> tuple[Outcome, list[str]]:
        import numpy as np
        from repro._util import spawn_seeds

        out = Outcome()
        digests = []
        for (graph, espec), summary, witness in zip(
            self.arms, self.outputs, self.witnesses
        ):
            subset = np.sort(np.asarray(witness, dtype=np.int64))
            ok = summary["subset_size"] == subset.size and summary["candidates"] > 0
            if ok and espec.estimator == "sampled":
                # The sampled value is exact for its witness set: score the
                # set again on the graph expansion_summary built.
                seed = spawn_seeds(self.inputs, 2)[1] if graph.randomized else None
                built = graph.build(seed=seed).graph
                value = self._pipeline.evaluate_candidate_shard(
                    built, [subset], subset.size
                )[0]
                ok = value == summary["beta_w"]
            out.op(ok, f"estimate on {summary['graph']} disagrees with its witness")
            digests.append(array_digest([
                ("beta_w", np.float64(summary["beta_w"])),
                ("witness", subset),
                ("candidates", np.int64(summary["candidates"])),
            ]))
        if self.rep == 0:
            # The sampled value must not undercut the portfolio's certified
            # lower bound on the same candidate stream.
            graph, _ = self.arms[self.checked_arm]
            sampled, lower = (self.summary(graph, espec, seed=self.inputs)
                              for espec in self.LOWER_PAIR)
            out.op(
                sampled["beta_w"] >= lower["beta_w"]
                and lower["candidates"] == sampled["candidates"],
                f"sampled βw below the portfolio lower bound on {graph.describe()}",
            )
        compare_pinned(out, digests, pinned)
        return out, digests

    def close(self) -> None:
        self._pipeline.select_minimum = self._select


WORKLOADS = {
    cls.name: cls
    for cls in (BitsetBroadcast, ServiceJobs, ExpansionN200)
}
