"""Module-level scenario task functions — the runtime's unit of work.

``ParallelExecutor`` pickles a task function plus kwargs into worker
processes and the result store content-addresses what it computes.  With
the scenario API both reduce to *one* canonical payload: the pickled
:class:`~repro.scenario.spec.Scenario` itself.  No more bespoke task
function per study — everything that runs a simulation schedules one of:

* :func:`run_scenario` — the full :class:`~repro.radio.broadcast.BatchBroadcastResult`;
* :func:`scenario_summary` — a plain-JSON dict (rounds, completion, the
  graph family's ``meta`` facts) for tables and sidecars;
* :func:`run_scenario_shard` — a contiguous slice of a scenario's trials
  (the building block of :func:`run_scenario_sharded`, which splits one
  big batch across worker processes and merges the shards back into the
  bit-for-bit serial result).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import as_rng, spawn_seeds
from repro.obs.tracing import maybe_span
from repro.radio.broadcast import (
    BatchBroadcastResult,
    merge_batches,
    run_broadcast_batch,
)

__all__ = [
    "expansion_summary",
    "merge_batches",
    "run_scenario",
    "run_scenario_shard",
    "run_scenario_sharded",
    "scenario_summary",
]


def _as_scenario(scenario):
    """Accept a :class:`Scenario`, spec string, or canonical dict."""
    from repro.scenario.spec import Scenario

    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        return Scenario.from_string(scenario)
    if isinstance(scenario, dict):
        return Scenario.from_dict(scenario)
    raise TypeError(
        f"expected a Scenario, spec string, or canonical dict; "
        f"got {type(scenario).__name__}"
    )


def _run_realized(realized, scenario) -> BatchBroadcastResult:
    """The one engine invocation every scenario view shares — so the
    cached ``summary`` and ``result`` views of a spec can never disagree
    about how it was run."""
    with maybe_span("engine.run", scenario=scenario.describe()):
        return run_broadcast_batch(
            realized.built.graph,
            realized.protocol,
            trials=scenario.trials,
            max_rounds=scenario.max_rounds,
            seed=realized.protocol_seed,
            channel=realized.channel,
            engine=scenario.engine,
            memory_budget=scenario.memory_budget,
            workload=realized.workload,
            telemetry=scenario.telemetry,
        )


def run_scenario(scenario) -> BatchBroadcastResult:
    """Run one scenario inline and return the full batch result.

    This is the reference evaluation: ``Scenario.run`` with any executor
    or cache must reproduce its output bit for bit.
    """
    scenario = _as_scenario(scenario)
    return _run_realized(scenario.build(), scenario)


def run_scenario_shard(scenario, trial_seeds: Sequence[int]) -> BatchBroadcastResult:
    """Run a contiguous slice of a scenario's trials.

    ``trial_seeds`` are the per-trial children the full batch would derive
    (``spawn_seeds(protocol_seed, trials)``); handing the engine the exact
    children keeps every shard bit-for-bit aligned with the serial batch.
    """
    scenario = _as_scenario(scenario)
    realized = scenario.build()
    with maybe_span("engine.run_shard", trials=len(trial_seeds)):
        return run_broadcast_batch(
            realized.built.graph,
            realized.protocol,
            trials=len(trial_seeds),
            max_rounds=scenario.max_rounds,
            trial_rngs=list(trial_seeds),
            channel=realized.channel,
            engine=scenario.engine,
            memory_budget=scenario.memory_budget,
            workload=realized.workload,
            telemetry=scenario.telemetry,
        )


# merge_batches grew a second caller (the MemoryBudget column sharder) and
# now lives next to the engine in repro.radio.broadcast; re-exported here
# because this module has always been its public home.


def run_scenario_sharded(scenario, executor) -> BatchBroadcastResult:
    """Split one scenario's trials across an executor's workers.

    Derives the same per-trial seed children the serial engine would,
    chunks them contiguously (one shard per worker), and merges the shard
    results — bit-for-bit equal to :func:`run_scenario`.
    """
    from repro.runtime.executor import as_executor

    scenario = _as_scenario(scenario)
    exec_ = as_executor(executor)
    protocol_seed, _ = scenario.seeds
    trial_seeds = spawn_seeds(as_rng(protocol_seed), scenario.trials)
    shards = min(exec_.jobs, scenario.trials)
    chunks = [c.tolist() for c in np.array_split(trial_seeds, shards)]
    calls = [
        {"scenario": scenario, "trial_seeds": chunk}
        for chunk in chunks
        if chunk
    ]
    with maybe_span(
        "scenario.sharded", shards=len(calls), trials=scenario.trials
    ):
        parts = exec_.map(run_scenario_shard, calls)
        return merge_batches(parts)


def _as_graph_spec(graph):
    """Accept a :class:`GraphSpec`, spec string, or canonical dict."""
    from repro.scenario.spec import GraphSpec

    if isinstance(graph, GraphSpec):
        return graph
    if isinstance(graph, str):
        return GraphSpec.from_string(graph)
    if isinstance(graph, dict):
        return GraphSpec.from_dict(graph)
    raise TypeError(
        f"expected a GraphSpec, spec string, or canonical dict; "
        f"got {type(graph).__name__}"
    )


def expansion_summary(graph, expansion="sampled", seed: int = 0, executor=None) -> dict:
    """One wireless-expansion measurement as a plain-JSON dict.

    The measurement-side sibling of :func:`scenario_summary`: ``graph`` is
    a :class:`~repro.scenario.spec.GraphSpec` (or spec string / canonical
    dict), ``expansion`` an
    :class:`~repro.expansion.spec.ExpansionSpec` (or its string / dict
    form).  ``seed`` follows the scenario split discipline — a randomized
    family consumes the second child of ``spawn_seeds(seed, 2)`` for
    graph construction and the estimator the first, exactly as
    :attr:`Scenario.seeds <repro.scenario.spec.Scenario.seeds>` splits —
    so one ``(graph, expansion, seed)`` triple is one reproducible
    measurement, content-addressed by
    :meth:`~repro.runtime.store.ResultStore.expansion_key`.

    ``executor`` shards candidate batches inside the estimator (results
    are bit-for-bit identical to serial, so it is not part of the
    identity).
    """
    from repro.expansion.spec import as_expansion_spec

    gspec = _as_graph_spec(graph)
    gspec.validate()
    espec = as_expansion_spec(expansion)
    if gspec.randomized:
        estimator_seed, graph_seed = spawn_seeds(seed, 2)
    else:
        estimator_seed, graph_seed = seed, None
    built = gspec.build(seed=graph_seed)
    estimate = espec.estimate(built.graph, rng=estimator_seed, executor=executor)
    out: dict = dict(built.meta)
    out.update(
        graph=gspec.describe(),
        expansion=espec.describe(),
        seed=int(seed),
        n=built.graph.n,
        beta_w=float(estimate.value),
        bound=estimate.bound,
        subset_size=int(estimate.subset.size),
        candidates=int(estimate.candidates),
    )
    return out


def scenario_summary(scenario) -> dict:
    """One scenario as a plain-JSON measurement dict.

    Merges the graph family's ``meta`` facts (the chain family reports
    ``s``, ``layers``, ``diameter``, ``km_bound``) with the batch
    outcome — the row format the CLI tables, sweep points and result
    sidecars consume.
    """
    scenario = _as_scenario(scenario)
    realized = scenario.build()
    batch = _run_realized(realized, scenario)
    rounds = [int(r) for r in batch.rounds]
    out: dict = dict(realized.built.meta)
    out.update(
        scenario=scenario.describe(),
        n=realized.built.graph.n,
        trials=scenario.trials,
        rounds=rounds,
        completed=[bool(c) for c in batch.completed],
        mean_rounds=float(np.mean(rounds)),
        completion_rate=float(batch.completion_rate),
    )
    return out
