"""Picklable, cache-friendly task functions for runtime-scheduled sweeps.

``ParallelExecutor`` pickles the task function and its kwargs into worker
processes, and the result store content-addresses both — so sweep
evaluators that want parallelism or caching must be module-level functions
taking plain-data parameters and returning plain-data results.

Since the scenario API landed, the canonical payload is a pickled
:class:`~repro.scenario.Scenario` and the canonical evaluators live in
:mod:`repro.scenario.tasks`.  The two legacy task functions below are
kept as thin compatibility wrappers over that machinery — same function
names, same argument shapes, same result dicts (now produced by
:func:`~repro.scenario.tasks.scenario_summary`, so spec-born and
helper-born runs share one engine path).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "chain_broadcast_point",
    "broadcast_rounds_point",
]


def _channel_spec(channel) -> Any:
    """Coerce a legacy channel factory argument to a ChannelSpec."""
    from repro.radio import ChannelSpec

    if channel is None:
        return ChannelSpec()
    if isinstance(channel, ChannelSpec):
        return channel
    raise TypeError(
        "scenario-routed tasks need a repro.radio.ChannelSpec (or None), "
        f"not {type(channel).__name__}; arbitrary factories cannot be "
        "content-addressed"
    )


def chain_broadcast_point(
    s: int,
    layers: int,
    seed: int,
    trials: int = 1,
    channel=None,
    max_rounds: int | None = None,
) -> dict[str, Any]:
    """One (``s``, ``layers``) grid point: ``trials`` batched Decay
    broadcasts on a fresh Section 5 chain.

    A thin wrapper over ``scenario_summary`` of the equivalent
    ``chain(s, layers) | decay`` scenario — ``seed`` splits into the
    protocol and chain-construction seeds exactly as before, so every
    measured number is bit-for-bit the pre-scenario one (the dict gains
    the ``scenario`` and ``completion_rate`` keys).  Returns a plain-JSON
    dict — executor-, cache-, and sidecar-friendly.
    """
    from repro.scenario import GraphSpec, Scenario, scenario_summary

    return scenario_summary(
        Scenario(
            graph=GraphSpec.make("chain", int(s), int(layers)),
            channel=_channel_spec(channel),
            trials=trials,
            seed=seed,
            max_rounds=max_rounds,
        )
    )


def broadcast_rounds_point(
    graph,
    seed: int,
    trials: int = 1,
    source: int = 0,
    channel=None,
    max_rounds: int | None = None,
    engine: str = "auto",
    memory_budget: int | None = None,
) -> dict[str, Any]:
    """Batched Decay broadcast rounds on an arbitrary ``graph``.

    ``graph`` may be a :class:`~repro.scenario.GraphSpec` / spec string —
    the scenario-routed form — or an already-built
    :class:`~repro.graphs.graph.Graph`, which rides along as a (picklable,
    digest-addressable) parameter; used by ``repro schedule`` to average
    its randomized comparison over executor-scheduled repetitions.
    """
    import numpy as np

    from repro.graphs.graph import Graph
    from repro.scenario import GraphSpec, Scenario, scenario_summary

    if not isinstance(graph, Graph):
        gspec = (
            graph
            if isinstance(graph, GraphSpec)
            else GraphSpec.from_string(graph)
        )
        return scenario_summary(
            Scenario(
                graph=gspec,
                channel=_channel_spec(channel),
                trials=trials,
                seed=seed,
                source=source,
                max_rounds=max_rounds,
                engine=engine,
                memory_budget=memory_budget,
            )
        )
    from repro.radio import DecayProtocol, run_broadcast_batch

    batch = run_broadcast_batch(
        graph,
        DecayProtocol(),
        trials=trials,
        source=source,
        seed=seed,
        max_rounds=max_rounds,
        channel=channel() if channel is not None else None,
        engine=engine,
        memory_budget=memory_budget,
    )
    rounds = [int(r) for r in batch.rounds]
    return {
        "n": graph.n,
        "trials": trials,
        "rounds": rounds,
        "completed": [bool(c) for c in batch.completed],
        "mean_rounds": float(np.mean(rounds)),
    }
