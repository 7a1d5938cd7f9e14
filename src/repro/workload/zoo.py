"""The batched workload implementations behind the WORKLOADS registry.

Each workload advances ``T`` independent trials as ``(n, T)`` matrices,
matching the engine's trial-vectorized shape:

* :class:`BroadcastWorkload` — single-source rumor spreading, the
  pre-workload engine semantics bit for bit (its init draws nothing from
  the trial generators, so every stream is untouched);
* :class:`GossipWorkload` — ``k`` rumor sources per trial, drawn without
  replacement from each trial's own generator (all-to-all spreading once
  every trial's sources merge into one informed set);
* :class:`AggregateWorkload` — in-network aggregation under collisions:
  every node always has its current partial aggregate to share, and a
  clean reception folds the unique transmitting neighbour's value in
  (``op="max"`` converges to the exact maximum; ``op="count"`` runs a
  Flajolet–Martin sketch whose max-fold estimates ``n``);
* :class:`PipelineWorkload` — multi-message streaming: the source holds
  messages ``1..m``, every other node extends its consecutive prefix by
  one per clean reception from a node that is strictly ahead.

The two value workloads rely on the delivered-value identity ``sums = A @
(transmitting · values)``: receptions are a subset of exactly-one-
transmitting-neighbour events, so the row sum at a received cell *is* the
unique neighbour's value.  Adversarial jamming mutates the effective
adjacency mid-run and breaks that identity, so it is rejected eagerly.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.workload.base import SetWorkloadState, Workload, WorkloadState

__all__ = [
    "AggregateWorkload",
    "BroadcastWorkload",
    "GossipWorkload",
    "PipelineWorkload",
]

#: Channels whose receptions are exactly-one-neighbour events on the
#: static adjacency — the precondition of the value-delivery kernel.
_VALUE_SAFE_CHANNELS = ("classic", "collision-detection", "erasure")

_AGGREGATE_OPS = ("count", "max")


def _check_value_channel(workload_name: str, channel_model) -> None:
    name = getattr(channel_model, "name", str(channel_model))
    if name not in _VALUE_SAFE_CHANNELS:
        raise ValueError(
            f"workload {workload_name!r} folds delivered values and needs a "
            f"channel whose receptions are exactly-one-neighbour events on "
            f"the static adjacency ({', '.join(_VALUE_SAFE_CHANNELS)}); "
            f"got {name!r}"
        )


class BroadcastWorkload(Workload):
    """Single-source broadcast — the classic engine semantics."""

    name = "broadcast"
    set_semantics = True

    def __init__(self, source: int = 0):
        self.source = int(source)
        if self.source < 0:
            raise ValueError(
                f"source must be a vertex id (>= 0), got {source}"
            )

    @property
    def protocol_source(self) -> int:
        return self.source

    def check_graph(self, graph) -> None:
        if not 0 <= self.source < graph.n:
            raise ValueError(f"source {self.source} out of range")

    def make_state(self, network, trial_rngs) -> SetWorkloadState:
        n, T = network.graph.n, len(trial_rngs)
        initial = np.zeros((n, T), dtype=bool)
        initial[self.source, :] = True
        return SetWorkloadState(initial)


class GossipWorkload(Workload):
    """``k``-source rumor spreading with per-trial random frontiers.

    Each trial draws its own ``k`` distinct sources from its own
    generator (after the protocol/channel reset draws, preserving the
    shard-equivalence discipline); ``extras["sources"]`` records the
    ``(k, T)`` draw.  ``gossip(k=1, source=s)`` pins the single source
    and consumes no randomness — it reduces to ``broadcast(source=s)``
    bit for bit.
    """

    name = "gossip"
    set_semantics = True

    def __init__(self, k: int = 2, source: int | None = None):
        check_positive_int(k, "k")
        self.k = int(k)
        self.source = None if source is None else int(source)
        if self.source is not None:
            if self.source < 0:
                raise ValueError(
                    f"source must be a vertex id (>= 0), got {source}"
                )
            if self.k != 1:
                raise ValueError(
                    "gossip(source=...) pins the rumor set and is only "
                    f"supported at k=1; got k={self.k}"
                )

    @property
    def protocol_source(self) -> int:
        return self.source if self.source is not None else 0

    def check_graph(self, graph) -> None:
        if self.k > graph.n:
            raise ValueError(
                f"gossip needs k <= n distinct sources; k={self.k} on a "
                f"{graph.n}-vertex graph"
            )
        if self.source is not None and not self.source < graph.n:
            raise ValueError(f"source {self.source} out of range")

    def make_state(self, network, trial_rngs) -> SetWorkloadState:
        n, T = network.graph.n, len(trial_rngs)
        initial = np.zeros((n, T), dtype=bool)
        if self.source is not None:
            initial[self.source, :] = True
            sources = np.full((1, T), self.source, dtype=np.int64)
        else:
            sources = np.empty((self.k, T), dtype=np.int64)
            for t, rng in enumerate(trial_rngs):
                picks = rng.choice(n, size=self.k, replace=False)
                sources[:, t] = picks
                initial[picks, t] = True
        return SetWorkloadState(initial, extras={"sources": sources})


class _AggregateState(WorkloadState):
    """Per-cell running aggregates folded by max under clean receptions."""

    def __init__(self, values, target, extras):
        super().__init__(extras)
        self.values = values  # (n, active) int64 working aggregates
        self.target = target  # (active,) int64 per-trial convergence value

    def initial_satisfied(self) -> np.ndarray:
        return self.values >= self.target[None, :]

    def transmit_eligible(self, satisfied) -> np.ndarray:
        # Every node always holds a partial aggregate worth sharing.
        return np.ones_like(satisfied)

    def fold(self, round_index, transmitting, received, satisfied, network):
        sums = network.value_counts(transmitting * self.values)
        np.maximum(self.values, sums, out=self.values, where=received)
        return (self.values >= self.target[None, :]) & ~satisfied

    def select_trials(self, keep) -> None:
        self.values = self.values[:, keep]
        self.target = self.target[keep]


class AggregateWorkload(Workload):
    """In-network aggregation: fold every node's value into all nodes.

    ``op="max"`` seeds node ``v`` with value ``v``: a trial is done when
    every (living) node holds ``n - 1``, the exact maximum.  ``op="count"``
    seeds each (node, trial) cell with a geometric sketch level drawn from
    the trial's generator — the max-fold converges to the trial's highest
    level and ``extras["estimate"] = 2**level`` is the classic
    Flajolet–Martin cardinality estimate of ``n``
    (``extras["truth"]``).  A cell counts as satisfied once it holds the
    trial's final aggregate, so ``first_informed_round`` reads as
    "round the node learned the answer".
    """

    name = "aggregate"
    set_semantics = False

    def __init__(self, op: str = "max"):
        if op not in _AGGREGATE_OPS:
            raise ValueError(
                f"aggregate op must be one of {', '.join(_AGGREGATE_OPS)}; "
                f"got {op!r}"
            )
        self.op = op

    def check_channel(self, channel_model) -> None:
        _check_value_channel(self.name, channel_model)

    def make_state(self, network, trial_rngs) -> _AggregateState:
        n, T = network.graph.n, len(trial_rngs)
        if self.op == "max":
            values = np.broadcast_to(
                np.arange(n, dtype=np.int64)[:, None], (n, T)
            ).copy()
            target = np.full(T, n - 1, dtype=np.int64)
            estimate = np.full(T, float(n - 1))
            truth = np.full(T, n - 1, dtype=np.int64)
        else:
            values = np.empty((n, T), dtype=np.int64)
            for t, rng in enumerate(trial_rngs):
                # Level L with probability 2^-(L+1): the FM sketch draw.
                values[:, t] = rng.geometric(0.5, size=n) - 1
            target = values.max(axis=0)
            estimate = np.exp2(target.astype(np.float64))
            truth = np.full(T, n, dtype=np.int64)
        return _AggregateState(
            values, target, extras={"estimate": estimate, "truth": truth}
        )


class _PipelineState(WorkloadState):
    """Per-cell consecutive-prefix counters for multi-message streaming."""

    def __init__(self, h, m):
        super().__init__()
        self.h = h  # (n, active) int64 consecutive-prefix lengths
        self.m = m

    def initial_satisfied(self) -> np.ndarray:
        return self.h >= self.m

    def transmit_eligible(self, satisfied) -> np.ndarray:
        return self.h > 0

    def fold(self, round_index, transmitting, received, satisfied, network):
        sums = network.value_counts(transmitting * self.h)
        # A clean reception from a strictly-ahead neighbour delivers the
        # next message in the prefix — one message per round, pipelined.
        advance = received & (sums > self.h)
        self.h[advance] += 1
        return (self.h >= self.m) & ~satisfied

    def select_trials(self, keep) -> None:
        self.h = self.h[:, keep]


class PipelineWorkload(Workload):
    """Stream ``m`` messages from one source; done at full prefixes.

    ``pipeline(m=1)`` has exactly broadcast's round dynamics: the prefix
    counter is then a 0/1 informed flag.
    """

    name = "pipeline"
    set_semantics = False

    def __init__(self, m: int = 2, source: int = 0):
        check_positive_int(m, "m")
        self.m = int(m)
        self.source = int(source)
        if self.source < 0:
            raise ValueError(
                f"source must be a vertex id (>= 0), got {source}"
            )

    @property
    def protocol_source(self) -> int:
        return self.source

    def check_graph(self, graph) -> None:
        if not 0 <= self.source < graph.n:
            raise ValueError(f"source {self.source} out of range")

    def check_channel(self, channel_model) -> None:
        _check_value_channel(self.name, channel_model)

    def make_state(self, network, trial_rngs) -> _PipelineState:
        n, T = network.graph.n, len(trial_rngs)
        h = np.zeros((n, T), dtype=np.int64)
        h[self.source, :] = self.m
        return _PipelineState(h, self.m)
