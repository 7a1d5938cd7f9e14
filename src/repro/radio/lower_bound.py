"""Section 5 experiment drivers: the ``Ω(D·log(n/D))`` broadcast bound.

Three measurable claims:

* **Corollary 5.1** — on the core graph with a root wired to all of ``S``,
  *no* schedule informs more than ``2s`` new ``N``-vertices per round (a
  direct consequence of Lemma 4.4(5)); so reaching a ``2i/log 2s`` fraction
  of ``N`` takes ``≥ 1 + i`` rounds.  :func:`rooted_core_graph` builds the
  instance; the claim is checked against both genie and distributed
  protocols.
* **Observation 5.2** — on the chain, the message reaches portal ``rt_i``
  only after ``rt_{i−1}``; :func:`portal_times` extracts the per-portal
  first-informed rounds from a broadcast trace (they must be increasing).
* **The lower bound itself** — measured broadcast time on the chain grows
  as ``D·log(n/D)`` for every protocol; :func:`measure_chain_broadcast`
  produces one data point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.broadcast_chain import BroadcastChain, broadcast_chain
from repro.graphs.core_graph import core_graph, core_graph_layout
from repro.graphs.graph import Graph
from repro.radio.broadcast import (
    BatchBroadcastResult,
    BroadcastResult,
    run_broadcast,
    run_broadcast_batch,
)
from repro.radio.channel import ChannelModel
from repro.radio.protocols import BroadcastProtocol

__all__ = [
    "BatchChainMeasurement",
    "ChainMeasurement",
    "measure_chain_broadcast",
    "measure_chain_broadcast_batch",
    "portal_times",
    "rooted_core_graph",
]


def rooted_core_graph(s: int) -> tuple[Graph, int, np.ndarray]:
    """The Section 5 gadget: core graph ``G_S`` plus a root ``rt`` adjacent
    to all of ``S``.

    Returns ``(graph, root, n_vertex_ids)`` where ``n_vertex_ids`` are the
    graph ids of the core graph's right side ``N`` (vertex 0 is the root,
    ``1..s`` are ``S``, the rest are ``N``).
    """
    layout = core_graph_layout(s)
    base = core_graph(s)
    edges = base.edges()
    shifted = np.column_stack([edges[:, 0] + 1, edges[:, 1] + 1 + s])
    root_edges = np.column_stack(
        [np.zeros(s, dtype=np.int64), np.arange(1, s + 1, dtype=np.int64)]
    )
    graph = Graph(
        1 + s + layout.n_right, np.concatenate([root_edges, shifted])
    )
    n_ids = np.arange(1 + s, 1 + s + layout.n_right, dtype=np.int64)
    return graph, 0, n_ids


def portal_times(chain: BroadcastChain, result: BroadcastResult) -> np.ndarray:
    """First-informed round of each portal ``rt_i`` (must be increasing by
    Observation 5.2; ``-1`` entries mean the broadcast never got there)."""
    return result.first_informed_round[chain.portals]


@dataclass(frozen=True)
class ChainMeasurement:
    """One data point of the E7 sweep."""

    s: int
    num_layers: int
    n: int
    diameter_claim: int
    rounds: int
    completed: bool
    portal_rounds: np.ndarray

    @property
    def km_bound(self) -> float:
        """The ``D·log₂(n/D)`` yardstick for this instance."""
        d = self.diameter_claim
        return d * np.log2(self.n / d)

    @property
    def per_hop_rounds(self) -> np.ndarray:
        """Rounds between consecutive portal arrivals (the ``R_i`` of the
        paper's proof)."""
        times = self.portal_rounds
        valid = times[times >= 0]
        return np.diff(np.concatenate([[0], valid]))


def measure_chain_broadcast(
    s: int,
    num_layers: int,
    protocol: BroadcastProtocol,
    seed=None,
    chain_seed=None,
    max_rounds: int | None = None,
    channel: ChannelModel | None = None,
) -> ChainMeasurement:
    """Build a chain, broadcast over it, and package the measurement.

    ``seed`` drives the protocol, ``chain_seed`` the chain's portal
    choices; ``channel`` selects the reception model (default: classic
    collision).
    """
    chain = broadcast_chain(s, num_layers, rng=chain_seed)
    result = run_broadcast(
        chain.graph,
        protocol,
        source=chain.root,
        seed=seed,
        max_rounds=max_rounds,
        channel=channel,
    )
    return ChainMeasurement(
        s=s,
        num_layers=num_layers,
        n=chain.graph.n,
        diameter_claim=chain.diameter_claim,
        rounds=result.rounds,
        completed=result.completed,
        portal_rounds=portal_times(chain, result),
    )


@dataclass(frozen=True)
class BatchChainMeasurement:
    """``T`` protocol trials on one shared chain, run as a batch.

    The chain (portal choices) is sampled once from ``chain_seed``; only the
    protocol's randomness varies across trials — the conditional law the
    per-hop concentration statistics average over.
    """

    s: int
    num_layers: int
    n: int
    diameter_claim: int
    trials: int
    rounds: np.ndarray
    completed: np.ndarray
    portal_rounds: np.ndarray

    @property
    def km_bound(self) -> float:
        """The ``D·log₂(n/D)`` yardstick for this instance."""
        d = self.diameter_claim
        return d * np.log2(self.n / d)

    @property
    def per_hop_rounds(self) -> np.ndarray:
        """``(num_layers, T)`` rounds between consecutive portal arrivals
        (the ``R_i`` of the paper's proof), valid for completed trials."""
        return np.diff(self.portal_rounds, axis=0, prepend=0)

    def trial(self, t: int) -> ChainMeasurement:
        """Extract trial ``t`` as a standalone :class:`ChainMeasurement`."""
        if not 0 <= t < self.trials:
            raise IndexError(f"trial {t} out of range [0, {self.trials})")
        return ChainMeasurement(
            s=self.s,
            num_layers=self.num_layers,
            n=self.n,
            diameter_claim=self.diameter_claim,
            rounds=int(self.rounds[t]),
            completed=bool(self.completed[t]),
            portal_rounds=self.portal_rounds[:, t].copy(),
        )


def measure_chain_broadcast_batch(
    s: int,
    num_layers: int,
    protocol: BroadcastProtocol,
    trials: int,
    seed=None,
    chain_seed=None,
    max_rounds: int | None = None,
    channel: ChannelModel | None = None,
) -> BatchChainMeasurement:
    """Build one chain and broadcast ``trials`` independent protocol runs
    over it through the batched engine (one neighbour count per round for
    all trials).  ``seed`` is the master seed for the per-trial streams
    and ``chain_seed`` drives the portal choices; ``channel`` selects the
    reception model (default: classic collision).
    """
    chain = broadcast_chain(s, num_layers, rng=chain_seed)
    result: BatchBroadcastResult = run_broadcast_batch(
        chain.graph,
        protocol,
        trials=trials,
        source=chain.root,
        max_rounds=max_rounds,
        seed=seed,
        channel=channel,
    )
    return BatchChainMeasurement(
        s=s,
        num_layers=num_layers,
        n=chain.graph.n,
        diameter_claim=chain.diameter_claim,
        trials=trials,
        rounds=result.rounds,
        completed=result.completed,
        portal_rounds=result.first_informed_round[chain.portals, :],
    )
