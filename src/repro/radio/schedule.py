"""Static broadcast-schedule synthesis from spokesman election.

The paper's stated application (Section 4.2.1): Chlamtac–Weinstein built
centralized broadcast schedules for multihop radio networks by repeatedly
electing spokesmen; replacing their ``|N|/log|S|`` subroutine with this
library's spokesman algorithms yields simpler schedules with the stronger
average-degree guarantee.

The synthesis is the classic cover-by-halving loop.  For one *layer* —
a bipartite ``(S, N)`` with ``S`` informed and ``N`` not — repeat:

1. elect ``S' ⊆ S`` for the sub-instance restricted to the still-uncovered
   part of ``N`` (payoff ``≥ MG(δ)·remaining`` by Corollary A.16);
2. emit ``S'`` as one transmission slot; every right vertex with exactly
   one ``S'``-neighbour is now informed.

Each slot covers at least an ``MG(δ)``-fraction of what remains, so a layer
needs ``O(log γ / MG(δ))`` slots.  Chaining layers along a BFS order of the
whole graph gives a complete static broadcast schedule whose execution on
the collision simulator provably informs everyone — schedules are *data*,
so they can be verified round by round against the radio semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.radio.network import RadioNetwork
from repro.radio.protocols import BroadcastProtocol
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.greedy_add import spokesman_greedy_add

__all__ = [
    "BroadcastSchedule",
    "StaticScheduleProtocol",
    "synthesize_broadcast_schedule",
    "synthesize_layer_schedule",
]


def synthesize_layer_schedule(
    gs: BipartiteGraph,
    algorithm: Callable[[BipartiteGraph], SpokesmanResult] | None = None,
    max_slots: int | None = None,
) -> list[np.ndarray]:
    """Transmission slots (left-vertex id arrays) uniquely covering all
    coverable right vertices of ``gs`` at least once.

    Parameters
    ----------
    algorithm:
        Spokesman subroutine (default: greedy local search; any algorithm
        with an ``Ω(MG(δ))``-fraction guarantee gives the logarithmic slot
        bound).
    max_slots:
        Safety cap; default ``2 + ⌈log γ / MG-floor⌉``-ish generous bound.

    Raises
    ------
    RuntimeError
        If progress stalls before full coverage (cannot happen for correct
        algorithms: a single uncovered right vertex's neighbour is always a
        positive-payoff selection).
    """
    if algorithm is None:
        algorithm = spokesman_greedy_add
    uncovered = gs.right_degrees >= 1
    total = int(uncovered.sum())
    if max_slots is None:
        max_slots = 4 * (2 + int(math.log2(total + 1)) * 8)
    slots: list[np.ndarray] = []
    while uncovered.any():
        if len(slots) >= max_slots:
            raise RuntimeError(
                f"layer schedule exceeded {max_slots} slots with "
                f"{int(uncovered.sum())}/{total} right vertices uncovered"
            )
        sub = gs.restrict_right(uncovered)
        result = algorithm(sub)
        if result.unique_count <= 0:
            raise RuntimeError(
                "spokesman subroutine made no progress on a coverable layer"
            )
        slots.append(result.subset)
        newly = gs.uniquely_covered(result.subset)
        uncovered &= ~newly
    return slots


@dataclass(frozen=True)
class BroadcastSchedule:
    """A static, centrally computed broadcast schedule.

    ``rounds[r]`` is the array of vertex ids transmitting in round ``r``.
    The schedule is graph-specific data; :meth:`verify` replays it against
    the collision semantics and reports whether everyone gets informed.
    """

    source: int
    rounds: tuple[np.ndarray, ...]

    @property
    def length(self) -> int:
        """Number of rounds in the schedule."""
        return len(self.rounds)

    def verify(self, graph: Graph) -> tuple[bool, np.ndarray]:
        """Replay on ``graph``; returns ``(all_informed, informed_mask)``.

        Transmitters that do not yet hold the message stay silent (the
        schedule is still valid if it over-approximates, as long as coverage
        is achieved by informed transmitters).
        """
        net = RadioNetwork(graph)
        informed = np.zeros(graph.n, dtype=bool)
        informed[self.source] = True
        for round_ids in self.rounds:
            mask = np.zeros(graph.n, dtype=bool)
            mask[round_ids] = True
            mask &= informed
            informed |= net.step(mask)
        return bool(informed.all()), informed


class StaticScheduleProtocol(BroadcastProtocol):
    """Adapter: run a :class:`BroadcastSchedule` through the generic
    broadcast runner (for apples-to-apples protocol comparisons)."""

    name = "static-schedule"

    def __init__(self, schedule: BroadcastSchedule) -> None:
        self.schedule = schedule

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        out = np.zeros_like(informed)
        if round_index < self.schedule.length:
            out[self.schedule.rounds[round_index], :] = True
        return out & informed


def synthesize_broadcast_schedule(
    graph: Graph,
    source: int = 0,
    algorithm: Callable[[BipartiteGraph], SpokesmanResult] | None = None,
) -> BroadcastSchedule:
    """Full-graph schedule: BFS layers, each covered by repeated spokesman
    election over the boundary bipartite graph of the informed set.

    The graph must be connected.  Total length is
    ``Σ_layers O(log(layer size) / MG(δ_layer))`` rounds — on bounded
    average-degree graphs, ``O(D·log n)`` with a small constant.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    dist = graph.bfs_layers(source)
    if (dist < 0).any():
        raise ValueError("schedule synthesis requires a connected graph")

    informed = np.zeros(graph.n, dtype=bool)
    informed[source] = True
    rounds: list[np.ndarray] = []
    depth = int(dist.max())
    for level in range(depth):
        # S = informed vertices at this level's frontier; N = next level.
        frontier = informed.copy()
        gs, left_ids, right_ids = graph.boundary_bipartite(frontier)
        # Restrict to the next BFS level (deeper vertices are covered later).
        next_level_mask = dist[right_ids] == level + 1
        sub = gs.restrict_right(next_level_mask)
        if sub.n_right == 0:
            continue
        for slot in synthesize_layer_schedule(sub, algorithm):
            rounds.append(left_ids[slot])
        informed[dist == level + 1] = True
    return BroadcastSchedule(source=source, rounds=tuple(rounds))
