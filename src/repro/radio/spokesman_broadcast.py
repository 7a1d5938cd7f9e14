"""Centralized spokesman-aided broadcast — the positive results in action.

Each round, the scheduler looks at the informed set ``I``, forms the
boundary bipartite graph ``(S, N)`` with ``S`` = informed vertices that have
uninformed neighbours and ``N = Γ⁻(I)``, runs a spokesman-election algorithm
to pick ``S' ⊆ S``, and lets exactly ``S'`` transmit.  By Theorem 1.1 each
round informs ``≥ βw·|frontier|  = Ω(β/log(2·min{Δ/β, Δβ}))·|frontier|``
new vertices, so a good ordinary expander broadcasts fast *despite*
collisions — while on the Section 4.3 worst-case graphs even this genie is
throttled to a ``2/log 2s`` fraction per round (Corollary 5.1).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.radio.network import RadioNetwork
from repro.radio.protocols import BroadcastProtocol
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.greedy_add import spokesman_greedy_add

__all__ = ["SpokesmanBroadcastProtocol"]


class SpokesmanBroadcastProtocol(BroadcastProtocol):
    """Genie scheduler driven by a spokesman-election algorithm.

    Parameters
    ----------
    algorithm:
        ``callable(BipartiteGraph) -> SpokesmanResult`` choosing the
        transmitting subset each round (default: greedy local search, the
        strongest poly-time choice; pass e.g.
        :func:`repro.spokesman.spokesman_recursive` for the guaranteed one).
    """

    name = "spokesman"

    def __init__(
        self,
        algorithm: Callable[[BipartiteGraph], SpokesmanResult] | None = None,
    ) -> None:
        self.algorithm = algorithm if algorithm is not None else spokesman_greedy_add
        if algorithm is not None and hasattr(algorithm, "__name__"):
            self.name = f"spokesman[{algorithm.__name__}]"

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        # The genie draws no randomness: a column's schedule is a function
        # of its informed set alone, so each distinct informed set is
        # elected once and its spokesmen copied to every column holding it.
        columns, inverse = np.unique(informed, axis=1, return_inverse=True)
        out = np.zeros(columns.shape, dtype=bool)
        for j in range(columns.shape[1]):
            out[self._elect(columns[:, j], network.graph), j] = True
        return out[:, inverse.reshape(-1)]

    def _elect(self, informed: np.ndarray, graph) -> np.ndarray:
        """Vertex ids of the spokesmen elected for one informed set."""
        frontier = informed & (graph.neighbor_counts(~informed) >= 1)
        if not frontier.any():
            return np.empty(0, dtype=np.int64)
        gs, left_vertices, _right = graph.boundary_bipartite(informed)
        # Restrict the bipartite left side to the frontier (non-frontier
        # informed vertices have no uninformed neighbours, hence degree 0 in
        # G_S; dropping them changes nothing but keeps instances small).
        frontier_local = np.flatnonzero(frontier[left_vertices])
        result = self.algorithm(gs.restrict_left(frontier_local))
        return left_vertices[frontier_local[result.subset]]
