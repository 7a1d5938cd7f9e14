"""Local-search baseline: greedy add/remove hill climbing.

Not from the paper — this is the strong practical baseline the experiments
measure the guaranteed algorithms against (Section 4.2.1 compares guarantees
against Chlamtac–Weinstein's ``|N|/log|S|`` *bound*; a modern reproduction
also wants a strong heuristic's *achieved* value).

The marginal payoff of toggling one left vertex follows from the current
cover counts: adding ``u`` gains its neighbours with count 0 and loses
those with count 1; removing ``u ∈ S'`` gains its neighbours with count 2
and loses those with count 1.  Both gain vectors are kept up to date: a
move changes counts only on ``N(u*)``, so each pass rescores just the left
neighbours of those right vertices.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = ["spokesman_greedy_add"]


#: How one right vertex's share of its left neighbours' gains changes when
#: its cover count rises from ``c`` to ``c + 1``, for ``c = 0, 1, 2`` (a
#: fall from ``c + 1`` to ``c`` is the negation; higher counts change
#: nothing).  An outside vertex's add gain counts a neighbour of count 0
#: as +1 and of count 1 as −1; a member's remove gain counts count 2 as +1
#: and count 1 as −1.
_RISE_ADD = np.array([-2, 1, 0])
_RISE_REMOVE = np.array([-1, 2, -1])


def spokesman_greedy_add(
    gs: BipartiteGraph, max_passes: int = 10_000
) -> SpokesmanResult:
    """Best-improvement hill climbing over single add/remove moves.

    Deterministic (starts from ``S' = ∅``; ties broken by vertex id).
    Terminates when no single move improves ``|Γ¹_S(S')|`` or after
    ``max_passes`` moves — each move strictly improves the payoff, which is
    bounded by ``|N|``, so it always terminates on its own for sane inputs.
    """
    member = np.zeros(gs.n_left, dtype=bool)
    counts = np.zeros(gs.n_right, dtype=np.int64)
    # At S' = ∅ every count is 0: adding u gains all of N(u), and no
    # vertex can be removed.
    gain_add = gs.left_degrees.astype(np.int64)
    gain_remove = np.zeros(gs.n_left, dtype=np.int64)

    for _ in range(max_passes if gs.n_left else 0):
        gain = np.where(member, gain_remove, gain_add)
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            break
        sign = -1 if member[best] else 1
        member[best] = not member[best]
        touched = gs.neighbors_of_left(best)
        # The lower of each touched vertex's old and new count.
        low = counts[touched] - (sign < 0)
        counts[touched] += sign
        rises = low <= 2
        low = low[rises]
        pos, u = gs.neighbors_of_rights(touched[rises])
        gain_add += sign * np.bincount(
            u, weights=_RISE_ADD[low][pos], minlength=gs.n_left
        ).astype(np.int64)
        gain_remove += sign * np.bincount(
            u, weights=_RISE_REMOVE[low][pos], minlength=gs.n_left
        ).astype(np.int64)

    return evaluate_subset(gs, np.flatnonzero(member), "greedy-add")
