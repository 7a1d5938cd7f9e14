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

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = ["greedy_add_blocks", "spokesman_greedy_add"]


#: How one right vertex's share of its left neighbours' gains changes when
#: its cover count rises from ``c`` to ``c + 1``, for ``c = 0, 1, 2`` (a
#: fall from ``c + 1`` to ``c`` is the negation; higher counts change
#: nothing).  An outside vertex's add gain counts a neighbour of count 0
#: as +1 and of count 1 as −1; a member's remove gain counts count 2 as +1
#: and count 1 as −1.
_RISE_ADD = np.array([-2, 1, 0])
_RISE_REMOVE = np.array([-1, 2, -1])


def greedy_add_blocks(
    blocks: BlockBipartite, max_passes: int = 10_000
) -> np.ndarray:
    """Best-improvement hill climbing on every block in lockstep; returns
    the final ``S'`` of all blocks as a bool mask over the stacked left
    side.

    Membership, cover counts and both gain vectors are flat arrays over
    the stacked sides.  A pass takes one row-wise argmax over rows padded
    to the widest left block (first id on ties, as the serial rule) in
    every block still improving, toggles the chosen vertices, and updates
    the gains of their two-hop neighbourhoods with two weighted
    bincounts.
    """
    g = blocks.graph
    member = np.zeros(g.n_left, dtype=bool)
    counts = np.zeros(g.n_right, dtype=np.int64)
    # At S' = ∅ every count is 0: adding u gains all of N(u), and no
    # vertex can be removed.
    gain_add = g.left_degrees.astype(np.int64)
    gain_remove = np.zeros(g.n_left, dtype=np.int64)
    ids = blocks.padded_ids("left")
    active = np.flatnonzero(blocks.sizes("left"))
    lowest = np.iinfo(np.int64).min

    for _ in range(max_passes if active.size else 0):
        gain = np.append(np.where(member, gain_remove, gain_add), lowest)
        rows = gain[ids[active]]
        pick = rows.argmax(axis=1)
        improving = rows[np.arange(active.size), pick] > 0
        active, pick = active[improving], pick[improving]
        if not active.size:
            break
        best = ids[active, pick]
        sign = np.where(member[best], -1, 1)
        member[best] = ~member[best]
        slot, touched = g.neighbors_of_lefts(best)
        sign = sign[slot]
        # The lower of each touched vertex's old and new count.
        low = counts[touched] - (sign < 0)
        counts[touched] += sign
        rises = low <= 2
        pos, u = g.neighbors_of_rights(touched[rises])
        low, sign = low[rises][pos], sign[rises][pos]
        gain_add += np.bincount(
            u, weights=sign * _RISE_ADD[low], minlength=g.n_left
        ).astype(np.int64)
        gain_remove += np.bincount(
            u, weights=sign * _RISE_REMOVE[low], minlength=g.n_left
        ).astype(np.int64)

    return member


def spokesman_greedy_add(
    gs: BipartiteGraph, max_passes: int = 10_000
) -> SpokesmanResult:
    """Best-improvement hill climbing over single add/remove moves.

    Deterministic (starts from ``S' = ∅``; ties broken by vertex id).
    Terminates when no single move improves ``|Γ¹_S(S')|`` or after
    ``max_passes`` moves — each move strictly improves the payoff, which is
    bounded by ``|N|``, so it always terminates on its own for sane inputs.
    The one-block call of :func:`greedy_add_blocks`.
    """
    member = greedy_add_blocks(BlockBipartite.single(gs), max_passes)
    return evaluate_subset(gs, np.flatnonzero(member), "greedy-add")
