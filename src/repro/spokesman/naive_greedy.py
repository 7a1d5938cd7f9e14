"""The naive deterministic procedure of Lemma A.1 (guarantee ``γ/Δ``).

The procedure grows ``S_uni`` and ``N_uni`` while shrinking ``S_tmp`` and
``N_tmp``, maintaining invariants (I1)–(I4).  Each step:

1. pick ``v ∈ N_tmp`` with the fewest remaining ``S_tmp``-neighbours;
2. move one arbitrary ``w ∈ Γ(v, S_tmp)`` into ``S_uni`` and delete the
   rest of ``Γ(v, S_tmp)`` from ``S_tmp`` (they can never join ``S_uni``);
3. the class ``Q'_v`` of ``N_tmp`` vertices whose ``S_tmp``-neighbourhood
   equals ``Γ(v, S_tmp)`` is now uniquely covered by ``w`` forever — move it
   to ``N_uni``; the *other* ``N_tmp``-neighbours of ``w`` (``Q''_v ∩ Γ(w)``)
   are discarded to protect the invariants.

At least one of every ``Δ`` vertices removed from ``N_tmp`` lands in
``N_uni``, giving ``|N_uni| ≥ γ/Δ`` — in fact ``γ/Δ_S``: only the left-side
maximum degree matters, as the paper remarks after the lemma.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = ["naive_greedy_blocks", "naive_greedy_trace", "spokesman_naive_greedy"]


def naive_greedy_blocks(
    blocks: BlockBipartite,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the Lemma A.1 procedure on every block in lockstep.

    Returns ``(order, n_uni, steps)``: ``order`` gives each stacked left
    vertex the step that moved it into ``S_uni`` (``-1`` for none),
    ``n_uni`` is a bool mask of the certified ``N_uni`` over the stacked
    right side, and ``steps`` counts each block's steps.

    Every block's state lives in flat arrays over the stacked sides.  A
    step picks, in every block with ``N_tmp`` left, the ``N_tmp`` vertex
    with the fewest ``S_tmp`` neighbours (first id on ties) by one
    row-wise argmin over rows padded to the widest right block.  An
    ``N_tmp`` neighbour ``r`` of the chosen ``w`` has ``S_tmp``
    neighbourhood ``Γ(v, S_tmp)`` iff it has as many ``S_tmp`` neighbours
    as ``v`` and all of them lie in ``Γ(v, S_tmp)``.
    """
    g = blocks.graph
    in_stmp = np.ones(g.n_left, dtype=bool)
    in_gamma = np.zeros(g.n_left, dtype=bool)
    in_ntmp = g.right_degrees >= 1
    deg_tmp = g.right_degrees.copy()  # |Γ(v, S_tmp)| for every right v
    order = np.full(g.n_left, -1, dtype=np.int64)
    n_uni = np.zeros(g.n_right, dtype=bool)
    steps = np.zeros(blocks.count, dtype=np.int64)
    ids = blocks.padded_ids("right")
    active = np.flatnonzero(blocks.block_sums(in_ntmp, "right"))
    fewest = np.iinfo(np.int64).max

    for step in range(g.n_left if active.size else 0):
        rows = np.append(np.where(in_ntmp, deg_tmp, fewest), fewest)[ids[active]]
        pick = rows.argmin(axis=1)
        live = rows[np.arange(active.size), pick] < fewest
        active, pick = active[live], pick[live]
        if not active.size:
            break
        v = ids[active, pick]
        if (deg_tmp[v] < 1).any():
            raise AssertionError(
                "invariant (I4) violated: N_tmp vertex with no S_tmp neighbour"
            )
        steps[active] += 1
        slot, gamma = g.neighbors_of_rights(v)
        keep = in_stmp[gamma]
        slot, gamma = slot[keep], gamma[keep]
        # (I4): every v keeps an S_tmp neighbour, so each slot occurs.
        w = gamma[np.searchsorted(slot, np.arange(v.size))]
        order[w] = step

        # Every N_tmp neighbour of w leaves N_tmp: Q'_v (identical S_tmp
        # neighbourhood, hence uniquely covered by w from now on) joins
        # N_uni, the rest (Q''_v ∩ Γ(w)) is discarded.
        slot, r = g.neighbors_of_lefts(w)
        tmp = in_ntmp[r]
        slot, r = slot[tmp], r[tmp]
        in_gamma[gamma] = True
        pos, u = g.neighbors_of_rights(r)
        inside = np.bincount(pos, weights=in_gamma[u], minlength=r.size)
        same = (deg_tmp[r] == deg_tmp[v[slot]]) & (inside == deg_tmp[r])
        n_uni[r[same]] = True
        in_ntmp[r] = False
        in_gamma[gamma] = False

        # Remove all of Γ(v, S_tmp) from S_tmp (w included — it moved to
        # S_uni) and refresh the S_tmp-degrees of affected right vertices.
        in_stmp[gamma] = False
        _, touched = g.neighbors_of_lefts(gamma)
        deg_tmp -= np.bincount(touched, minlength=g.n_right)

    return order, n_uni, steps


def naive_greedy_trace(
    gs: BipartiteGraph,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the Lemma A.1 procedure, returning ``(S_uni, N_uni, steps)``.

    ``S_uni`` lists the chosen vertices in the order they were moved.
    ``N_uni`` is the set the procedure *certifies* as uniquely covered; the
    true payoff ``|Γ¹_S(S')|`` can only be larger.  The one-block call of
    :func:`naive_greedy_blocks`.
    """
    order, n_uni, steps = naive_greedy_blocks(BlockBipartite.single(gs))
    chosen = np.flatnonzero(order >= 0)
    return chosen[np.argsort(order[chosen])], np.flatnonzero(n_uni), int(steps[0])


def spokesman_naive_greedy(gs: BipartiteGraph) -> SpokesmanResult:
    """Lemma A.1's spokesman algorithm; deterministic, guarantee
    ``unique_count ≥ γ/Δ_S`` (``γ`` = non-isolated right vertices)."""
    s_uni, _n_uni, _steps = naive_greedy_trace(gs)
    return evaluate_subset(gs, s_uni, "naive-greedy")
