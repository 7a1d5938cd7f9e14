"""The randomized decay-style spokesman algorithm (Lemmas 4.2 and 4.3).

**Lemma 4.2** (``β = |N|/|S| ≥ 1``): restrict to right vertices of degree
``≤ 2δ_N`` (at least half of ``N``), bucket them into degree classes
``[2^i, 2^{i+1})``, take the largest class ``N_j``, and sample each left
vertex independently with probability ``2^{-j}``.  A class vertex is then
uniquely covered with probability ``d·p·(1−p)^{d−1} ≥ e^{-3}``, so the
expected payoff is ``Ω(|N_j|) = Ω(γ / log 2δ_N)``.

**Lemma 4.3** (``1/Δ ≤ β < 1``): first shrink to ``S' = {u : deg(u) ≤ 2δ_S}``
(at least half of ``S``), then greedily re-cover: scan ``S'`` and keep a
vertex only if it covers a yet-uncovered right vertex, producing ``S''``
with ``|S''| ≤ |N'|``.  The induced graph has expansion ``≥ 1`` and average
right degree ``≤ 2δ_S``, so the Lemma 4.2 machinery applies.

The public entry point :func:`spokesman_sampling` dispatches on ``β`` and
repeats the random draw a few times keeping the best (the guarantee is in
expectation; repetitions make it concentrate).  This is the "extremely
simple" algorithm the paper advertises as the improved solution to the
spokesman election problem.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = [
    "draw_blocks",
    "largest_degree_class",
    "lemma43_reduction",
    "spokesman_sampling",
    "spokesman_sampling_all_scales",
]


def _largest_classes(
    blocks: BlockBipartite, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma 4.2's class selection on every block, for right degrees
    ``deg`` (a target's degrees, 0 outside it).

    Returns ``(j, eligible, classes)``: each block's largest class ``j``
    (the lowest on ties; 0 for a block with no edge), and the flat masks
    the classes come from.
    """
    nonzero = deg >= 1
    delta_n = blocks.nonzero_means(deg, "right")
    eligible = nonzero & (deg <= 2 * delta_n[blocks.right_block])
    classes = np.floor(
        np.log2(deg, where=nonzero, out=np.zeros_like(deg, dtype=float))
    )
    span = int(classes[eligible].max(initial=0)) + 1
    sizes = np.bincount(
        (blocks.right_block * span + classes.astype(np.int64))[eligible],
        minlength=blocks.count * span,
    )
    return sizes.reshape(blocks.count, span).argmax(axis=1), eligible, classes


def largest_degree_class(gs: BipartiteGraph) -> tuple[int, np.ndarray]:
    """Lemma 4.2's class selection.

    Among right vertices with ``1 ≤ deg ≤ 2δ_N``, bucket by
    ``deg ∈ [2^i, 2^{i+1})`` and return ``(j, members)`` for the largest
    bucket ``N_j``.
    """
    deg = gs.right_degrees
    if gs.n_right == 0 or not (deg >= 1).any():
        raise ValueError("graph has no coverable right vertices")
    (j,), eligible, classes = _largest_classes(BlockBipartite.single(gs), deg)
    return int(j), np.flatnonzero(eligible & (classes == j))


def _recover(
    blocks: BlockBipartite, which: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 4.3's re-covering on the blocks ``which`` (a bool per block).

    Returns ``(keep, n_prime)``: ``S''`` over the stacked left side and
    ``N' = Γ(S')`` over the right side.  The greedy scan visits the
    ``i``-th vertex of every block's ``S'`` in step ``i``.
    """
    g = blocks.graph
    deg = g.left_degrees
    delta_s = blocks.nonzero_means(deg, "left")[blocks.left_block]
    s_prime = (deg >= 1) & (deg <= 2 * delta_s) & which[blocks.left_block]
    # N' = Γ(S').
    n_prime = g.biadjacency @ s_prime.astype(np.int32) >= 1
    # Greedy re-covering: keep u only if it covers a new vertex of N'.
    covered = np.zeros(g.n_right, dtype=bool)
    keep = np.zeros(g.n_left, dtype=bool)
    ids = np.flatnonzero(s_prime)
    block = blocks.left_block[ids]
    rank = np.arange(ids.size) - np.searchsorted(block, block)
    for i in range(int(rank.max(initial=-1)) + 1):
        us = ids[rank == i]
        slot, nbrs = g.neighbors_of_lefts(us)
        fresh = n_prime[nbrs] & ~covered[nbrs]
        keep[us[np.bincount(slot, weights=fresh, minlength=us.size) > 0]] = True
        covered[nbrs[fresh]] = True
    return keep, n_prime


def lemma43_reduction(gs: BipartiteGraph) -> tuple[BipartiteGraph, np.ndarray]:
    """Lemma 4.3's re-covering reduction for the ``β < 1`` regime.

    Returns ``(induced, left_ids)`` where ``induced`` is the bipartite graph
    on ``(S'', N')`` with ``|S''| ≤ |N'|`` (so expansion ``≥ 1``) and
    ``left_ids[i]`` maps its left vertex ``i`` back to the original graph.
    """
    if gs.n_left == 0 or not (gs.left_degrees >= 1).any():
        raise ValueError("graph has no covering left vertices")
    keep, n_prime = _recover(BlockBipartite.single(gs), np.ones(1, dtype=bool))
    left_ids = np.flatnonzero(keep)
    return gs.subgraph(left_ids, n_prime), left_ids


def _block_max_degree(blocks: BlockBipartite) -> np.ndarray:
    """``Δ_N`` of every block (0 for a block without right vertices)."""
    deg = blocks.padded(blocks.graph.right_degrees, "right", 0)
    return deg.max(axis=1, initial=0)


def _sampling_plan(blocks: BlockBipartite, trials: int = 16) -> tuple:
    """:func:`spokesman_sampling`'s draws on every block, as ``(target,
    thresholds)``: block ``c`` draws uniforms over its ``target`` left
    vertices and keeps those below ``thresholds[c]`` (one row per draw;
    ``None`` for no draw).

    ``β = |N|/|S| ≥ 1`` samples the block at its largest class's scale;
    ``β < 1`` first applies Lemma 4.3's reduction and samples ``S''`` at
    the scale of the induced graph's largest class.
    """
    g = blocks.graph
    n_left, n_right = blocks.sizes("left"), blocks.sizes("right")
    live = (n_right > 0) & (_block_max_degree(blocks) > 0)
    low = live & (n_right < n_left)
    target = ~low[blocks.left_block]
    if low.any():
        keep, _ = _recover(blocks, low)
        target |= keep
    # The induced graph's degrees: every N' vertex counts its S'' neighbours,
    # and no other right vertex has one.
    deg = g.biadjacency @ target.astype(np.int32)
    j, eligible, _ = _largest_classes(blocks, deg)
    live &= blocks.block_sums(eligible, "right") > 0
    thresholds = [
        np.full((trials, 1), 2.0 ** (-int(j[c]))) if live[c] else None
        for c in range(blocks.count)
    ]
    return target, thresholds


def _all_scales_plan(blocks: BlockBipartite, trials_per_scale: int = 8) -> tuple:
    """:func:`spokesman_sampling_all_scales`' draws on every block, as
    ``(target, thresholds)`` (see :func:`_sampling_plan`): every scale
    ``j = 0..⌈log₂Δ_N⌉ + 2``, ``trials_per_scale`` draws each."""
    max_deg = _block_max_degree(blocks)
    top = np.ceil(np.log2(np.maximum(2, max_deg))).astype(np.int64) + 1
    thresholds = []
    for c in range(blocks.count):
        scales = np.repeat(np.arange(top[c] + 2, dtype=np.float64), trials_per_scale)
        thresholds.append(2.0 ** (-scales)[:, None] if max_deg[c] else None)
    return np.ones(blocks.graph.n_left, dtype=bool), thresholds


def draw_blocks(blocks: BlockBipartite, plans: list, seeds) -> list[np.ndarray]:
    """Each plan's best draw on every block, as one mask over the stacked
    left side.

    Block ``c`` runs the plans in order, each on ``as_rng(seeds[c])`` —
    the calls the members make one graph at a time, so a shared
    ``Generator`` is consumed in the same order (``None``: one fresh
    generator, consumed likewise).  An int seed's generator is built once
    and its saved state restored before each plan: the streams a fresh
    ``as_rng(seed)`` per plan would draw.  Draw ``t`` of every
    block is column ``t`` of one ``(n_left, draws)`` matrix per plan, so
    one batched cover count scores all of a plan's draws; each block
    keeps its first best draw (a column past its own draws scores 0).
    """
    layers = []
    for target, thresholds in plans:
        ends = np.cumsum(blocks.block_sums(target, "left")).tolist()
        depth = max([t.shape[0] for t in thresholds if t is not None], default=1)
        layer = np.zeros((blocks.graph.n_left, depth), dtype=bool)
        layers.append((np.flatnonzero(target), [0] + ends, thresholds, layer))
    for c, seed in enumerate(seeds):
        gen = as_rng(seed)
        start = gen.bit_generator.state if isinstance(seed, (int, np.integer)) else None
        for ids, ends, thresholds, layer in layers:
            if thresholds[c] is None:
                continue
            if start is not None:
                gen.bit_generator.state = start
            cols = ids[ends[c] : ends[c + 1]]
            uniform = gen.random((thresholds[c].shape[0], cols.size))
            layer[cols, : uniform.shape[0]] = (uniform < thresholds[c]).T
    chosen = []
    for *_, layer in layers:
        best = blocks.unique_counts(layer).argmax(axis=1)
        chosen.append(layer[np.arange(layer.shape[0]), best[blocks.left_block]])
    return chosen


def spokesman_sampling_all_scales(
    gs: BipartiteGraph, rng=None, trials_per_scale: int = 8
) -> SpokesmanResult:
    """Practical variant: try every scale ``j = 0..⌈log₂Δ_N⌉`` with several
    draws each, return the best.  Dominates the single-scale guarantee.

    All draws are evaluated in one batched sparse mat-mat
    (:meth:`~repro.graphs.bipartite.BlockBipartite.unique_counts`).
    """
    blocks = BlockBipartite.single(gs)
    (chosen,) = draw_blocks(blocks, [_all_scales_plan(blocks, trials_per_scale)], [rng])
    return evaluate_subset(gs, np.flatnonzero(chosen), "sampling-all-scales")


def spokesman_sampling(
    gs: BipartiteGraph, rng=None, trials: int = 16
) -> SpokesmanResult:
    """The paper's randomized spokesman algorithm (Theorem 1.1's engine).

    Dispatches on ``β = |N|/|S|``: for ``β ≥ 1`` applies Lemma 4.2 directly
    (sample the largest degree class's scale); for ``β < 1`` first applies
    Lemma 4.3's reduction.  ``trials`` independent draws are taken and the
    best kept, measured on the original graph.  Guarantee: expected payoff
    ``Ω(γ / log(2·min{δ_N, δ_S}))``.
    """
    blocks = BlockBipartite.single(gs)
    (chosen,) = draw_blocks(blocks, [_sampling_plan(blocks, trials)], [rng])
    return evaluate_subset(gs, np.flatnonzero(chosen), "sampling")
