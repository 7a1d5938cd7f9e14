"""The recursive near-optimal algorithm of Lemma A.13 / Corollary A.15.

Guarantee ``|Γ¹_S(S')| ≥ γ / (9·log₂(2δ))`` — within a constant of the
paper's matching negative result (the core graph caps the fraction at
``2/log 2s``).

The recursion mirrors the proof: run Procedure Partition; if ``N_tmp``
emptied, ``S_uni`` uniquely covers ≥ half of ``N``; otherwise compare the
*potential* ``γ/log₂(2δ)`` of the residual instance ``(S_tmp, N_tmp)``
against the original — if the residual's potential is at least as large,
recurse into it (the proof's induction), else ``S_uni`` already meets the
bound.  A strictly-decreasing ``γ`` guarantees termination.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult, evaluate_subset
from repro.spokesman.partition import TMP, peel_blocks

__all__ = ["spokesman_recursive"]


def _potential(gamma: int, delta: float) -> float:
    """``γ / log₂(2δ)`` — the quantity the induction compares."""
    if gamma == 0:
        return 0.0
    return gamma / math.log2(2 * max(delta, 1.0))


def _level_rows(
    blocks: BlockBipartite,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A recursion level's rows ``(block, managed, names)``: all
    non-isolated right vertices of each block — except in the base case
    ``γ ≤ 9``, which needs no partition."""
    nonisolated = blocks.graph.right_degrees >= 1
    block = np.flatnonzero(blocks.block_sums(nonisolated, "right") > 9)
    managed = blocks.padded(nonisolated, "right", False)[block]
    return block, managed, np.full(block.size, "recursive", dtype=object)


def _recurse(
    blocks: BlockBipartite,
    block: np.ndarray,
    s_uni: np.ndarray,
    labels: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Finish one level of every block from its peeled rows (those of
    :func:`_level_rows`); returns a bool mask over the stacked left side.

    Every block holds at most one row of a level, so the level's state is
    flat.  The blocks whose residual instance wins the potential test
    recurse together, as the blocks of one stacked subgraph.
    """
    g = blocks.graph
    deg = g.right_degrees
    nonisolated = deg >= 1
    gamma = blocks.block_sums(nonisolated, "right")
    chosen = np.zeros(g.n_left, dtype=bool)
    # Small instances: a single covering vertex already meets the bound
    # (the proof's base case γ <= 9).
    small = np.flatnonzero((gamma > 0) & (gamma <= 9))
    if small.size:
        left_deg = blocks.padded(g.left_degrees, "left", -1)[small]
        chosen[blocks.left_offsets[small] + left_deg.argmax(axis=1)] = True
    if not block.size:
        return chosen

    row, u = np.nonzero(s_uni)
    in_uni = np.zeros(g.n_left, dtype=bool)
    in_uni[blocks.left_offsets[block[row]] + u] = True
    row, r = np.nonzero(labels == TMP)
    n_tmp = np.zeros(g.n_right, dtype=bool)
    n_tmp[blocks.right_offsets[block[row]] + r] = True
    s_tmp = np.isin(blocks.left_block, block) & ~in_uni
    # |E_tmp|: the edges from S_tmp to N_tmp.
    tmp_degree = g.left_matrix @ n_tmp.astype(np.int32)
    e_tmp = blocks.block_sums(np.where(s_tmp, tmp_degree, 0), "left")
    n_tmp_size = blocks.block_sums(n_tmp, "right")
    deltas = blocks.nonzero_means(deg, "right")
    size = blocks.sizes("left") + blocks.sizes("right")

    deeper = np.zeros(blocks.count, dtype=bool)
    for c in block.tolist():
        size_tmp, gamma_c = int(n_tmp_size[c]), int(gamma[c])
        if size_tmp == 0 or depth > size[c]:
            continue
        deeper[c] = (
            _potential(size_tmp, int(e_tmp[c]) / size_tmp)
            >= _potential(gamma_c, float(deltas[c]))
        ) and size_tmp < gamma_c
    chosen |= in_uni & ~deeper[blocks.left_block]
    if deeper.any():
        left_mask = s_tmp & deeper[blocks.left_block]
        sub = blocks.subgraph(left_mask, n_tmp & deeper[blocks.right_block])
        sub_block, managed, _ = _level_rows(sub)
        sub_uni, sub_labels, _ = peel_blocks(sub, sub_block, managed)
        local = _recurse(sub, sub_block, sub_uni, sub_labels, depth + 1)
        chosen[np.flatnonzero(left_mask)[local]] = True
    return chosen


def spokesman_recursive(gs: BipartiteGraph) -> SpokesmanResult:
    """Lemma A.13's algorithm.  Deterministic; guarantee
    ``unique_count ≥ γ/(9·log₂(2δ))`` with ``γ, δ`` over non-isolated right
    vertices (Corollary A.15 sharpens the same run to
    ``min{γ/(9·log₂δ), γ/20}``)."""
    blocks = BlockBipartite.single(gs)
    block, managed, _ = _level_rows(blocks)
    s_uni, labels, _ = peel_blocks(blocks, block, managed)
    chosen = _recurse(blocks, block, s_uni, labels, depth=0)
    return evaluate_subset(gs, np.flatnonzero(chosen), "recursive")
