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

from repro.graphs.bipartite import BipartiteGraph
from repro.spokesman.base import SpokesmanResult, evaluate_subset
from repro.spokesman.partition import PartitionState, procedure_partition_batch

__all__ = ["spokesman_recursive"]


def _potential(gamma: int, delta: float) -> float:
    """``γ / log₂(2δ)`` — the quantity the induction compares."""
    if gamma == 0:
        return 0.0
    return gamma / math.log2(2 * max(delta, 1.0))


def _level_populations(gs: BipartiteGraph) -> list[np.ndarray]:
    """A recursion level's one population, all non-isolated right
    vertices — none in the base case ``γ ≤ 9``, which needs no partition."""
    nonisolated = gs.right_degrees >= 1
    return [nonisolated] if int(nonisolated.sum()) > 9 else []


def _recurse(
    gs: BipartiteGraph, states: list[PartitionState], depth: int
) -> np.ndarray:
    """Finish one level from its peeled ``states`` (those of
    :func:`_level_populations`); returns a subset of ``gs``'s left side with
    ids local to ``gs``."""
    nonisolated = gs.right_degrees >= 1
    gamma = int(nonisolated.sum())
    if gamma == 0:
        return np.array([], dtype=np.int64)
    # Small instances: a single covering vertex already meets the bound
    # (the proof's base case γ <= 9).
    if not states:
        u = int(np.argmax(gs.left_degrees))
        return np.array([u], dtype=np.int64)

    delta = float(gs.right_degrees[nonisolated].mean())
    (state,) = states
    n_tmp = state.n_tmp
    if n_tmp.size == 0 or depth > gs.n_left + gs.n_right:
        return np.flatnonzero(state.s_uni)

    e_tmp = int(gs.left_cover_counts(n_tmp)[state.s_tmp].sum())
    delta_tmp = e_tmp / n_tmp.size
    if _potential(n_tmp.size, delta_tmp) >= _potential(gamma, delta) and (
        n_tmp.size < gamma
    ):
        sub = gs.subgraph(state.s_tmp, n_tmp)
        sub_states = procedure_partition_batch(sub, _level_populations(sub))
        local = _recurse(sub, sub_states, depth + 1)
        stmp_ids = np.flatnonzero(state.s_tmp)
        return stmp_ids[local]
    return np.flatnonzero(state.s_uni)


def _recursive_finish(
    gs: BipartiteGraph, states: list[PartitionState]
) -> SpokesmanResult:
    return evaluate_subset(gs, _recurse(gs, states, depth=0), "recursive")


def spokesman_recursive(gs: BipartiteGraph) -> SpokesmanResult:
    """Lemma A.13's algorithm.  Deterministic; guarantee
    ``unique_count ≥ γ/(9·log₂(2δ))`` with ``γ, δ`` over non-isolated right
    vertices (Corollary A.15 sharpens the same run to
    ``min{γ/(9·log₂δ), γ/20}``)."""
    states = procedure_partition_batch(gs, _level_populations(gs))
    return _recursive_finish(gs, states)
