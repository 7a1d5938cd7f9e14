"""Portfolio spokesman solver — Corollary A.16's "run everything" bound.

Running every algorithm and keeping the best inherits the *maximum* of the
individual guarantees, which is exactly the paper's ``γ·MG(δ)`` bound
(Corollary A.16 / Observation A.17): the portfolio payoff is at least

``γ · max{ min{1/(9log δ), 1/20}, 1/(9log 2δ), (1−1/t)·0.20087/log(tδ) }``.

The portfolio is also how large-graph wireless expansion is *lower-bounded*
throughout the experiments (any algorithm's payoff on ``G_S`` certifies
``βw(S) ≥ payoff/|S|``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.graphs.graph import Graph
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.degree_classes import _class_rows, spokesman_degree_classes
from repro.spokesman.greedy_add import greedy_add_blocks, spokesman_greedy_add
from repro.spokesman.naive_greedy import naive_greedy_blocks, spokesman_naive_greedy
from repro.spokesman.partition import best_rows, peel_blocks
from repro.spokesman.recursive import _level_rows, _recurse, spokesman_recursive
from repro.spokesman.sampling import (
    _all_scales_plan,
    _sampling_plan,
    draw_blocks,
    spokesman_sampling,
    spokesman_sampling_all_scales,
)
from repro.spokesman.threshold_partition import (
    _partition_rows,
    _sweep_rows,
    spokesman_partition,
    spokesman_threshold_sweep,
)

__all__ = [
    "DETERMINISTIC_ALGORITHMS",
    "RANDOMIZED_ALGORITHMS",
    "BlockResults",
    "portfolio_blocks",
    "spokesman_portfolio",
    "wireless_lower_bound_of_set",
    "wireless_lower_bounds_of_sets",
]

#: Name → callable(gs) for the deterministic algorithms.
DETERMINISTIC_ALGORITHMS = {
    "naive-greedy": spokesman_naive_greedy,
    "partition": spokesman_partition,
    "threshold-sweep": spokesman_threshold_sweep,
    "degree-classes": spokesman_degree_classes,
    "recursive": spokesman_recursive,
    "greedy-add": spokesman_greedy_add,
}

#: Name → callable(gs, rng) for the randomized algorithms.
RANDOMIZED_ALGORITHMS = {
    "sampling": spokesman_sampling,
    "sampling-all-scales": spokesman_sampling_all_scales,
}

#: The Procedure Partition family: name → its ``(block, managed, names)``
#: rows on a stacked graph.  Every row is a padded right-side bool mask,
#: so equal rows of one block compare by their bytes.
_PARTITION_FAMILY = {
    "partition": _partition_rows,
    "threshold-sweep": _sweep_rows,
    "degree-classes": _class_rows,
    "recursive": _level_rows,
}

#: The other members on a stacked graph: name → the chosen set of every
#: block, as a mask over the stacked left side.
_LOCKSTEP = {
    "naive-greedy": lambda blocks: naive_greedy_blocks(blocks)[0] >= 0,
    "greedy-add": greedy_add_blocks,
}

#: Name → the draws of a randomized member on a stacked graph.
_DRAW_PLANS = {
    "sampling": _sampling_plan,
    "sampling-all-scales": _all_scales_plan,
}


#: Candidate vertices per stacked graph in
#: :func:`wireless_lower_bounds_of_sets`.  A stack's transient memory
#: grows with its size (~1.5 MiB per 1,000 left vertices of degree-12
#: ``G_S``); the ``expansion-n200`` arm's ~3,200 fit in one stack.
_STACK_VERTICES = 4096


class BlockResults(NamedTuple):
    """One algorithm's answers on every block of a stacked graph."""

    chosen: np.ndarray  # (n_left,) bool over the stacked left side: each S'
    counts: np.ndarray  # (count,) |Γ¹(S')| per block
    algorithms: np.ndarray  # (count,) the name each answer reports


def portfolio_blocks(
    blocks: BlockBipartite, seeds, include: list[str] | None = None
) -> dict[str, BlockResults]:
    """Run the selected algorithms (default: all) on every block at once.

    ``seeds[c]`` seeds block ``c``'s randomized draws.  Each algorithm is
    one lockstep pass over all blocks; the partition-family members share
    one :func:`~repro.spokesman.partition.peel_blocks` call over the
    distinct ``(block, population)`` rows; every member's set is scored
    by one batched cover count.  Block ``c``'s answers equal those of the
    algorithms run alone on its graph with ``rng=seeds[c]``.
    """
    selected = [
        name
        for name in (*DETERMINISTIC_ALGORITHMS, *RANDOMIZED_ALGORITHMS)
        if include is None or name in include
    ]
    if not selected:
        raise ValueError(f"no known algorithm selected from {include!r}")
    # name → (chosen, algorithms): each block's S' and the name it reports.
    members = _peel_family(blocks, [n for n in selected if n in _PARTITION_FAMILY])
    for name in selected:
        if name in _LOCKSTEP:
            members[name] = (_LOCKSTEP[name](blocks), name)
    randomized = [n for n in selected if n in _DRAW_PLANS]
    drawn = draw_blocks(blocks, [_DRAW_PLANS[n](blocks) for n in randomized], seeds)
    members.update((name, (mask, name)) for name, mask in zip(randomized, drawn))
    chosen = np.column_stack([members[name][0] for name in selected])
    return {
        name: BlockResults(
            members[name][0], count, np.full(blocks.count, members[name][1], object)
        )
        for name, count in zip(selected, blocks.unique_counts(chosen).T)
    }


def _peel_family(blocks: BlockBipartite, names: list[str]) -> dict[str, tuple]:
    """Each named family member's ``(chosen, algorithms)`` on every block,
    from one lockstep peel over the distinct rows of all of them."""
    if not names:
        return {}
    rows = [_PARTITION_FAMILY[name](blocks) for name in names]
    block = np.concatenate([r[0] for r in rows])
    managed = np.concatenate([r[1] for r in rows])
    key = np.column_stack([block, np.packbits(managed, axis=1)])
    _, first, inverse = np.unique(
        key, axis=0, return_index=True, return_inverse=True
    )
    block, inverse = block[first], inverse.ravel()
    s_uni, labels, _ = peel_blocks(blocks, block, managed[first])
    payoffs = blocks.row_unique_counts(block, s_uni)
    out = {}
    ends = np.cumsum([r[0].size for r in rows])
    for name, (_, _, member_names), end in zip(names, rows, ends):
        own = inverse[end - member_names.size : end]
        if name == "recursive":
            out[name] = (_recurse(blocks, block[own], s_uni[own], labels[own], 0), name)
        else:
            chosen, index = best_rows(blocks, block[own], s_uni[own], payoffs[own])
            out[name] = (chosen, np.append(member_names, name)[index])
    return out


def spokesman_portfolio(
    gs: BipartiteGraph,
    rng=None,
    include: list[str] | None = None,
) -> tuple[SpokesmanResult, dict[str, SpokesmanResult]]:
    """Run the selected algorithms (default: all) and return
    ``(best, per_algorithm_results)``.

    Guarantee: ``best.unique_count ≥ γ·MG(δ)`` (Corollary A.16) whenever the
    portfolio includes the partition-family algorithms.  The one-block
    call of :func:`portfolio_blocks`: every member's result equals its own
    function's (the randomized ones drawing from ``rng`` in turn).
    """
    members = portfolio_blocks(BlockBipartite.single(gs), [rng], include)
    results = {
        name: SpokesmanResult(
            subset=np.flatnonzero(member.chosen),
            unique_count=int(member.counts[0]),
            n_left=gs.n_left,
            n_right=gs.n_right,
            algorithm=member.algorithms[0],
        )
        for name, member in members.items()
    }
    best = max(results.values(), key=lambda r: r.unique_count)
    return best, results


def wireless_lower_bound_of_set(
    graph: Graph, subset, rng=None, include: list[str] | None = None
) -> tuple[float, SpokesmanResult]:
    """Certified lower bound on the wireless expansion of one set ``S``.

    Extracts the boundary bipartite graph ``G_S`` (Section 4.1), runs the
    portfolio, and returns ``(payoff/|S|, best_result)`` with the witness
    ``S'`` translated back to original vertex ids.
    """
    mask = graph._as_mask(subset)
    size = int(mask.sum())
    if size == 0:
        raise ValueError("wireless expansion of the empty set is undefined")
    gs, left_vertices, _ = graph.boundary_bipartite(mask)
    best, _results = spokesman_portfolio(gs, rng=rng, include=include)
    return best.unique_count / size, replace(best, subset=left_vertices[best.subset])


def wireless_lower_bounds_of_sets(
    graph: Graph,
    subsets,
    seeds=None,
    size_cap: int | None = None,
    include: list[str] | None = None,
) -> np.ndarray:
    """Certified per-set lower bounds for a batch of candidate sets.

    The batched-pipeline arm of :func:`wireless_lower_bound_of_set`:
    module-level and plain-data so candidate shards can ride into
    :class:`~repro.runtime.executor.ParallelExecutor` workers.  ``seeds``
    supplies one pre-derived seed per candidate (so sharding can never
    perturb the randomized algorithms' streams); candidates outside
    ``1..size_cap`` score ``inf`` (skipped), matching the exact
    evaluator's skip rule, and a scored candidate that is not a set of
    distinct vertices raises ``ValueError`` as there.  The scored
    candidates' ``G_S`` are stacked about :data:`_STACK_VERTICES`
    vertices at a time, and each stack runs :func:`portfolio_blocks` once.
    """
    sizes, scored = graph.check_vertex_sets(subsets, size_cap)
    values = np.full(len(subsets), np.inf)
    # Consecutive candidates of about _STACK_VERTICES vertices in all.
    stack = (np.cumsum(sizes[scored]) - 1) // _STACK_VERTICES
    for part in np.split(scored, np.flatnonzero(np.diff(stack)) + 1):
        blocks, _, _ = graph.boundary_blocks([subsets[i] for i in part])
        members = portfolio_blocks(
            blocks, [None if seeds is None else seeds[i] for i in part], include
        )
        best = np.max([member.counts for member in members.values()], axis=0)
        values[part] = best / sizes[part]
    return values
