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

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.degree_classes import (
    _class_finish,
    _class_populations,
    spokesman_degree_classes,
)
from repro.spokesman.greedy_add import spokesman_greedy_add
from repro.spokesman.naive_greedy import spokesman_naive_greedy
from repro.spokesman.partition import procedure_partition_batch
from repro.spokesman.recursive import (
    _level_populations,
    _recursive_finish,
    spokesman_recursive,
)
from repro.spokesman.sampling import spokesman_sampling, spokesman_sampling_all_scales
from repro.spokesman.threshold_partition import (
    _partition_finish,
    _partition_populations,
    _sweep_finish,
    _sweep_populations,
    spokesman_partition,
    spokesman_threshold_sweep,
)

__all__ = [
    "DETERMINISTIC_ALGORITHMS",
    "RANDOMIZED_ALGORITHMS",
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

#: The Procedure Partition family: name → ``(populations, finish)``, the
#: two steps each member's public function runs around its own
#: :func:`procedure_partition_batch` call.  Every population is a bool
#: mask over the right side, so equal populations compare by their bytes.
_PARTITION_FAMILY = {
    "partition": (_partition_populations, _partition_finish),
    "threshold-sweep": (_sweep_populations, _sweep_finish),
    "degree-classes": (_class_populations, _class_finish),
    "recursive": (_level_populations, _recursive_finish),
}

#: Name → callable(gs, rng) for the randomized algorithms.
RANDOMIZED_ALGORITHMS = {
    "sampling": spokesman_sampling,
    "sampling-all-scales": spokesman_sampling_all_scales,
}


def spokesman_portfolio(
    gs: BipartiteGraph,
    rng=None,
    include: list[str] | None = None,
) -> tuple[SpokesmanResult, dict[str, SpokesmanResult]]:
    """Run the selected algorithms (default: all) and return
    ``(best, per_algorithm_results)``.

    Guarantee: ``best.unique_count ≥ γ·MG(δ)`` (Corollary A.16) whenever the
    portfolio includes the partition-family algorithms.  The selected
    partition-family members share one
    :func:`~repro.spokesman.partition.procedure_partition_batch` call, which
    peels each distinct population once; every member's result equals its
    own function's.
    """
    selected = [
        name for name in DETERMINISTIC_ALGORITHMS
        if include is None or name in include
    ]
    states = _peel_family(gs, [n for n in selected if n in _PARTITION_FAMILY])
    results: dict[str, SpokesmanResult] = {}
    for name in selected:
        if name in states:
            _, finish = _PARTITION_FAMILY[name]
            results[name] = finish(gs, states[name])
        else:
            results[name] = DETERMINISTIC_ALGORITHMS[name](gs)
    for name, fn in RANDOMIZED_ALGORITHMS.items():
        if include is None or name in include:
            results[name] = fn(gs, rng)
    if not results:
        raise ValueError(f"no known algorithm selected from {include!r}")
    best = max(results.values(), key=lambda r: r.unique_count)
    return best, results


def _peel_family(gs: BipartiteGraph, names: list[str]) -> dict[str, list]:
    """Each named family member's partition states, from one lockstep
    batch over the distinct populations of all of them."""
    populations = {name: _PARTITION_FAMILY[name][0](gs) for name in names}
    distinct: dict[bytes, np.ndarray] = {}
    for masks in populations.values():
        for mask in masks:
            distinct.setdefault(mask.tobytes(), mask)
    peeled = dict(
        zip(distinct, procedure_partition_batch(gs, list(distinct.values())))
    )
    return {
        name: [peeled[mask.tobytes()] for mask in masks]
        for name, masks in populations.items()
    }


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
    translated = SpokesmanResult(
        subset=left_vertices[best.subset],
        unique_count=best.unique_count,
        n_left=best.n_left,
        n_right=best.n_right,
        algorithm=best.algorithm,
    )
    return best.unique_count / size, translated


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
    evaluator's skip rule.
    """
    values = np.full(len(subsets), np.inf)
    for i, subset in enumerate(subsets):
        subset = np.asarray(subset, dtype=np.int64)
        if subset.size < 1 or (size_cap is not None and subset.size > size_cap):
            continue
        seed = None if seeds is None else seeds[i]
        value, _ = wireless_lower_bound_of_set(
            graph, subset, rng=seed, include=include
        )
        values[i] = value
    return values
