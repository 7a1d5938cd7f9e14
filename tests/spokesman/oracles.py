"""Serial, one-graph oracles for the stacked spokesman kernels.

Every function here runs one algorithm on one ``G_S`` with a plain loop:
the per-neighbour Procedure Partition loop, the Lemma A.1 trace, greedy
add/remove hill climbing with recomputed gains, the Lemma A.13
recursion, and the Lemma 4.2/4.3 samplers.  :func:`reference_portfolio`
assembles them into the Corollary A.16 portfolio, member for member, so
the stacked kernels of :mod:`repro.spokesman` can be checked against an
implementation that shares none of their code.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import as_rng
from repro.expansion.bounds import OPTIMAL_DEGREE_CLASS_BASE
from repro.graphs import BipartiteGraph
from repro.spokesman import SpokesmanResult, evaluate_subset
from repro.spokesman.partition import EXCLUDED, MANY, TMP, UNI, PartitionState

#: The threshold ladder of the portfolio's sweep.
SWEEP = (1.5, 2.0, 3.0, 4.0, 8.0)


def serial_partition(gs: BipartiteGraph, right_subset=None) -> PartitionState:
    """The serial per-neighbour loop: one argmax and one Python pass over
    the chosen vertex's neighbours per step."""
    managed = gs.right_degrees >= 1
    if right_subset is not None:
        managed = managed & gs._as_right_mask(np.asarray(right_subset))
    labels = np.full(gs.n_right, EXCLUDED, dtype=np.int8)
    labels[managed] = TMP
    in_stmp = np.ones(gs.n_left, dtype=bool)
    in_suni = np.zeros(gs.n_left, dtype=bool)
    tmp_count = gs.left_cover_counts(managed).astype(np.int64)
    uni_count = np.zeros(gs.n_left, dtype=np.int64)
    steps = 0
    while in_stmp.any():
        gains = tmp_count - 2 * uni_count
        gains[~in_stmp] = np.iinfo(np.int64).min
        v = int(np.argmax(gains))
        if gains[v] <= 0:
            break
        steps += 1
        in_stmp[v] = False
        in_suni[v] = True
        for r in gs.neighbors_of_left(v):
            r = int(r)
            if labels[r] == UNI:
                labels[r] = MANY
                uni_count[gs.neighbors_of_right(r)] -= 1
            elif labels[r] == TMP:
                labels[r] = UNI
                tmp_count[gs.neighbors_of_right(r)] -= 1
                uni_count[gs.neighbors_of_right(r)] += 1
    return PartitionState(
        s_uni=in_suni, s_tmp=in_stmp, labels=labels, steps=steps
    )


def serial_naive_greedy_trace(
    gs: BipartiteGraph,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lemma A.1's procedure, one step and one Python pass over ``Γ(w)``
    at a time: ``(S_uni in pick order, sorted N_uni, steps)``."""
    in_stmp = np.ones(gs.n_left, dtype=bool)
    in_ntmp = gs.right_degrees >= 1
    deg_tmp = gs.right_degrees.copy()  # |Γ(v, S_tmp)| for every right v
    s_uni: list[int] = []
    n_uni: list[int] = []
    steps = 0

    while in_ntmp.any():
        steps += 1
        candidates = np.flatnonzero(in_ntmp)
        v = int(candidates[np.argmin(deg_tmp[candidates])])
        assert deg_tmp[v] >= 1, "invariant (I4): N_tmp vertex with no S_tmp neighbour"
        nbrs_v = gs.neighbors_of_right(v)
        gamma_v = nbrs_v[in_stmp[nbrs_v]]
        gamma_v_set = frozenset(int(u) for u in gamma_v)
        w = int(gamma_v[0])
        s_uni.append(w)
        for r in gs.neighbors_of_left(w):
            r = int(r)
            if not in_ntmp[r]:
                continue
            nbrs_r = gs.neighbors_of_right(r)
            stmp_nbrs = frozenset(int(u) for u in nbrs_r[in_stmp[nbrs_r]])
            in_ntmp[r] = False
            if stmp_nbrs == gamma_v_set:
                n_uni.append(r)
        for u in gamma_v:
            u = int(u)
            in_stmp[u] = False
            deg_tmp[gs.neighbors_of_left(u)] -= 1

    return (
        np.array(s_uni, dtype=np.int64),
        np.array(sorted(n_uni), dtype=np.int64),
        steps,
    )


def recomputed_greedy_add(gs: BipartiteGraph, max_passes: int = 10_000):
    """Greedy add/remove hill climbing that recomputes both gain vectors
    from the cover counts with sparse mat-vecs on every pass."""
    member = np.zeros(gs.n_left, dtype=bool)
    counts = np.zeros(gs.n_right, dtype=np.int32)
    left = gs.left_matrix
    for _ in range(max_passes):
        zero = (counts == 0).astype(np.int32)
        one = (counts == 1).astype(np.int32)
        two = (counts == 2).astype(np.int32)
        gain_add = left @ zero - left @ one
        gain_remove = left @ two - left @ one
        gain = np.where(member, gain_remove, gain_add)
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            break
        if member[best]:
            member[best] = False
            counts[gs.neighbors_of_left(best)] -= 1
        else:
            member[best] = True
            counts[gs.neighbors_of_left(best)] += 1
    return evaluate_subset(gs, np.flatnonzero(member), "greedy-add")


def _best_uni(gs: BipartiteGraph, populations, names) -> SpokesmanResult | None:
    """The best serial ``S_uni`` over ``populations`` (the earliest wins
    ties), named after its population."""
    best = None
    for population, name in zip(populations, names):
        state = serial_partition(gs, population)
        result = evaluate_subset(gs, np.flatnonzero(state.s_uni), name)
        if best is None or result.unique_count > best.unique_count:
            best = result
    return best


def _threshold(gs: BipartiteGraph, t: float) -> np.ndarray:
    deg = gs.right_degrees
    if not (deg >= 1).any():
        return np.zeros(gs.n_right, dtype=bool)
    return (deg >= 1) & (deg <= t * float(deg[deg >= 1].mean()))


def _classes(gs: BipartiteGraph) -> list[np.ndarray]:
    deg = gs.right_degrees
    c = OPTIMAL_DEGREE_CLASS_BASE
    out = []
    for i in range(1, 64):
        lo, hi = c ** (i - 1), c**i
        members = (deg >= 1) & (deg >= lo - 1e-9) & (deg < hi - 1e-9)
        if members.any():
            out.append(members)
    return out


def _potential(gamma: int, delta: float) -> float:
    return gamma / math.log2(2 * max(delta, 1.0)) if gamma else 0.0


def serial_recursive(gs: BipartiteGraph, depth: int = 0) -> np.ndarray:
    """Lemma A.13's recursion, one subgraph at a time."""
    nonisolated = gs.right_degrees >= 1
    gamma = int(nonisolated.sum())
    if gamma == 0:
        return np.array([], dtype=np.int64)
    if gamma <= 9:
        return np.array([int(np.argmax(gs.left_degrees))], dtype=np.int64)
    delta = float(gs.right_degrees[nonisolated].mean())
    state = serial_partition(gs)
    n_tmp = state.n_tmp
    if n_tmp.size == 0 or depth > gs.n_left + gs.n_right:
        return np.flatnonzero(state.s_uni)
    e_tmp = int(gs.left_cover_counts(n_tmp)[state.s_tmp].sum())
    if (
        _potential(n_tmp.size, e_tmp / n_tmp.size) >= _potential(gamma, delta)
        and n_tmp.size < gamma
    ):
        sub = gs.subgraph(state.s_tmp, n_tmp)
        return np.flatnonzero(state.s_tmp)[serial_recursive(sub, depth + 1)]
    return np.flatnonzero(state.s_uni)


def _largest_class(gs: BipartiteGraph) -> int:
    deg = gs.right_degrees
    delta_n = deg[deg >= 1].mean()
    eligible = (deg >= 1) & (deg <= 2 * delta_n)
    logs = np.log2(deg, where=deg >= 1, out=np.zeros_like(deg, dtype=float))
    classes = np.floor(logs)
    best_j, best_size = 0, 0
    for j in range(int(classes[eligible].max()) + 1):
        size = int((eligible & (classes == j)).sum())
        if size > best_size:
            best_j, best_size = j, size
    return best_j


def serial_lemma43(gs: BipartiteGraph) -> tuple[BipartiteGraph, np.ndarray]:
    """Lemma 4.3's reduction with its greedy re-covering scan."""
    deg = gs.left_degrees
    delta_s = deg[deg >= 1].mean()
    s_prime = np.flatnonzero((deg >= 1) & (deg <= 2 * delta_s))
    n_prime_mask = gs.covered(s_prime)
    covered = np.zeros(gs.n_right, dtype=bool)
    keep: list[int] = []
    for u in s_prime:
        nbrs = gs.neighbors_of_left(int(u))
        fresh = nbrs[n_prime_mask[nbrs] & ~covered[nbrs]]
        if fresh.size:
            keep.append(int(u))
            covered[fresh] = True
    left_ids = np.array(keep, dtype=np.int64)
    return gs.subgraph(left_ids, n_prime_mask), left_ids


def _best_draw(gs: BipartiteGraph, draws: np.ndarray, name: str) -> SpokesmanResult:
    payoffs = [gs.unique_cover_count(draw) for draw in draws]
    return evaluate_subset(gs, np.flatnonzero(draws[int(np.argmax(payoffs))]), name)


def serial_sampling(gs: BipartiteGraph, rng=None, trials: int = 16):
    """Lemma 4.2 (``β ≥ 1``) or Lemma 4.3 then 4.2 (``β < 1``)."""
    gen = as_rng(rng)
    if gs.n_right == 0 or gs.max_right_degree == 0:
        return evaluate_subset(gs, [], "sampling")
    if gs.n_right >= gs.n_left:
        target, left_ids = gs, np.arange(gs.n_left)
    else:
        target, left_ids = serial_lemma43(gs)
        if target.n_right == 0 or target.max_right_degree == 0:
            return evaluate_subset(gs, [], "sampling")
    j = _largest_class(target)
    draws = np.zeros((trials, gs.n_left), dtype=bool)
    draws[:, left_ids] = gen.random((trials, target.n_left)) < 2.0 ** (-j)
    return _best_draw(gs, draws, "sampling")


def serial_sampling_all_scales(gs: BipartiteGraph, rng=None, trials_per_scale: int = 8):
    """Every scale ``0..⌈log₂Δ_N⌉ + 2``, ``trials_per_scale`` draws each."""
    gen = as_rng(rng)
    if gs.max_right_degree == 0:
        return evaluate_subset(gs, [], "sampling-all-scales")
    top = int(np.ceil(np.log2(max(2, gs.max_right_degree)))) + 1
    scales = np.repeat(np.arange(top + 2, dtype=np.float64), trials_per_scale)
    draws = gen.random((scales.size, gs.n_left)) < 2.0 ** (-scales)[:, None]
    return _best_draw(gs, draws, "sampling-all-scales")


def reference_portfolio(gs: BipartiteGraph, rng=None) -> dict[str, SpokesmanResult]:
    """Every portfolio member on ``gs``, in the portfolio's order, each by
    its serial oracle; the two samplers draw from ``rng`` in turn."""
    s_uni, _, _ = serial_naive_greedy_trace(gs)
    classes = _classes(gs)
    return {
        "naive-greedy": evaluate_subset(gs, s_uni, "naive-greedy"),
        "partition": _best_uni(gs, [_threshold(gs, 2.0)], ["partition"]),
        "threshold-sweep": _best_uni(
            gs, [_threshold(gs, t) for t in SWEEP],
            [f"partition[t={t:g}]" for t in SWEEP],
        ),
        "degree-classes": _best_uni(gs, classes, ["degree-classes"] * len(classes))
        or evaluate_subset(gs, [], "degree-classes"),
        "recursive": evaluate_subset(gs, serial_recursive(gs), "recursive"),
        "greedy-add": recomputed_greedy_add(gs),
        "sampling": serial_sampling(gs, rng),
        "sampling-all-scales": serial_sampling_all_scales(gs, rng),
    }
