"""Batched wireless-expansion estimation — the scaled candidate pipeline.

The sampled estimator (:func:`repro.expansion.wireless.wireless_expansion_sampled`)
searches over candidate sets ``S`` and needs, per candidate, the *exact*
spokesman optimum ``max_{S' ⊆ S} |Γ¹_S(S')|``.  The legacy path paid for
that with one ``boundary_bipartite`` extraction plus one
``bipartite_subset_profile`` call per candidate — a Python loop whose inner
profile itself loops over distinct neighbourhood masks (``O(D·2^k)`` work
per candidate, re-dispatched from Python every time).  This module is the
batched replacement:

* :func:`enumerate_candidates` draws every candidate up front with the
  exact RNG call sequence of the serial loop (random subsets first, then
  BFS balls), so a fixed seed yields the same candidate list bit for bit;
* :func:`evaluate_candidate_shard` groups candidates by size, extracts all
  their boundary neighbourhood masks with **one** sparse mat-mat product
  per group, and scores the whole group in one batched lattice pass
  (:func:`_best_unique_batch`) — the subset-lattice DP of
  :func:`~repro.expansion.subsets.graph_subset_profile` run over each
  candidate's *distinct multi-vertex boundary masks* (64 to a machine
  word) and only the vertices those masks involve, in slabs of
  candidates sharing a lattice width, with a weight-plane popcount.
  That turns the per-candidate cost from ``O(D·2^k)`` vectorized passes
  into ``O(⌈D/64⌉·2^k')`` word ops — the ≥ 10× win E17 pins;
* :func:`evaluate_candidates` shards the candidate list contiguously
  across a :class:`~repro.runtime.executor.ParallelExecutor`; per-set
  values are exact integers divided by exact sizes, so shard boundaries
  and worker count can never perturb the result.

The portfolio arm (:func:`portfolio_candidate_values` over
:func:`repro.spokesman.portfolio.wireless_lower_bounds_of_sets`) scores
the same candidates with the polynomial-time spokesman portfolio instead
of exact enumeration — usable at candidate widths where ``2^k``
enumeration is off the table.  Each per-set payoff certifies that set's
expansion from below, so the minimum lower-bounds the *candidate
minimum* (the exact arm's value on the same candidates), not ``βw(G)``
itself.
"""

from __future__ import annotations

from repro._util import as_rng, check_fraction, popcount_u64
from repro.backend import HOST, resolve_backend
from repro.graphs.graph import Graph
from repro.obs.tracing import traced

# Host namespace via the backend shim: candidate bookkeeping, bitmask
# dedup and the lattice DP are host-side uint64 word arithmetic; only
# the boundary-mask mat-mats route through the resolved backend.
np = HOST.xp

__all__ = [
    "enumerate_candidates",
    "evaluate_candidate_shard",
    "evaluate_candidates",
    "max_unique_coverage_lattice",
    "portfolio_candidate_values",
]

#: Candidates per boundary-extraction mat-mat product (bounds the dense
#: ``(n, C)`` mask matrix).
_GROUP_CHUNK = 1024

#: Widest candidate the exact lattice evaluates.  Its cost is a
#: ``2^k``-cell uint64 lattice per candidate (~0.5 GiB of DP buffers at
#: 24 bits); the ``(candidate << k) | mask`` dedup key must also fit int64.
MAX_LATTICE_BITS = 24

#: Cells (rows × ``2^k'``) per lattice slab: the four DP buffers stay
#: cache-resident.  On the n≈200 benchmark's candidates 2^16 ran fastest
#: of 2^12..2^20; 2^20 took ~1.6× the CPU time and ~32 MiB more peak RSS.
_SLAB_CELLS = 1 << 16


@traced("expansion.enumerate_candidates")
def enumerate_candidates(
    graph: Graph,
    alpha: float = 0.5,
    samples: int = 100,
    rng=None,
    include_balls: bool = True,
    max_set_bits: int = 20,
) -> tuple[list[np.ndarray], int]:
    """All candidate sets of one sampled-estimation run, in serial order.

    Replays the exact generation sequence of the legacy serial loop —
    ``samples`` draws of ``(size, subset)`` from ``rng``, then every BFS
    ball of every vertex up to the first ball wider than the size cap —
    so a fixed seed enumerates identical candidates.  Returns
    ``(candidates, size_cap)`` with ``size_cap = min(⌊alpha·n⌋,
    max_set_bits)``.
    """
    check_fraction(alpha, "alpha")
    gen = as_rng(rng)
    limit = int(np.floor(alpha * graph.n))
    if limit < 1:
        raise ValueError(f"alpha={alpha} admits no non-empty subsets")
    size_cap = min(limit, max_set_bits)

    candidates: list[np.ndarray] = []
    for _ in range(samples):
        size = int(gen.integers(1, size_cap + 1))
        candidates.append(gen.choice(graph.n, size=size, replace=False))
    if include_balls:
        for v in range(graph.n):
            dist = graph.bfs_layers(v)
            reach = dist[dist >= 0]
            for radius in range(int(reach.max()) + 1):
                ball = np.flatnonzero((dist >= 0) & (dist <= radius))
                if ball.size > size_cap:
                    break
                candidates.append(ball)
    return candidates, size_cap


def _check_lattice_width(size_cap: int) -> None:
    if size_cap > MAX_LATTICE_BITS:
        raise ValueError(
            f"candidate size cap {size_cap} = min(floor(alpha*n), "
            f"max_set_bits) exceeds MAX_LATTICE_BITS = {MAX_LATTICE_BITS}: "
            f"exact scoring needs a 2^k-cell lattice per candidate; lower "
            f"max_set_bits, or bound wide sets from below with "
            f"portfolio(...)"
        )


def max_unique_coverage_lattice(
    k: int, masks: np.ndarray, weights: np.ndarray, backend=None
) -> int:
    """Exact ``max_{S' ⊆ [k]} Σ_m w_m·[|S' ∩ m| = 1]`` by lattice DP.

    ``masks`` are boundary neighbourhood bitmasks over the ``k`` candidate
    vertices, with multiplicities ``weights``.  The one-candidate case of
    :func:`_best_unique_batch`.  ``backend`` is accepted for
    compatibility and routes nothing: the lattice is host-side uint64
    word arithmetic.
    """
    masks = np.asarray(masks, dtype=np.uint64).ravel()
    cand_of = np.zeros(masks.size, dtype=np.int64)
    return int(_best_unique_batch(k, cand_of, masks, weights, 1)[0])


def _best_unique_batch(
    k: int, cand_of: np.ndarray, masks: np.ndarray, weights: np.ndarray,
    count: int,
) -> np.ndarray:
    """``max_{S'} Σ_m w_m·[|S' ∩ m| = 1]`` for ``count`` candidates at once.

    ``(cand_of[i], masks[i], weights[i])`` lists every candidate's boundary
    masks over its ``k`` vertices with their multiplicities (≥ 0),
    grouped by candidate (ascending).  Three exact reductions:

    * a *singleton* mask ``{b}`` is covered once exactly when ``b ∈ S'``:
      a per-bit weight;
    * a *free* bit — in no multi-bit mask — only ever adds its singleton
      weight (≥ 0), so some optimum contains it: its weight is a
      constant and the lattice runs over the ``k' ≤ k`` *involved* bits;
    * the multi masks, 64 lanes to a uint64 row (a candidate with more
      takes several rows), sweep the subset-lattice DP of
      :func:`~repro.expansion.subsets.graph_subset_profile` in
      ``(rows, 2^k')`` slabs of candidates sharing ``k'``; a lane of
      weight ``w`` counts ``popcount(once)`` once plus
      ``Σ_j popcount(once & plane_j) << j`` over the binary planes of
      ``w - 1``, and the singleton weights add as a doubling table.
    """
    cand_of = np.asarray(cand_of, dtype=np.int64)
    masks = np.asarray(masks, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.int64)
    bits = np.arange(k, dtype=np.uint64)
    width = popcount_u64(masks)

    single = width == 1
    single_weight = np.zeros((count, k), dtype=np.int64)
    np.add.at(
        single_weight,
        (cand_of[single], popcount_u64(masks[single] - np.uint64(1))),
        weights[single],
    )

    multi = (width > 1) & (weights > 0)
    m_cand, m_mask, m_weight = cand_of[multi], masks[multi], weights[multi]
    owners, first, per_owner = np.unique(
        m_cand, return_index=True, return_counts=True
    )
    involved = np.zeros(count, dtype=np.uint64)
    if owners.size:
        involved[owners] = np.bitwise_or.reduceat(m_mask, first)
    is_involved = ((involved[:, None] >> bits) & np.uint64(1)).astype(bool)
    best = np.where(is_involved, 0, single_weight).sum(axis=1)
    k_inv = is_involved.sum(axis=1)
    if not owners.size:
        return best

    # Relabel each candidate's involved bits 0..k'-1 in order.
    rank = np.cumsum(is_involved, axis=1) - is_involved
    inv_single = np.zeros((count, k), dtype=np.int64)
    ci, bi = np.nonzero(is_involved)
    inv_single[ci, rank[ci, bi]] = single_weight[ci, bi]

    # Rows: 64 lanes of one candidate's multi masks each.
    pos = np.arange(m_cand.size) - np.repeat(first, per_owner)
    lane_bit = np.uint64(1) << (pos % 64).astype(np.uint64)
    rows_of = np.zeros(count, dtype=np.int64)
    rows_of[owners] = (per_owner + 63) // 64
    row_start = np.cumsum(rows_of) - rows_of
    row_id = row_start[m_cand] + pos // 64
    row_first = np.flatnonzero(np.diff(row_id, prepend=-1))
    # adj[r, b']: the lanes of row r whose mask holds involved bit b'.
    mi, bi = np.nonzero((m_mask[:, None] >> bits) & np.uint64(1))
    lanes = np.zeros((m_cand.size, k), dtype=np.uint64)
    lanes[mi, rank[m_cand[mi], bi]] = lane_bit[mi]
    adj = np.bitwise_or.reduceat(lanes, row_first, axis=0)
    # planes[r, j]: the lanes of row r whose weight - 1 has bit j set.
    extra = m_weight - 1
    depth = int(extra.max()).bit_length()
    plane_bits = (extra[:, None] >> np.arange(depth)) & 1
    planes = np.bitwise_or.reduceat(
        np.where(plane_bits == 1, lane_bit[:, None], np.uint64(0)),
        row_first, axis=0,
    )

    # Slabs: consecutive candidates of one k', about _SLAB_CELLS cells.
    slabs = []
    for kp in np.unique(k_inv[owners]):
        kp = int(kp)
        cands = np.flatnonzero(k_inv == kp)
        offset = np.cumsum(rows_of[cands]) - rows_of[cands]
        cuts = np.flatnonzero(
            np.diff(offset // max(1, _SLAB_CELLS >> kp), prepend=-1)
        )
        slabs.extend((kp, part) for part in np.split(cands, cuts[1:]))
    cells = max(int(rows_of[part].sum()) << kp for kp, part in slabs)
    buffers = [np.empty(cells, dtype=np.uint64) for _ in range(4)]
    for kp, part in slabs:
        nrows = rows_of[part]
        starts = np.cumsum(nrows) - nrows
        rows = np.repeat(row_start[part] - starts, nrows) + np.arange(
            int(nrows.sum())
        )
        best[part] += _lattice_slab(
            adj[rows, :kp], planes[rows], starts, inv_single[part, :kp],
            buffers,
        )
    return best


def _lattice_slab(adj, planes, starts, single, buffers) -> np.ndarray:
    """Best weighted unique count of each candidate of one slab.

    ``adj`` is ``(rows, k')``, ``planes`` ``(rows, depth)``, ``starts``
    each candidate's first row and ``single`` its ``(k',)`` involved-bit
    singleton weights; ``buffers`` are four uint64 scratch arrays of at
    least ``rows·2^k'`` cells.
    """
    rows, kp = adj.shape
    size = 1 << kp
    once, seen, scratch, acc = (
        b[: rows * size].reshape(rows, size) for b in buffers
    )
    # Lanes hit exactly once / at least once by each subset x, built up
    # bit by bit: x | {b} from x for every x < 2^b.
    not_adj = ~adj
    once[:, 0] = 0
    seen[:, 0] = 0
    for b in range(kp):
        h = 1 << b
        po, ps = once[:, :h], seen[:, :h]
        no, ns = once[:, h : 2 * h], seen[:, h : 2 * h]
        # seen' = seen | a;  once' = (once & ~a) ^ (a & ~seen)
        np.bitwise_or(ps, adj[:, b : b + 1], out=ns)
        np.bitwise_and(po, not_adj[:, b : b + 1], out=no)
        np.bitwise_xor(no, ns, out=no)
        np.bitwise_xor(no, ps, out=no)

    # Σ_{b ∈ x} single[b] by doubling, then the multi lanes' weighted
    # unique counts on top, plane by plane.
    total = acc.view(np.int64)[: starts.size]
    total[:, 0] = 0
    for b in range(kp):
        h = 1 << b
        np.add(total[:, :h], single[:, b : b + 1], out=total[:, h : 2 * h])
    # Every lane weighs 1 + Σ_j plane_j·2^j; only used lanes are ever set.
    counts = popcount_u64(once)
    if starts.size < rows:
        per_row = seen.view(np.int64)
        np.copyto(per_row, counts)
    else:
        per_row = total
        per_row += counts
    for j in np.flatnonzero(planes.any(axis=0)):
        np.bitwise_and(once, planes[:, j : j + 1], out=scratch)
        counts = popcount_u64(scratch)
        if j:
            counts = np.left_shift(
                counts, j, out=scratch.view(np.int64), dtype=np.int64
            )
        per_row += counts
    if per_row is not total:
        total += np.add.reduceat(per_row, starts, axis=0)
    return total.max(axis=1)


def _group_best_unique(
    adjacency, n: int, group: np.ndarray, backend=HOST
) -> np.ndarray:
    """``max_{S'} |Γ¹_S(S')|`` for every candidate of one size group.

    ``group`` is a ``(C, k)`` index matrix.  One sparse mat-mat product
    yields every vertex's neighbourhood bitmask within every candidate at
    once (0/1 adjacency times powers of two cannot carry, so the integer
    sum *is* the bitwise OR); the per-candidate distinct masks then feed
    one :func:`_best_unique_batch` pass.  ``adjacency`` is the backend's
    value operator (the host int64 scipy cast on numpy); the mask matrix
    lands back on the host for the bit-level dedup.
    """
    count, k = group.shape
    cols = np.repeat(np.arange(count), k)
    weights_matrix = np.zeros((n, count), dtype=np.int64)
    weights_matrix[group.ravel(), cols] = np.tile(
        np.int64(1) << np.arange(k, dtype=np.int64), count
    )
    if backend.is_host:
        masks = adjacency @ weights_matrix
    else:
        masks = backend.to_numpy(
            backend.value_matmul(adjacency, backend.asarray(weights_matrix))
        )
    in_set = np.zeros((n, count), dtype=bool)
    in_set[group.ravel(), cols] = True
    valid = (masks != 0) & ~in_set  # exactly the boundary Γ⁻(S) rows
    v_idx, c_idx = np.nonzero(valid)
    key = (c_idx.astype(np.int64) << k) | masks[v_idx, c_idx]
    distinct, multiplicity = np.unique(key, return_counts=True)
    return _best_unique_batch(
        k, distinct >> k, distinct & ((np.int64(1) << k) - 1), multiplicity,
        count,
    )


@traced("expansion.evaluate_candidate_shard")
def evaluate_candidate_shard(
    graph: Graph, candidates, size_cap: int, backend=None
) -> np.ndarray:
    """Exact per-set wireless expansion of each candidate (``inf`` where
    the candidate is skipped for falling outside ``1..size_cap``).

    Module-level and all-plain-data so :class:`ParallelExecutor` workers
    can evaluate shards; values are exact, so any sharding of the
    candidate list concatenates back to the serial answer bit for bit.
    ``backend`` (a name or ``None`` for host numpy — names stay picklable
    across worker boundaries) runs the boundary mat-mats on an
    accelerator; the lattice is host-side, and values are exact integers
    either way.  Raises ``ValueError`` if ``size_cap`` exceeds
    :data:`MAX_LATTICE_BITS`.
    """
    _check_lattice_width(size_cap)
    bk = resolve_backend(backend)
    values = np.full(len(candidates), np.inf)
    by_size: dict[int, list[int]] = {}
    for i, cand in enumerate(candidates):
        width = int(np.asarray(cand).size)
        if 1 <= width <= size_cap:
            by_size.setdefault(width, []).append(i)
    adjacency = (
        graph.adjacency.astype(np.int64)
        if bk.is_host
        else bk.value_operator(graph)
    )
    for k, indices in sorted(by_size.items()):
        group = np.stack(
            [np.asarray(candidates[i], dtype=np.int64) for i in indices]
        )
        # Candidates are sets — dedupe repeats (BFS balls of nearby
        # vertices often coincide) and score each distinct set once.
        distinct, inverse = np.unique(
            np.sort(group, axis=1), axis=0, return_inverse=True
        )
        bests = np.concatenate([
            _group_best_unique(
                adjacency, graph.n, distinct[lo : lo + _GROUP_CHUNK],
                backend=bk,
            )
            for lo in range(0, distinct.shape[0], _GROUP_CHUNK)
        ])
        values[indices] = bests[inverse.ravel()] / k
    return values


def _map_shards(fn, make_call, count: int, executor) -> np.ndarray:
    """Shard ``count`` candidates contiguously across an executor.

    ``make_call(indices)`` builds one shard's kwargs; the per-shard value
    arrays concatenate back in candidate order.  Per-candidate values are
    exact (and seeds pre-derived), so the shard layout can never perturb
    the result.
    """
    from repro.runtime.executor import as_executor

    exec_ = as_executor(executor)
    if exec_.jobs <= 1 or count <= 1:
        return fn(**make_call(np.arange(count)))
    shards = np.array_split(np.arange(count), min(exec_.jobs, count))
    parts = exec_.map(fn, [make_call(s) for s in shards if s.size])
    return np.concatenate(parts)


@traced("expansion.evaluate_candidates")
def evaluate_candidates(
    graph: Graph, candidates, size_cap: int, executor=None, backend=None
) -> np.ndarray:
    """Per-candidate exact values, optionally sharded across workers.

    ``executor`` is an :class:`~repro.runtime.executor.Executor`, an int
    job count, or ``None`` (inline).  Shards are contiguous slices of the
    candidate list, and every value is an exact ``best/|S|`` ratio, so the
    returned array is identical whatever the worker count.  ``backend``
    crosses worker boundaries as its registry spec string, so process
    shards never pickle live backend handles.  Raises ``ValueError``
    before any work if ``size_cap`` exceeds :data:`MAX_LATTICE_BITS`.
    """
    _check_lattice_width(size_cap)
    if backend is not None and not isinstance(backend, str):
        backend = resolve_backend(backend).spec
    return _map_shards(
        evaluate_candidate_shard,
        lambda shard: {
            "graph": graph,
            "candidates": [candidates[i] for i in shard],
            "size_cap": size_cap,
            "backend": backend,
        },
        len(candidates),
        executor,
    )


@traced("expansion.portfolio_candidate_values")
def portfolio_candidate_values(
    graph: Graph, candidates, seeds, size_cap: int, executor=None
) -> np.ndarray:
    """Certified per-candidate (per-set) lower bounds via the spokesman
    portfolio.

    The large-``n`` arm: each candidate is scored by
    :func:`repro.spokesman.portfolio.wireless_lower_bounds_of_sets`
    (polynomial-time, so ``size_cap`` may far exceed the exact
    enumeration width) under its own pre-derived seed, sharded like
    :func:`evaluate_candidates`.  The certification is per set — a
    minimum over these values bounds the candidate minimum, not βw.
    """
    from repro.spokesman.portfolio import wireless_lower_bounds_of_sets

    return _map_shards(
        wireless_lower_bounds_of_sets,
        lambda shard: {
            "graph": graph,
            "subsets": [candidates[i] for i in shard],
            "seeds": [seeds[i] for i in shard],
            "size_cap": size_cap,
        },
        len(candidates),
        executor,
    )


def select_minimum(values: np.ndarray, candidates) -> tuple[float, np.ndarray]:
    """The serial selection rule: first candidate strictly improving the
    running minimum wins (ties keep the earlier candidate)."""
    best = np.inf
    best_set = np.array([0], dtype=np.int64)
    for index in range(len(candidates)):
        if values[index] < best:
            best = values[index]
            best_set = candidates[index]
    return float(best), best_set
