"""Standard graph families used as experiment workloads.

These provide the "ordinary expanders" that Theorem 1.1 takes as input and
the base graphs that Corollary 4.11 plugs the generalized core graph onto.
Random d-regular graphs are near-Ramanujan with high probability (Friedman's
theorem), standing in for the "known explicit expanders" the paper invokes;
Margulis–Gabber–Galil and chordal-cycle graphs give fully explicit expanders.
"""

from __future__ import annotations

import random

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph

__all__ = [
    "chordal_cycle_graph",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "hypercube",
    "margulis_expander",
    "path_graph",
    "random_bipartite_regular",
    "random_bipartite",
    "random_regular",
    "star_graph",
]

#: Above this vertex count the randomized/explicit expander builders go
#: straight to CSR (:meth:`Graph.from_csr`) instead of replaying the
#: pairing-with-repair sampler or canonicalizing an edge list — the
#: datacenter-scale path.  Below it, the legacy constructions are kept
#: so existing seeds keep producing bit-identical graphs.
_DIRECT_SAMPLER_MIN_N = 50_000


def _csr_from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Symmetric, deduplicated CSR straight from directed edge endpoints.

    ``(u[i], v[i])`` are simple edges (no self-loops), possibly repeated;
    both directions are emitted, sorted, and deduplicated in vectorized
    numpy — no per-edge Python tuples and no duplicate-scanning
    :class:`Graph` constructor pass.  One sort of the ``row * n + col``
    key orders the pairs exactly as a ``(row, col)`` lexsort would, at a
    fraction of the cost.  The key is the only full-size int64 array:
    it is filled in place, row starts are searched in it rather than
    split off by a ``divmod``, and it becomes the columns in place.
    """
    m = u.shape[0]
    key = np.empty(2 * m, dtype=np.int64)
    for half, a, b in ((key[:m], u, v), (key[m:], v, u)):
        half[...] = a
        half *= n
        half += b
    key.sort()
    if key.shape[0]:
        repeat = key[1:] == key[:-1]
        if repeat.any():
            key = key[np.concatenate([[True], ~repeat])]
        del repeat
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return Graph.from_csr(n, indptr, key, validate=False)


#: Bit budget of the repair loop's composite sort key: ``(key << shift) |
#: index`` must stay a non-negative int64 to sort like a stable argsort.
_COMPOSITE_KEY_BITS = 63


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for non-negative ``key < bound``.

    Packs each element's index below its key and sorts the packed values
    once — equal keys then order by index, which is exactly the stable
    order, and a plain sort of int64 beats a stable argsort severalfold.
    Falls back to the stable argsort when the packed key would not fit in
    :data:`_COMPOSITE_KEY_BITS` bits.
    """
    size = key.shape[0]
    shift = max(1, (size - 1).bit_length())
    if (max(1, bound - 1).bit_length() + shift) > _COMPOSITE_KEY_BITS:
        return np.argsort(key, kind="stable")
    packed = key << np.int64(shift)
    packed |= np.arange(size, dtype=np.int64)
    packed.sort()
    packed &= np.int64((1 << shift) - 1)
    return packed


def _random_regular_direct(n: int, d: int, gen: np.random.Generator) -> Graph:
    """Configuration-model pairing with vectorized repair.

    Pairs the ``n·d`` half-edge stubs uniformly, then repeatedly reshuffles
    the stubs of self-loops and duplicate edges until the graph is simple.
    When the repair pool stops shrinking (bad stubs sharing endpoints), an
    equal number of random good edges is broken up to re-open the mixing.
    For ``d ≪ n`` this converges in a handful of rounds w.h.p.
    """
    # Endpoints in int32 where n allows; only the pair keys need int64.
    ids = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    stubs = np.repeat(np.arange(n, dtype=ids), d)
    gen.shuffle(stubs)
    u, v = stubs[0::2].copy(), stubs[1::2].copy()
    del stubs
    stall, last_bad = 0, u.shape[0] + 1
    for _ in range(1000):
        key = np.minimum(u, v).astype(np.int64)
        key *= n
        key += np.maximum(u, v)
        order = _stable_order(key, n * n)
        sorted_key = key[order]
        del key
        # Mark every repeat of an unordered pair past its first occurrence.
        repeats = np.zeros(sorted_key.shape[0], dtype=bool)
        repeats[order[1:]] = sorted_key[1:] == sorted_key[:-1]
        del order, sorted_key
        bad = u == v
        bad |= repeats
        del repeats
        n_bad = int(bad.sum())
        if n_bad == 0:
            del bad
            return _csr_from_pairs(n, u, v)
        stall = stall + 1 if n_bad >= last_bad else 0
        last_bad = n_bad
        if stall >= 10:
            good = np.flatnonzero(~bad)
            release = gen.choice(
                good, size=min(good.size, n_bad), replace=False
            )
            bad[release] = True
            stall = 0
        pool = np.concatenate([u[bad], v[bad]])
        gen.shuffle(pool)
        keep = ~bad
        u = np.concatenate([u[keep], pool[0::2]])
        v = np.concatenate([v[keep], pool[1::2]])
    raise RuntimeError(
        f"random_regular pairing failed to mix for n={n}, d={d}; "
        "this regime (d close to n) needs the exact sampler — "
        f"use n < {_DIRECT_SAMPLER_MIN_N} for the pairing-with-repair sampler"
    )


def complete_graph(n: int) -> Graph:
    """``K_n`` — the extreme (and degenerate) expander."""
    check_positive_int(n, "n")
    idx = np.arange(n)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    mask = u < v
    return Graph(n, np.column_stack([u[mask], v[mask]]))


def cycle_graph(n: int) -> Graph:
    """``C_n`` — a 2-regular graph with poor expansion (β ≈ 2/|S|)."""
    check_positive_int(n, "n")
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    idx = np.arange(n)
    return Graph(n, np.column_stack([idx, (idx + 1) % n]))


def path_graph(n: int) -> Graph:
    """``P_n`` — a path on ``n`` vertices."""
    check_positive_int(n, "n")
    idx = np.arange(n - 1)
    return Graph(n, np.column_stack([idx, idx + 1]))


def star_graph(n: int) -> Graph:
    """``K_{1,n-1}`` — centre vertex 0; a tree with maximal degree skew."""
    check_positive_int(n, "n")
    if n < 2:
        raise ValueError("star_graph needs n >= 2")
    leaves = np.arange(1, n)
    return Graph(n, np.column_stack([np.zeros(n - 1, dtype=np.int64), leaves]))


def hypercube(dimension: int) -> Graph:
    """The ``d``-dimensional hypercube ``Q_d``: ``2^d`` vertices, degree ``d``.

    A classic bounded-degree expander with vertex expansion ``Θ(1/√d)`` for
    balanced sets (Harper's theorem).
    """
    check_positive_int(dimension, "dimension")
    n = 1 << dimension
    verts = np.arange(n)
    edges = []
    for bit in range(dimension):
        mate = verts ^ (1 << bit)
        keep = verts < mate
        edges.append(np.column_stack([verts[keep], mate[keep]]))
    return Graph(n, np.concatenate(edges))


def _suitable(edges: set[int], potential_edges: dict[int, int], n: int) -> bool:
    """networkx's ``_suitable`` check, with edges held as ``lo*n + hi`` keys.

    Whether some pair of leftover stub nodes can still be joined.  The
    loop is kept as networkx wrote it — including the inner swap that
    rebinds ``s1`` — so attempts fail (and restart) exactly when
    networkx's would.
    """
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 * n + s2 not in edges:
                return True
    return False


def _try_pairing(n: int, d: int, rnd: random.Random) -> np.ndarray | None:
    """One ``_try_creation`` attempt of networkx's sampler, pass by pass.

    Each pass shuffles the stub list with ``rnd`` (the very same
    ``random.shuffle`` calls, so the stream stays in lockstep), pairs
    consecutive stubs as ``(lo, hi)``, and accepts a pair iff it is no
    self-loop, not an edge from an earlier pass, and the first of its key
    in this pass.  Rejected pairs' endpoints become the next pass's
    stubs, in networkx's ``potential_edges`` insertion order (first
    appearance in the ``lo0, hi0, lo1, hi1, …`` stream, a self-loop
    counting twice).  Returns the accepted ``lo*n + hi`` keys, or
    ``None`` when the leftover stubs cannot be joined.
    """
    accepted = np.empty(0, dtype=np.int64)
    edges: set[int] = set()
    stubs = list(range(n)) * d
    while stubs:
        rnd.shuffle(stubs)
        flat = np.array(stubs, dtype=np.int64)
        lo = np.minimum(flat[0::2], flat[1::2])
        hi = np.maximum(flat[0::2], flat[1::2])
        keys = lo * n + hi
        candidate = np.flatnonzero((lo != hi) & ~np.isin(keys, accepted))
        _, first = np.unique(keys[candidate], return_index=True)
        take = candidate[first]
        fresh = keys[take]
        accepted = np.concatenate([accepted, fresh])
        rejected = np.ones(keys.shape[0], dtype=bool)
        rejected[take] = False
        stream = np.column_stack([lo[rejected], hi[rejected]]).ravel()
        nodes, at, counts = np.unique(stream, return_index=True, return_counts=True)
        order = np.argsort(at)
        nodes, counts = nodes[order], counts[order]
        edges.update(fresh.tolist())
        if not _suitable(edges, dict(zip(nodes.tolist(), counts.tolist())), n):
            return None
        stubs = np.repeat(nodes, counts).tolist()
    return accepted


def random_regular(n: int, d: int, rng=None) -> Graph:
    """Random simple ``d``-regular graph.

    Below ``n = 50,000`` this replays networkx's pairing-with-repair
    sampler (Steger–Wormald style; ``nx.random_regular_graph``) in numpy:
    the same ``random.Random(seed)`` shuffle stream and the same accept
    and repair rules (:func:`_try_pairing`), so existing seeds keep
    producing bit-identical graphs without importing networkx.  At
    datacenter scale it switches to a vectorized configuration-model
    pairing (:func:`_random_regular_direct`), which draws different
    graphs.  Both build the CSR directly — no Python edge tuples.
    Random regular graphs are near-Ramanujan w.h.p. (Friedman), so they
    serve as the generic good expander throughout.
    """
    check_positive_int(n, "n")
    check_positive_int(d, "d")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph")
    if d >= n:
        raise ValueError("need d < n")
    gen = as_rng(rng)
    if n >= _DIRECT_SAMPLER_MIN_N:
        return _random_regular_direct(n, d, gen)
    # networkx seeds its sampler with random.Random(int seed).
    rnd = random.Random(int(gen.integers(0, 2**32 - 1)))
    keys = _try_pairing(n, d, rnd)
    while keys is None:
        keys = _try_pairing(n, d, rnd)
    lo, hi = np.divmod(keys, n)
    return _csr_from_pairs(n, lo, hi)


def margulis_expander(side: int) -> Graph:
    """Margulis–Gabber–Galil expander on ``Z_m × Z_m`` (simple-graph version).

    Vertex ``(x, y)`` connects to ``(x±y, y)``, ``(x±y+1, y)``, ``(x, y±x)``
    and ``(x, y±x+1)`` (mod ``m``).  The multigraph is 8-regular; we keep the
    underlying simple graph, which preserves Ω(1) vertex expansion.
    """
    check_positive_int(side, "side")
    if side < 2:
        raise ValueError("margulis_expander needs side >= 2")
    m = side
    xs, ys = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    x = xs.ravel()
    y = ys.ravel()
    vid = x * m + y

    def pack(a, b):
        return (a % m) * m + (b % m)

    targets = [
        pack(x + y, y),
        pack(x - y, y),
        pack(x + y + 1, y),
        pack(x - y - 1, y),
        pack(x, y + x),
        pack(x, y - x),
        pack(x, y + x + 1),
        pack(x, y - x - 1),
    ]
    pairs = np.concatenate(
        [np.column_stack([vid, t]) for t in targets]
    )
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if m * m >= _DIRECT_SAMPLER_MIN_N:
        # The generator set is closed under inverse, so the directed pair
        # list is already symmetric — straight to CSR, skipping the
        # canonical-edge unique pass and the Graph constructor's
        # duplicate scan.
        return _csr_from_pairs(m * m, pairs[:, 0], pairs[:, 1])
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    uniq = np.unique(np.column_stack([lo, hi]), axis=0)
    return Graph(m * m, uniq)


def chordal_cycle_graph(p: int) -> Graph:
    """Chordal cycle on ``Z_p`` (``p`` prime): ``x ~ x±1`` and ``x ~ x⁻¹``.

    A 3-regular explicit expander (Lubotzky); ``0`` is paired with itself
    under inversion so its chord is dropped, making the graph simple.
    """
    check_positive_int(p, "p")
    if p < 3 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError("chordal_cycle_graph requires a prime p >= 3")
    edges = set()
    for xv in range(p):
        edges.add((min(xv, (xv + 1) % p), max(xv, (xv + 1) % p)))
        if xv != 0:
            inv = pow(xv, p - 2, p)
            if inv != xv:
                edges.add((min(xv, inv), max(xv, inv)))
    return Graph(p, sorted(edges))


def erdos_renyi(n: int, p: float, rng=None) -> Graph:
    """``G(n, p)`` random graph."""
    check_positive_int(n, "n")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gen = as_rng(rng)
    idx = np.arange(n)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    mask = u < v
    uu, vv = u[mask], v[mask]
    keep = gen.random(uu.shape[0]) < p
    return Graph(n, np.column_stack([uu[keep], vv[keep]]))


def random_bipartite_regular(
    n_left: int, n_right: int, left_degree: int, rng=None
) -> BipartiteGraph:
    """Random bipartite graph, every left vertex of degree ``left_degree``.

    Each left vertex picks ``left_degree`` distinct right neighbours uniformly
    at random — the natural random instance for spokesman-election workloads.
    """
    check_positive_int(n_left, "n_left")
    check_positive_int(n_right, "n_right")
    check_positive_int(left_degree, "left_degree")
    if left_degree > n_right:
        raise ValueError("left_degree cannot exceed n_right")
    gen = as_rng(rng)
    edges = np.empty((n_left * left_degree, 2), dtype=np.int64)
    for u in range(n_left):
        nbrs = gen.choice(n_right, size=left_degree, replace=False)
        edges[u * left_degree : (u + 1) * left_degree, 0] = u
        edges[u * left_degree : (u + 1) * left_degree, 1] = nbrs
    return BipartiteGraph(n_left, n_right, edges)


def random_bipartite(n_left: int, n_right: int, p: float, rng=None) -> BipartiteGraph:
    """Bipartite ``G(n_left, n_right, p)``: each edge present independently.

    Right vertices that end up isolated are kept (callers that need the
    paper's no-isolated-vertex assumption should restrict the right side).
    """
    check_positive_int(n_left, "n_left")
    check_positive_int(n_right, "n_right")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gen = as_rng(rng)
    mat = gen.random((n_right, n_left)) < p
    return BipartiteGraph.from_biadjacency(mat.astype(np.int8))
