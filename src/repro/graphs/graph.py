"""General undirected graph wrapper with the paper's neighbourhood operators.

A thin, immutable adjacency wrapper exposing exactly the operators
Section 2.1 defines — ``Γ(S)``, ``Γ⁻(S)``, ``Γ¹(S)``, ``Γ_S(S')``,
``Γ¹_S(S')`` — plus extraction of the boundary bipartite graph
``G_S = (S, Γ⁻(S))`` that Section 4.1 reduces every expansion question to.

The canonical storage is a plain-numpy CSR (:class:`CSRAdjacency`) with
indptr/indices in the narrowest safe uint dtype.  One slot walk over its
gather plan (:meth:`CSRAdjacency.fold_words`) is every neighbour fold of
the radio engines: the count and value sums, and the bitset engine's OR
and exactly-one folds.  Its push counterpart
(:meth:`CSRAdjacency.push_words`) runs the same folds from a few listed
rows along their edges.  The ``scipy.sparse`` matrix behind the
neighbourhood operators below is built lazily on first use; the radio
engines never materialize it.

All neighbourhood operators are one sparse mat-vec plus vectorized masking.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro._util.dtypes import count_dtype_for_degree
from repro._util.dtypes import narrow_uint as _narrow_uint
from repro.graphs.bipartite import BipartiteGraph, BlockBipartite, _gather_rows

__all__ = ["CSRAdjacency", "Graph"]

#: Words per row block of the slot walk (:meth:`CSRAdjacency.fold_words`):
#: a block's accumulators and gather buffers stay cache-resident across
#: the slot loop, so only the gathers stream from memory — ~30% off a
#: 16-slot exactly-one fold at ``n = 10^5``.
_SLOT_BLOCK_WORDS = 16384


class CSRAdjacency:
    """Plain-numpy CSR view of a symmetric adjacency (no scipy).

    ``indptr``/``indices`` are stored in the narrowest safe uint dtype.
    Every array (``indptr``, ``indices``, ``degrees`` and the cached
    gather plan) is read-only: an in-place write raises ``ValueError``.
    ``gather_plan`` precomputes (and caches) the degree-slot schedule
    that :meth:`fold_words` walks: for a d-regular graph the slot-major
    ``(d, n)`` transpose of the ``indices`` reshape (each slot's gather
    indices contiguous); in general a degree-descending stable ordering
    with int64 row starts, so slot ``k`` touches exactly the vertices
    whose degree exceeds ``k``.  ``count_neighbors`` and the bitset
    folds are that walk with their own per-slot update;
    :meth:`push_words` runs the same updates from listed rows.
    """

    __slots__ = (
        "n", "indptr", "indices", "degrees", "max_degree", "count_dtype",
        "_plan", "_take",
    )

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = int(n)
        self.indptr = _frozen(
            _narrow_uint(
                np.asarray(indptr), int(indptr[-1]) if len(indptr) else 0
            )
        )
        self.indices = _frozen(_narrow_uint(np.asarray(indices), self.n - 1))
        self.degrees = _frozen(np.diff(self.indptr.astype(np.int64)))
        self.max_degree = int(self.degrees.max()) if self.n else 0
        #: The dtype of :meth:`count_neighbors` results: the narrowest
        #: signed integer holding the max degree.
        self.count_dtype = count_dtype_for_degree(self.max_degree)
        self._plan = None
        self._take = None

    @property
    def nnz(self) -> int:
        """Number of stored (directed) entries — twice the edge count."""
        return int(self.indices.shape[0])

    def row(self, v: int) -> np.ndarray:
        """Sorted neighbours of ``v`` (int64)."""
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        return self.indices[lo:hi].astype(np.int64)

    def neighbor_lists(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour lists of ``rows`` back to back: ``(pos, nbrs)``
        with ``nbrs[i]`` (in the stored dtype) a neighbour of
        ``rows[pos[i]]``."""
        return _gather_rows(self.indptr, self.indices, rows)

    def gather_plan(self):
        """The cached degree-slot gather schedule.

        Returns either ``("regular", slots)`` with ``slots`` the
        slot-major ``(d, n)`` contiguous transpose of the ``(n, d)``
        ``indices`` reshape (valid because rows are sorted and equal
        length; slot-major so each slot's gather indices are one
        contiguous row), or ``("general", order, starts, slot_counts)``
        where ``order`` lists vertices by descending degree (stable),
        ``starts = indptr[order]`` as int64, and ``slot_counts[k]`` is the
        number of vertices with degree > ``k`` — the prefix of ``order``
        participating in slot ``k``.
        """
        if self._plan is None:
            n = self.n
            degrees = self.degrees
            max_d = self.max_degree
            if n and degrees.min() == max_d:
                # intp (not the narrow stored dtype): fancy indexing casts
                # non-intp index arrays on every gather, so the hot kernel
                # would pay the conversion once per slot per round.
                self._take = np.ascontiguousarray(
                    self.indices.reshape(n, max_d).T
                ).astype(np.intp)
                self._plan = ("regular", _frozen(self._take))
            else:
                order = np.argsort(-degrees, kind="stable")
                starts = self.indptr.astype(np.int64)[order]
                counts = np.bincount(degrees, minlength=max_d + 1)
                # slot_counts[k] = #vertices with degree > k, k in 0..max_d-1.
                slot_counts = n - np.cumsum(counts)[:max_d]
                self._plan = (
                    "general",
                    _frozen(order),
                    _frozen(starts),
                    _frozen(slot_counts),
                )
        return self._plan

    def count_neighbors(
        self, x: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-vertex sums of neighbour entries of ``x``: ``(A @ x)[rows]``.

        ``x`` is an ``(n,)`` vector or ``(n, T)`` matrix (column ``t`` one
        trial); the result has ``x``'s shape, restricted to ``rows`` (all
        rows when ``None``).  A bool ``x`` gives neighbour counts in
        :attr:`count_dtype`; an int64 ``x`` gives int64 sums, which wrap
        exactly as int64 arithmetic does (each cell is summed as a uint64
        word).

        Each row of a bool ``x`` is cast into one lane of
        :attr:`count_dtype` width per column and the lanes are viewed as
        unsigned words, so a single integer add sums every lane of a word
        at once: a count never exceeds the max degree, which the lane
        holds, so no lane carries into the next.  Bool rows already are
        int8 lanes, so at the common width (T a multiple of 8, degree <
        128) ``x`` is gathered in place, 8 trials to a uint64.  The sum
        is the add fold of :meth:`fold_words`.
        """
        x = np.asarray(x)
        if x.dtype not in (bool, np.int64) or x.ndim not in (1, 2) or (
            x.shape[0] != self.n
        ):
            raise ValueError(
                "x must be a bool or int64 (n,) vector or (n, T) matrix "
                f"with n = {self.n}"
            )
        mat = x[:, None] if x.ndim == 1 else x
        trials = mat.shape[1]
        if x.dtype == np.int64:
            dtype = x.dtype
            src = np.ascontiguousarray(mat).view(np.uint64)
        else:
            dtype = np.dtype(self.count_dtype)
            lanes, word = _lane_layout(trials, dtype.itemsize)
            if lanes == trials and dtype.itemsize == 1 and mat.flags.c_contiguous:
                src = mat.view(word)
            else:
                src = np.zeros((self.n, lanes), dtype=dtype)
                src[:, :trials] = mat
                src = src.view(word)
        (acc,) = self.fold_words(src, _add_slot, rows=rows)
        counts = acc.view(dtype)[:, :trials]
        return counts[:, 0] if x.ndim == 1 else counts

    def fold_words(
        self,
        words: np.ndarray,
        update,
        planes: int = 1,
        rows: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Fold each vertex's neighbour rows of ``words`` into ``planes``
        accumulators: the one slot walk behind every neighbour kernel.

        ``words`` is an ``(n, W)`` unsigned word matrix.  Slot ``k``
        gathers the ``k``-th neighbour's row of every vertex.  Slot 0 is
        gathered straight into the first accumulator (the others start at
        zero); each later slot calls ``update(k, accs, gathered, spare)``,
        which folds ``gathered`` into the ``accs`` in place (``spare`` is
        a scratch buffer of ``gathered``'s shape).  Returns the list of
        ``(len(rows), W)`` accumulators (all ``n`` rows for ``None``).

        The regular plan walks rows in blocks of ``_SLOT_BLOCK_WORDS``
        words, every slot inside a block, with ``np.take(out=,
        mode="clip")`` gathers: ``out=`` skips fancy indexing's allocation
        and bounds branch, and plan indices are always valid, so clip
        never engages.  At ``rows``, each block takes its slot columns at
        those rows.  Single-word rows gather from the flat word column,
        numpy's 1-D fast path (~2× the row gathers).  The general plan
        walks the degree-descending prefixes over all rows and restricts
        the result to ``rows``.
        """
        n, w = words.shape
        if n != self.n:
            raise ValueError(f"word matrix has {n} rows for an {self.n}-vertex graph")
        flat = w == 1
        src = np.ascontiguousarray(words[:, 0] if flat else words)
        plan = self.gather_plan()
        regular = plan[0] == "regular"
        size = n if rows is None or not regular else len(rows)
        shape = (size,) if flat else (size, w)
        accs = [np.zeros(shape, dtype=src.dtype) for _ in range(planes)]
        if not regular:
            _, order, starts, slot_counts = plan
            for k, m in enumerate(slot_counts):
                at = order[:m]
                got = src[self.indices[starts[:m] + np.int64(k)]]
                if k == 0:
                    accs[0][at] = got
                    continue
                block = [a[at] for a in accs]
                update(k, block, got, np.empty_like(got))
                for a, b in zip(accs, block):
                    a[at] = b
            if rows is not None:
                accs = [a[rows] for a in accs]
        elif size and self.max_degree:
            # The writeable array the frozen plan views: np.take copies a
            # read-only index array on every call.  Read here, never written.
            slots = self._take
            axis = None if flat else 0
            step = max(1, _SLOT_BLOCK_WORDS // max(w, 1))
            buf = np.empty_like(accs[0][:step])
            spare = np.empty_like(buf)
            for s in range(0, size, step):
                e = min(s + step, size)
                block = [a[s:e] for a in accs]
                got, tmp = buf[: e - s], spare[: e - s]
                cols = slots[:, s:e] if rows is None else slots.take(rows[s:e], axis=1)
                src.take(cols[0], axis, block[0], "clip")
                for k in range(1, slots.shape[0]):
                    src.take(cols[k], axis, got, "clip")
                    update(k, block, got, tmp)
        return [a[:, None] if flat else a for a in accs]

    def push_words(
        self,
        words: np.ndarray,
        update,
        rows: np.ndarray,
        planes: int = 1,
    ) -> list[np.ndarray]:
        """Fold the listed rows of ``words`` into their neighbours'
        ``planes`` accumulators: the push counterpart of
        :meth:`fold_words`, with the same ``update`` and the same result.

        ``rows`` must list every nonzero row of ``words`` once, and ``update``
        must be a fold that commutes and that a zero row leaves unchanged
        (the add, OR and once/twice folds all are): then pushing the
        listed rows along their edges is the whole fold, since adjacency
        is symmetric.  The walk touches only those rows' edges, so it wins
        when they are few.

        Each ``(target, value)`` edge pair goes into a layer in which its
        target occurs once: every remaining pair scatters its index into
        its target's ``owner`` cell, a pair whose index survived is its
        target's value this layer, and the rest wait for the next layer.
        Layer 0 is written straight into the first accumulator; layer
        ``k`` calls ``update(k, accs, values, spare)`` on the accumulator
        rows of its targets, which have folded exactly ``k`` values before
        it — the order :meth:`fold_words` presents slots in.  A layer
        works on all its remaining pairs, and a losing pair carries its
        target's winning value, so every write to a target agrees.  There
        are as many layers as the most listed rows sharing one neighbour
        (the pull runs ``max_degree`` slots).
        """
        n, w = words.shape
        if n != self.n:
            raise ValueError(f"word matrix has {n} rows for an {self.n}-vertex graph")
        flat = w == 1
        src = np.ascontiguousarray(words[:, 0] if flat else words)
        shape = (n,) if flat else (n, w)
        accs = [np.zeros(shape, dtype=src.dtype) for _ in range(planes)]
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and self.max_degree:
            if self.gather_plan()[0] == "regular":
                # Equal-length sorted rows: one row gather, ~8× the
                # general concatenation.
                d = self.max_degree
                targets = self.indices.reshape(n, d).take(rows, axis=0).ravel()
                degrees = d
            else:
                _, targets = self.neighbor_lists(rows)
                degrees = self.degrees[rows]
            targets = targets.astype(np.intp)
            values = np.repeat(src.take(rows, axis=0), degrees, axis=0)
            owner = np.empty(n, dtype=np.intp)
            ids = np.arange(targets.size)
            k = 0
            while targets.size:
                here = ids[: targets.size]
                owner[targets] = here
                won = owner[targets]
                got = values.take(won, axis=0)
                if k == 0:
                    _put_rows(accs[0], targets, got)
                else:
                    block = [a.take(targets, axis=0) for a in accs]
                    update(k, block, got, np.empty_like(got))
                    for a, b in zip(accs, block):
                        _put_rows(a, targets, b)
                lost = np.flatnonzero(won != here)
                targets = targets[lost]
                values = values.take(lost, axis=0)
                k += 1
        return [a[:, None] if flat else a for a in accs]

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays and, once built, the gather plan."""
        arrays = [self.indptr, self.indices, self.degrees]
        if self._plan is not None:
            arrays.extend(self._plan[1:])
        return sum(int(a.nbytes) for a in arrays)


def _lane_layout(trials: int, itemsize: int) -> tuple[int, np.dtype]:
    """``(lanes, word)`` for summing ``trials`` count lanes of ``itemsize``
    bytes per row: the padded lane count and the unsigned word the row is
    viewed as.

    A row of at most 8 bytes is one word of the next power-of-two size
    (1, 2, 4 or 8 bytes).  A wider row is padded to whole uint64 words,
    and 3 words to 4: ``np.take`` copies 8-, 16- and 32-byte items on a
    fast path and anything else by ``memmove`` (measured at ``(4096, 8)``,
    3 words cost 2× 4).
    """
    nbytes = max(1, trials * itemsize)
    if nbytes <= 8:
        size = 1 << (nbytes - 1).bit_length()
        return size // itemsize, np.dtype(f"u{size}")
    words = -(-nbytes // 8)
    if words == 3:
        words = 4
    return words * 8 // itemsize, np.dtype(np.uint64)


def _put_rows(acc: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """``acc[at] = values`` for 1-D or C-contiguous ``(n, W)`` arrays: a
    multi-word row is scattered as one opaque item (2-D fancy assignment
    costs ~4× the same bytes as one void item per row)."""
    if acc.ndim == 2:
        row = np.dtype((np.void, acc.shape[1] * acc.itemsize))
        acc, values = acc.view(row)[:, 0], np.ascontiguousarray(values).view(row)[:, 0]
    acc[at] = values


def _add_slot(k, accs, got, spare) -> None:
    """The add fold of :meth:`CSRAdjacency.fold_words` (unsigned words
    wrap, so int64 cells sum exactly as int64)."""
    accs[0] += got


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``.

    A view, not the array itself: ``narrow_uint`` passes an already-narrow
    input through uncopied, and the caller's own array must stay writeable.
    """
    view = array.view()
    view.flags.writeable = False
    return view


def _build_csr(n: int, canon: np.ndarray) -> CSRAdjacency:
    """Symmetrize canonical (u < v) edges into a sorted-row CSR."""
    rows = np.concatenate([canon[:, 0], canon[:, 1]])
    cols = np.concatenate([canon[:, 1], canon[:, 0]])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=n) if n else np.zeros(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(n, indptr, cols[order])


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` (no self-loops).

    Immutable — the CSR arrays are read-only (:class:`CSRAdjacency`);
    constructed from an edge list, a prebuilt CSR (:meth:`from_csr`), a
    networkx graph, or a symmetric sparse adjacency matrix.
    """

    __slots__ = ("n", "_csr", "_adj", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = int(n)
        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be an iterable of (u, v) pairs")
        if edge_array.size:
            if edge_array.min() < 0 or edge_array.max() >= self.n:
                raise ValueError("vertex index out of range")
            if (edge_array[:, 0] == edge_array[:, 1]).any():
                raise ValueError("self-loops are not allowed")
        u = np.minimum(edge_array[:, 0], edge_array[:, 1])
        v = np.maximum(edge_array[:, 0], edge_array[:, 1])
        canon = np.unique(np.column_stack([u, v]), axis=0)
        if canon.shape[0] != edge_array.shape[0]:
            raise ValueError("duplicate edges are not allowed")
        self._csr = _build_csr(self.n, canon)
        self._degrees = self._csr.degrees
        self._adj = None

    # ------------------------------------------------------------------
    # Constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> "Graph":
        """Build directly from symmetric CSR arrays (rows must be sorted).

        The large-n constructor: no edge-list materialization, no scipy.
        ``validate`` checks structural invariants (monotone indptr, index
        range, strictly increasing rows — hence simple and loop-free —
        and symmetry); pass ``False`` only for arrays a trusted builder
        just produced.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        n = int(n)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indptr.shape[0] != n + 1:
            raise ValueError(f"indptr must have shape ({n + 1},)")
        if indices.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if validate:
            ptr = indptr.astype(np.int64)
            idx = indices.astype(np.int64)
            if ptr[0] != 0 or ptr[-1] != idx.shape[0]:
                raise ValueError("indptr must start at 0 and end at len(indices)")
            if (np.diff(ptr) < 0).any():
                raise ValueError("indptr must be non-decreasing")
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError("vertex index out of range")
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
            if (rows == idx).any():
                raise ValueError("self-loops are not allowed")
            if idx.size > 1:
                same_row = rows[1:] == rows[:-1]
                if (same_row & (np.diff(idx) <= 0)).any():
                    raise ValueError(
                        "row neighbour lists must be strictly increasing"
                    )
            if not np.array_equal(
                np.sort(rows * n + idx), np.sort(idx * n + rows)
            ):
                raise ValueError("adjacency must be symmetric")
        graph = cls.__new__(cls)
        graph.n = n
        graph._csr = CSRAdjacency(n, indptr, indices)
        graph._degrees = graph._csr.degrees
        graph._adj = None
        return graph

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a networkx graph; nodes are relabelled ``0..n-1`` in
        sorted-by-insertion (``list(g.nodes)``) order."""
        nodes = list(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[a], index[b]) for a, b in g.edges() if a != b]
        return cls(len(nodes), edges)

    @classmethod
    def from_adjacency(cls, matrix) -> "Graph":
        """Build from a symmetric 0/1 adjacency matrix."""
        import scipy.sparse as sp

        coo = sp.coo_matrix(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise ValueError("adjacency matrix must be square")
        mask = (coo.data != 0) & (coo.row < coo.col)
        edges = np.column_stack([coo.row[mask], coo.col[mask]])
        return cls(coo.shape[0], edges)

    def to_networkx(self):
        """Convert to :class:`networkx.Graph` on integer nodes ``0..n-1``."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from((int(a), int(b)) for a, b in self.edges())
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRAdjacency:
        """The plain-numpy CSR adjacency (always materialized, scipy-free)."""
        return self._csr

    @property
    def adjacency(self):
        """The ``n × n`` symmetric 0/1 adjacency matrix (scipy CSR, int32).

        Built lazily on first access and cached; the CSR-only paths (the
        bitset engine, neighbour iteration) never trigger it.
        """
        if self._adj is None:
            import scipy.sparse as sp

            self._adj = sp.csr_matrix(
                (
                    np.ones(self._csr.nnz, dtype=np.int32),
                    self._csr.indices.astype(np.int64),
                    self._csr.indptr.astype(np.int64),
                ),
                shape=(self.n, self.n),
            )
        return self._adj

    @property
    def nbytes(self) -> int:
        """Bytes held by this graph's arrays: the CSR with its gather plan
        and, once built, the cached scipy adjacency."""
        total = self._csr.nbytes
        if self._adj is not None:
            adj = self._adj
            total += adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
        return total

    @property
    def n_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._csr.nnz // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree vector ``deg(v)``."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """``Δ(G)`` (0 for the empty graph)."""
        return int(self._degrees.max()) if self.n else 0

    @property
    def avg_degree(self) -> float:
        """Average degree ``2|E|/n``."""
        return 2 * self.n_edges / self.n if self.n else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours of ``v``."""
        return self._csr.row(v)

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v``."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self._degrees)
        cols = self._csr.indices.astype(np.int64)
        mask = rows < cols
        return np.column_stack([rows[mask], cols[mask]])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self._csr.row(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def _as_mask(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        subset = np.asarray(subset)
        if subset.dtype == bool:
            if subset.shape != (self.n,):
                raise ValueError(f"mask length {subset.shape} != n {self.n}")
            return subset
        mask = np.zeros(self.n, dtype=bool)
        if subset.size:
            if subset.min() < 0 or subset.max() >= self.n:
                raise ValueError("vertex index out of range")
            mask[subset] = True
        return mask

    # ------------------------------------------------------------------
    # Paper neighbourhood operators (Section 2.1)
    # ------------------------------------------------------------------
    def neighbor_counts(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """For each vertex ``v``, ``|Γ(v) ∩ S|`` (the radio collision count)."""
        mask = self._as_mask(subset)
        return self.adjacency @ mask.astype(np.int32)

    def gamma(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """``Γ(S)``: mask of vertices with at least one neighbour in ``S``
        (may intersect ``S`` itself, as in the paper)."""
        return self.neighbor_counts(subset) >= 1

    def gamma_minus(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """``Γ⁻(S) = Γ(S) \\ S``: the external neighbourhood."""
        mask = self._as_mask(subset)
        return self.gamma(mask) & ~mask

    def gamma_one(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """``Γ¹(S)``: vertices outside ``S`` with exactly one neighbour in ``S``."""
        mask = self._as_mask(subset)
        return (self.neighbor_counts(mask) == 1) & ~mask

    def gamma_s_excluding(
        self,
        s_subset: np.ndarray | Sequence[int],
        s_prime: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        """``Γ_S(S')``: vertices outside ``S`` with ≥ 1 neighbour in ``S'``.

        ``s_prime`` must be contained in ``s_subset``.
        """
        s_mask = self._as_mask(s_subset)
        sp_mask = self._as_mask(s_prime)
        if (sp_mask & ~s_mask).any():
            raise ValueError("S' must be a subset of S")
        return self.gamma(sp_mask) & ~s_mask

    def gamma_one_s_excluding(
        self,
        s_subset: np.ndarray | Sequence[int],
        s_prime: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        """``Γ¹_S(S')``: vertices outside ``S`` with exactly one neighbour in
        ``S'`` — the wireless-expansion payoff set."""
        s_mask = self._as_mask(s_subset)
        sp_mask = self._as_mask(s_prime)
        if (sp_mask & ~s_mask).any():
            raise ValueError("S' must be a subset of S")
        return (self.neighbor_counts(sp_mask) == 1) & ~s_mask

    # ------------------------------------------------------------------
    # Section 4.1 reduction
    # ------------------------------------------------------------------
    def boundary_bipartite(
        self, subset: np.ndarray | Sequence[int]
    ) -> tuple[BipartiteGraph, np.ndarray, np.ndarray]:
        """Extract ``G_S = (S, Γ⁻(S), E_S)`` as a :class:`BipartiteGraph`.

        Returns ``(gs, left_vertices, right_vertices)`` where
        ``left_vertices[i]`` / ``right_vertices[j]`` give the original vertex
        ids of the bipartite sides (both in increasing order).  Edges internal
        to ``S`` or to ``N`` are dropped, which per Section 4.1 "has no effect
        whatsoever on the expansion bounds".  The one-set call of
        :meth:`boundary_blocks`.
        """
        blocks, left_vertices, right_vertices = self.boundary_blocks(
            [np.flatnonzero(self._as_mask(subset))]
        )
        return blocks.graph, left_vertices, right_vertices

    def check_vertex_sets(
        self, subsets: Sequence[np.ndarray], size_cap: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sizes of ``subsets`` and the indices of the scored ones.

        A subset is scored if its size is in ``1..size_cap`` (any
        non-empty one for ``None``); every expansion scoring arm skips the
        rest.  Raises ``ValueError`` if a scored subset repeats a vertex or
        names one outside ``[0, n)``; the message names the first such
        subset by its index in ``subsets`` and lists its vertices.
        """
        sizes = np.array([np.asarray(s).size for s in subsets], dtype=np.int64)
        cap = sizes.max(initial=0) if size_cap is None else size_cap
        scored = np.flatnonzero((sizes >= 1) & (sizes <= cap))
        if not scored.size:
            return sizes, scored
        owner = np.repeat(scored, sizes[scored])
        ids = np.concatenate(
            [np.asarray(subsets[i]).ravel() for i in scored]
        ).astype(np.int64)
        outside = (ids < 0) | (ids >= self.n)
        # Sorted keys owner·n + id meet their repeats next door.
        span = max(self.n, 1)
        key = np.sort(owner * span + np.where(outside, 0, ids))
        repeats = key[1:][key[1:] == key[:-1]] // span
        bad = np.concatenate([owner[outside], repeats])
        if bad.size:
            first = int(bad.min())
            raise ValueError(
                f"candidate {first} ({np.asarray(subsets[first]).tolist()}) is "
                f"not a set of distinct vertices in [0, {self.n})"
            )
        return sizes, scored

    def boundary_blocks(
        self, subsets: Sequence[np.ndarray]
    ) -> tuple[BlockBipartite, np.ndarray, np.ndarray]:
        """Every ``G_S`` of ``subsets`` as the blocks of one stacked graph.

        Each subset is a sequence of distinct vertex ids (checked by
        :meth:`check_vertex_sets`).  Returns ``(blocks, left_vertices, right_vertices)``:
        block ``c`` of ``blocks`` is ``boundary_bipartite(subsets[c])``,
        and the two arrays map the stacked sides back to vertex ids.  One
        CSR gather serves all subsets.
        """
        sizes = np.array([len(s) for s in subsets], dtype=np.int64)
        count = sizes.size
        block = np.repeat(np.arange(count), sizes)
        members = np.concatenate(
            [np.asarray(s, dtype=np.int64).ravel() for s in subsets]
            + [np.zeros(0, dtype=np.int64)]
        )
        members = members[np.lexsort((members, block))]
        # Keys block·n + vertex sort like (block, vertex).
        key = block * self.n + members
        left, nbr = self._csr.neighbor_lists(members)
        nkey = block[left] * self.n + nbr
        at = np.searchsorted(key, nkey)
        inside = key[np.minimum(at, key.size - 1)] == nkey
        right_keys, right = np.unique(nkey[~inside], return_inverse=True)
        right_sizes = np.bincount(right_keys // self.n, minlength=count)
        blocks = BlockBipartite(
            BipartiteGraph(
                members.size,
                right_keys.size,
                np.column_stack([left[~inside], right.ravel()]),
            ),
            np.concatenate([[0], np.cumsum(sizes)]),
            np.concatenate([[0], np.cumsum(right_sizes)]),
        )
        return blocks, members, right_keys % self.n

    # ------------------------------------------------------------------
    # Connectivity / distance
    # ------------------------------------------------------------------
    def bfs_layers(self, source: int) -> np.ndarray:
        """BFS distance from ``source`` (``-1`` for unreachable), vectorized
        frontier expansion."""
        dist = np.full(self.n, -1, dtype=np.int64)
        frontier = np.zeros(self.n, dtype=bool)
        frontier[source] = True
        dist[source] = 0
        level = 0
        visited = frontier.copy()
        adj = self.adjacency
        while frontier.any():
            level += 1
            nxt = (adj @ frontier.astype(np.int32)) >= 1
            nxt &= ~visited
            dist[nxt] = level
            visited |= nxt
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """True iff the graph is connected (the empty graph counts as connected)."""
        if self.n == 0:
            return True
        return bool((self.bfs_layers(0) >= 0).all())

    def diameter(self) -> int:
        """Exact diameter via all-sources BFS.

        Raises
        ------
        ValueError
            If the graph is disconnected or empty.
        """
        if self.n == 0:
            raise ValueError("diameter of an empty graph is undefined")
        best = 0
        for source in range(self.n):
            dist = self.bfs_layers(source)
            if (dist < 0).any():
                raise ValueError("diameter of a disconnected graph is undefined")
            best = max(best, int(dist.max()))
        return best

    def eccentricity(self, source: int) -> int:
        """Maximum BFS distance from ``source`` (graph must be connected)."""
        dist = self.bfs_layers(source)
        if (dist < 0).any():
            raise ValueError("eccentricity undefined on disconnected graphs")
        return int(dist.max())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Through from_csr, so an unpickled copy is frozen like the original
        # (the gather plan and scipy adjacency are lazy caches, rebuilt on
        # demand).
        return (
            Graph.from_csr,
            (self.n, self._csr.indptr, self._csr.indices, False),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self.edges(), other.edges()
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.n, self.n_edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, n_edges={self.n_edges})"
