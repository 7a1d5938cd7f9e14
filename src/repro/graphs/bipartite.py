"""Bipartite graph kernel: the workhorse data structure of the reproduction.

Section 4.1 of the paper reduces every expansion question about a vertex set
``S`` in a graph ``G`` to a bipartite graph ``G_S = (S, N, E_S)`` whose left
side is ``S`` and whose right side is the external neighbourhood
``N = Γ⁻(S)`` (edges internal to ``S`` or ``N`` are irrelevant for the
expansion quantities).  All spokesman-election algorithms, the core-graph
constructions of Section 4.3, and the exact wireless-expansion computation
operate on this structure.

Performance notes (per the hpc-parallel guides): adjacency is stored as CSR
index arrays in *both* directions so that each side's neighbourhood scans are
contiguous; unique-cover counting — the single hottest operation in the
library — is a ``scipy.sparse`` mat-vec (``counts = B @ x``) followed by a
vectorized comparison, never a Python loop over vertices.  ``scipy.sparse``
is imported where a matrix is first built, so paths that only gather over
the CSR arrays (the packed broadcast engine) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro._util.dtypes import narrow_uint

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["BipartiteGraph", "BlockBipartite"]

#: Columns per sparse product in :meth:`BlockBipartite.unique_counts`: bounds
#: its ``(n_right, columns)`` cover counts (the all-scales sampler scores
#: ~48 draws per block).
_COUNT_COLUMNS = 16


def _indptr(n_rows: int, rows: np.ndarray) -> np.ndarray:
    """CSR row pointers of entries whose rows, in ``[0, n_rows)``, are
    ``rows`` (in any order)."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


def _csr_from_edges(
    n_rows: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) CSR arrays with sorted rows; raises
    ``ValueError`` on a duplicate edge.  Edges already strictly increasing
    in ``(row, col)`` order (as :meth:`Graph.boundary_blocks` hands them
    over) skip the sort: that order has no duplicates."""
    if rows.size > 1:
        step = rows[1:] - rows[:-1]
        ordered = (step > 0) | ((step == 0) & (cols[1:] > cols[:-1]))
        if not ordered.all():
            order = np.lexsort((cols, rows))
            rows = rows[order]
            cols = cols[order]
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                i = int(np.flatnonzero(dup)[0])
                raise ValueError(
                    f"duplicate edge ({int(rows[i + 1])}, {int(cols[i + 1])})"
                )
    # A copy: sorted input would otherwise alias the caller's edge array.
    return _indptr(n_rows, rows), np.array(cols, dtype=np.int64)


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows: returns ``(pos, entries)`` where ``entries``
    holds the rows ``rows`` back to back and ``pos[i]`` is the position in
    ``rows`` that ``entries[i]`` came from."""
    rows = np.asarray(rows, dtype=np.int64)
    lo = indptr[rows].astype(np.int64, copy=False)
    lengths = indptr[rows + 1] - lo
    pos = np.arange(rows.size).repeat(lengths)
    # Entry i of the output sits at i − (entries before its row) + lo.
    shift = lo - (lengths.cumsum() - lengths)
    return pos, indices[np.arange(pos.size) + shift[pos]]


class BipartiteGraph:
    """An undirected bipartite graph with sides ``L`` (left) and ``R`` (right).

    In paper terms the left side plays the role of ``S`` and the right side
    the role of the neighbourhood ``N``.  Vertices are integers
    ``0..n_left-1`` and ``0..n_right-1`` on their respective sides.

    Instances are immutable; all mutating-style operations return new graphs.
    """

    __slots__ = (
        "n_left",
        "n_right",
        "_left_indptr",
        "_left_indices",
        "_right_indptr",
        "_right_indices",
        "_biadjacency",
        "_left_matrix",
    )

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
    ) -> None:
        """Build the graph from an iterable of ``(left, right)`` edges.

        Raises
        ------
        ValueError
            On out-of-range endpoints or duplicate edges.
        """
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be non-negative")
        self.n_left = int(n_left)
        self.n_right = int(n_right)

        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be an iterable of (left, right) pairs")
        lefts = edge_array[:, 0]
        rights = edge_array[:, 1]
        if edge_array.size:
            if lefts.min(initial=0) < 0 or (
                self.n_left and lefts.max(initial=-1) >= self.n_left
            ):
                raise ValueError("left endpoint out of range")
            if rights.min(initial=0) < 0 or (
                self.n_right and rights.max(initial=-1) >= self.n_right
            ):
                raise ValueError("right endpoint out of range")
            if self.n_left == 0 or self.n_right == 0:
                raise ValueError("edges given for an empty side")

        self._left_indptr, self._left_indices = _csr_from_edges(
            self.n_left, lefts, rights
        )
        # The left CSR lists the edges in (left, right) order, so a stable
        # sort by right gives the right CSR's (right, left) order (a radix
        # sort once the keys narrow to 16 bits).
        keys = narrow_uint(self._left_indices, self.n_right - 1)
        order = np.argsort(keys, kind="stable")
        self._right_indptr = _indptr(self.n_right, self._left_indices)
        self._right_indices = np.repeat(
            np.arange(self.n_left, dtype=np.int64), self.left_degrees
        )[order]
        self._biadjacency: sp.csr_matrix | None = None
        self._left_matrix: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_neighbor_lists(
        cls, neighbor_lists: Sequence[Sequence[int]], n_right: int | None = None
    ) -> "BipartiteGraph":
        """Build from per-left-vertex neighbour lists.

        ``n_right`` defaults to ``1 + max`` mentioned right vertex.
        """
        edges = [
            (i, j) for i, nbrs in enumerate(neighbor_lists) for j in nbrs
        ]
        if n_right is None:
            n_right = 1 + max((j for _, j in edges), default=-1)
        return cls(len(neighbor_lists), n_right, edges)

    @classmethod
    def from_biadjacency(cls, matrix: np.ndarray | sp.spmatrix) -> "BipartiteGraph":
        """Build from a dense or sparse 0/1 biadjacency matrix.

        Rows index the *right* side, columns the *left* side, matching the
        orientation used internally for unique-cover counting.
        """
        import scipy.sparse as sp

        coo = sp.coo_matrix(matrix)
        mask = coo.data != 0
        edges = np.column_stack([coo.col[mask], coo.row[mask]])
        return cls(coo.shape[1], coo.shape[0], edges)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return int(self._left_indices.shape[0])

    @property
    def left_degrees(self) -> np.ndarray:
        """Degree of each left vertex (``deg(u, N)`` in paper notation)."""
        return np.diff(self._left_indptr)

    @property
    def right_degrees(self) -> np.ndarray:
        """Degree of each right vertex (``deg(v, S)`` in paper notation)."""
        return np.diff(self._right_indptr)

    @property
    def max_left_degree(self) -> int:
        """``Δ_S``: maximum degree on the left side (0 for empty side)."""
        deg = self.left_degrees
        return int(deg.max()) if deg.size else 0

    @property
    def max_right_degree(self) -> int:
        """``Δ_N``: maximum degree on the right side (0 for empty side)."""
        deg = self.right_degrees
        return int(deg.max()) if deg.size else 0

    @property
    def avg_left_degree(self) -> float:
        """``δ_S``: average degree of the left side."""
        if self.n_left == 0:
            return 0.0
        return self.n_edges / self.n_left

    @property
    def avg_right_degree(self) -> float:
        """``δ_N``: average degree of the right side."""
        if self.n_right == 0:
            return 0.0
        return self.n_edges / self.n_right

    def neighbors_of_left(self, u: int) -> np.ndarray:
        """Sorted right-neighbours of left vertex ``u`` (read-only view)."""
        lo, hi = self._left_indptr[u], self._left_indptr[u + 1]
        return self._left_indices[lo:hi]

    def neighbors_of_right(self, v: int) -> np.ndarray:
        """Sorted left-neighbours of right vertex ``v`` (read-only view)."""
        lo, hi = self._right_indptr[v], self._right_indptr[v + 1]
        return self._right_indices[lo:hi]

    def neighbors_of_lefts(
        self, us: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-neighbours of several left vertices, back to back: returns
        ``(pos, rights)`` with ``rights[i]`` a neighbour of ``us[pos[i]]``."""
        return _gather_rows(self._left_indptr, self._left_indices, us)

    def neighbors_of_rights(
        self, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left-neighbours of several right vertices, back to back: returns
        ``(pos, lefts)`` with ``lefts[i]`` a neighbour of ``vs[pos[i]]``."""
        return _gather_rows(self._right_indptr, self._right_indices, vs)

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array of ``(left, right)`` pairs."""
        lefts = np.repeat(
            np.arange(self.n_left, dtype=np.int64), self.left_degrees
        )
        return np.column_stack([lefts, self._left_indices])

    def has_isolated_left(self) -> bool:
        """True iff some left vertex has degree zero."""
        return bool((self.left_degrees == 0).any()) if self.n_left else False

    def has_isolated_right(self) -> bool:
        """True iff some right vertex has degree zero."""
        return bool((self.right_degrees == 0).any()) if self.n_right else False

    # ------------------------------------------------------------------
    # Matrix views
    # ------------------------------------------------------------------
    @property
    def biadjacency(self) -> sp.csr_matrix:
        """``n_right × n_left`` sparse 0/1 matrix ``B`` with ``B[v, u] = 1``.

        Cached; used for the hot ``counts = B @ x`` kernel.
        """
        if self._biadjacency is None:
            import scipy.sparse as sp

            self._biadjacency = sp.csr_matrix(
                (
                    np.ones(self.n_edges, dtype=np.int32),
                    self._right_indices,
                    self._right_indptr,
                ),
                shape=(self.n_right, self.n_left),
            )
        return self._biadjacency

    @property
    def left_matrix(self) -> sp.csr_matrix:
        """``n_left × n_right`` transpose view of :attr:`biadjacency`."""
        if self._left_matrix is None:
            import scipy.sparse as sp

            self._left_matrix = sp.csr_matrix(
                (
                    np.ones(self.n_edges, dtype=np.int32),
                    self._left_indices,
                    self._left_indptr,
                ),
                shape=(self.n_left, self.n_right),
            )
        return self._left_matrix

    # ------------------------------------------------------------------
    # Coverage kernels (the paper's Γ, Γ¹ restricted to a chosen S' ⊆ S)
    # ------------------------------------------------------------------
    def _as_left_mask(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """Coerce an index list or boolean mask into a left-side bool mask."""
        subset = np.asarray(subset)
        if subset.dtype == bool:
            if subset.shape != (self.n_left,):
                raise ValueError(
                    f"mask length {subset.shape} != n_left {self.n_left}"
                )
            return subset
        mask = np.zeros(self.n_left, dtype=bool)
        if subset.size:
            if subset.min() < 0 or subset.max() >= self.n_left:
                raise ValueError("left index out of range")
            mask[subset] = True
        return mask

    def _as_right_mask(self, subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """Coerce an index list or boolean mask into a right-side bool mask."""
        subset = np.asarray(subset)
        if subset.dtype == bool:
            if subset.shape != (self.n_right,):
                raise ValueError(
                    f"mask length {subset.shape} != n_right {self.n_right}"
                )
            return subset
        mask = np.zeros(self.n_right, dtype=bool)
        if subset.size:
            if subset.min() < 0 or subset.max() >= self.n_right:
                raise ValueError("right index out of range")
            mask[subset] = True

        return mask

    def cover_counts(self, left_subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """For each right vertex ``v``, ``|Γ(v) ∩ S'|`` for ``S'`` = subset.

        This is the collision count of the radio model: ``v`` hears a message
        iff its count is exactly one.
        """
        mask = self._as_left_mask(left_subset)
        return self.biadjacency @ mask.astype(np.int32)

    def covered(self, left_subset: np.ndarray | Sequence[int]) -> np.ndarray:
        """Boolean right-mask of ``Γ_S(S')``: at least one neighbour in ``S'``."""
        return self.cover_counts(left_subset) >= 1

    def uniquely_covered(
        self, left_subset: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """Boolean right-mask of ``Γ¹_S(S')``: exactly one neighbour in ``S'``."""
        return self.cover_counts(left_subset) == 1

    def unique_cover_count(self, left_subset: np.ndarray | Sequence[int]) -> int:
        """``|Γ¹_S(S')|`` — the quantity every spokesman algorithm maximizes."""
        return int(self.uniquely_covered(left_subset).sum())

    def cover_count(self, left_subset: np.ndarray | Sequence[int]) -> int:
        """``|Γ_S(S')|`` — number of right vertices seeing ``S'`` at all."""
        return int(self.covered(left_subset).sum())

    def left_cover_counts(
        self, right_subset: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """For each left vertex ``u``, ``|Γ(u) ∩ N'|`` for ``N'`` = subset.

        The mirror-image kernel, needed by Lemma 4.3's re-covering reduction.
        """
        mask = self._as_right_mask(right_subset)
        return self.left_matrix @ mask.astype(np.int32)

    # ------------------------------------------------------------------
    # Subgraphs and transforms
    # ------------------------------------------------------------------
    def subgraph(
        self,
        left_subset: np.ndarray | Sequence[int],
        right_subset: np.ndarray | Sequence[int],
    ) -> "BipartiteGraph":
        """Induced subgraph on the given left/right subsets, reindexed densely.

        Vertex ``i`` of the result is the ``i``-th selected vertex of the
        corresponding side in increasing original order.
        """
        lmask = self._as_left_mask(left_subset)
        rmask = self._as_right_mask(right_subset)
        lmap = np.full(self.n_left, -1, dtype=np.int64)
        lmap[lmask] = np.arange(int(lmask.sum()))
        rmap = np.full(self.n_right, -1, dtype=np.int64)
        rmap[rmask] = np.arange(int(rmask.sum()))
        edges = self.edges()
        keep = lmask[edges[:, 0]] & rmask[edges[:, 1]]
        kept = edges[keep]
        remapped = np.column_stack([lmap[kept[:, 0]], rmap[kept[:, 1]]])
        return BipartiteGraph(int(lmask.sum()), int(rmask.sum()), remapped)

    def restrict_right(
        self, right_subset: np.ndarray | Sequence[int]
    ) -> "BipartiteGraph":
        """Keep all left vertices, restrict the right side to a subset."""
        return self.subgraph(np.ones(self.n_left, dtype=bool), right_subset)

    def restrict_left(
        self, left_subset: np.ndarray | Sequence[int]
    ) -> "BipartiteGraph":
        """Keep all right vertices, restrict the left side to a subset."""
        return self.subgraph(left_subset, np.ones(self.n_right, dtype=bool))

    def swap_sides(self) -> "BipartiteGraph":
        """Return the same graph with left and right roles exchanged."""
        edges = self.edges()
        return BipartiteGraph(
            self.n_right, self.n_left, edges[:, ::-1].copy()
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``bipartite`` attributes.

        Left vertices become ``("L", i)``, right vertices ``("R", j)``.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((("L", i) for i in range(self.n_left)), bipartite=0)
        g.add_nodes_from((("R", j) for j in range(self.n_right)), bipartite=1)
        g.add_edges_from((("L", int(u)), ("R", int(v))) for u, v in self.edges())
        return g

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_left == other.n_left
            and self.n_right == other.n_right
            and np.array_equal(self._left_indptr, other._left_indptr)
            and np.array_equal(self._left_indices, other._left_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.n_left, self.n_right, self.n_edges))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n_left={self.n_left}, n_right={self.n_right}, "
            f"n_edges={self.n_edges})"
        )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for u, v in self.edges():
            yield int(u), int(v)


@dataclass(frozen=True, eq=False)
class BlockBipartite:
    """A block-diagonal stack of bipartite graphs.

    Block ``c`` owns the left ids ``left_offsets[c]:left_offsets[c + 1]``
    and the right ids ``right_offsets[c]:right_offsets[c + 1]`` of
    ``graph``, in each block's own order; no edge crosses two blocks.  So
    one flat array over a stacked side holds a per-vertex state of every
    block at once, and one sparse product over ``graph`` evaluates one set
    per block.  Kernels that keep several rows per block pad each row to
    the widest block (:meth:`padded_ids`) instead of the stacked width.
    """

    graph: BipartiteGraph
    left_offsets: np.ndarray
    right_offsets: np.ndarray

    @classmethod
    def single(cls, gs: BipartiteGraph) -> "BlockBipartite":
        """``gs`` as a stack of one block."""
        return cls(
            gs,
            np.array([0, gs.n_left], dtype=np.int64),
            np.array([0, gs.n_right], dtype=np.int64),
        )

    @property
    def count(self) -> int:
        """Number of blocks."""
        return self.left_offsets.size - 1

    def _offsets(self, side: str) -> np.ndarray:
        return self.left_offsets if side == "left" else self.right_offsets

    def sizes(self, side: str) -> np.ndarray:
        """Each block's number of ``side`` (``"left"``/``"right"``) vertices."""
        return np.diff(self._offsets(side))

    @cached_property
    def left_block(self) -> np.ndarray:
        """The block of every stacked left vertex."""
        return np.repeat(np.arange(self.count), self.sizes("left"))

    @cached_property
    def right_block(self) -> np.ndarray:
        """The block of every stacked right vertex."""
        return np.repeat(np.arange(self.count), self.sizes("right"))

    def block_sums(self, values: np.ndarray, side: str) -> np.ndarray:
        """Per-block int64 sums of ``values`` over one side (axis 0);
        empty blocks sum to 0."""
        values = np.asarray(values)
        sizes = self.sizes(side)
        out = np.zeros((sizes.size,) + values.shape[1:], dtype=np.int64)
        filled = sizes > 0
        if filled.any():
            starts = self._offsets(side)[:-1][filled]
            # reduceat accumulates in a cast copy: int32 unless wider.
            acc = np.promote_types(values.dtype, np.int32)
            out[filled] = np.add.reduceat(values, starts, axis=0, dtype=acc)
        return out

    def nonzero_means(self, values: np.ndarray, side: str) -> np.ndarray:
        """Per-block mean of the non-zero entries of a non-negative integer
        array over one side (0 for a block without one): the exact integer
        sum over the count, as ``mean`` gives."""
        count = self.block_sums(values != 0, side)
        return self.block_sums(values, side) / np.maximum(count, 1)

    def padded_ids(self, side: str) -> np.ndarray:
        """``(count, widest block)`` stacked ids of each block's ``side``
        vertices in order, padded with the side's size (one past the last
        id)."""
        offsets = self._offsets(side)
        sizes = np.diff(offsets)
        cols = np.arange(int(sizes.max(initial=0)))
        return np.where(
            cols < sizes[:, None], offsets[:-1, None] + cols, offsets[-1]
        )

    def padded(self, values: np.ndarray, side: str, fill) -> np.ndarray:
        """A flat per-vertex array of one side as ``(count, widest block)``
        rows, one per block, padded with ``fill``."""
        return np.append(values, np.asarray(fill, dtype=values.dtype))[
            self.padded_ids(side)
        ]

    def unpadded(self, rows: np.ndarray, side: str) -> np.ndarray:
        """The inverse of :meth:`padded`: one row per block back to a flat
        per-vertex array of the side."""
        block = self.left_block if side == "left" else self.right_block
        return rows[block, np.arange(block.size) - self._offsets(side)[block]]

    def _checked(self, chosen: np.ndarray) -> np.ndarray:
        chosen = np.asarray(chosen)
        if (
            chosen.ndim != 2
            or chosen.shape[0] != self.graph.n_left
            or chosen.dtype != bool
        ):
            raise ValueError(
                f"expected an ({self.graph.n_left}, L) bool matrix, got "
                f"{chosen.dtype} array of shape {chosen.shape}"
            )
        return chosen

    def cover_counts(self, chosen: np.ndarray) -> np.ndarray:
        """``|Γ(v) ∩ S'|`` of every stacked right vertex ``v`` for each
        column of ``chosen``.

        ``chosen`` is an ``(n_left, L)`` bool matrix whose column ``l``
        holds one subset ``S'`` per block; returns the ``(n_right, L)``
        counts from one sparse mat-mat product.  Raises ``ValueError`` on
        any other shape or dtype (an int entry of 2 would count twice).
        """
        return self.graph.biadjacency @ self._checked(chosen).astype(np.int32)

    def unique_counts(self, chosen: np.ndarray) -> np.ndarray:
        """``|Γ¹(S')|`` of every block for each column of ``chosen``.

        ``chosen`` is an ``(n_left, L)`` bool matrix, checked as by
        :meth:`cover_counts`; returns ``(count, L)`` payoffs, counted
        :data:`_COUNT_COLUMNS` columns at a time.
        """
        chosen = self._checked(chosen)
        out = np.zeros((self.count, chosen.shape[1]), dtype=np.int64)
        for lo in range(0, chosen.shape[1], _COUNT_COLUMNS):
            cover = self.cover_counts(chosen[:, lo : lo + _COUNT_COLUMNS])
            np.equal(cover, 1, out=cover, casting="unsafe")  # 1 iff covered once
            out[:, lo : lo + _COUNT_COLUMNS] = self.block_sums(cover, "right")
        return out

    def row_unique_counts(self, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``|Γ¹(S')|`` of each row: row ``k`` is a subset ``S'`` of block
        ``block[k]``, as a bool mask over its left side padded to the
        widest block.  The rows are packed into columns that hold at most
        one row per block and scored by one :meth:`unique_counts` call.
        Raises ``ValueError`` unless ``block`` is a vector of block
        indices and ``rows`` a bool matrix with one row for each.
        """
        block, rows = np.asarray(block), np.asarray(rows)
        ids = self.padded_ids("left")
        if (
            block.ndim != 1
            or not np.issubdtype(block.dtype, np.integer)
            or ((block < 0) | (block >= self.count)).any()
        ):
            raise ValueError(
                f"expected a vector of block indices in [0, {self.count}), "
                f"got {block.dtype} array of shape {block.shape}"
            )
        if rows.shape != (block.size, ids.shape[1]) or rows.dtype != bool:
            raise ValueError(
                f"expected a ({block.size}, {ids.shape[1]}) bool matrix, got "
                f"{rows.dtype} array of shape {rows.shape}"
            )
        rank = self.column_of(block)
        # Padding cells land in a spare last row, dropped before scoring.
        chosen = np.zeros((self.graph.n_left + 1, rank.max(initial=-1) + 1), bool)
        chosen[ids[block], rank[:, None]] = rows
        return self.unique_counts(chosen[:-1])[block, rank]

    @staticmethod
    def column_of(block: np.ndarray) -> np.ndarray:
        """Pack rows owned by blocks ``block`` into columns that hold at
        most one row per block: each row's column is its rank among its
        block's rows."""
        order = np.argsort(block, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(block.size) - np.searchsorted(
            block[order], block[order]
        )
        return rank

    def subgraph(
        self, left_mask: np.ndarray, right_mask: np.ndarray
    ) -> "BlockBipartite":
        """Each block's induced subgraph on the masked vertices, stacked
        in the same block order (a block may become empty)."""
        return BlockBipartite(
            self.graph.subgraph(left_mask, right_mask),
            np.concatenate([[0], np.cumsum(self.block_sums(left_mask, "left"))]),
            np.concatenate([[0], np.cumsum(self.block_sums(right_mask, "right"))]),
        )
