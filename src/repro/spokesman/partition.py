"""Procedure Partition (Appendix A.1.2).

Procedure Partition splits ``N`` into ``(N_uni, N_many, N_tmp)`` and ``S``
into ``(S_uni, S_tmp)`` subject to the partition conditions:

* (P1) every ``N_uni`` vertex has a unique neighbour in ``S_uni``;
* (P2) every ``N_tmp`` vertex has ≥ 1 neighbour in ``S_tmp`` and none in
  ``S_uni``;
* (P3) ``|N_uni| ≥ |N_many|``;
* (P4) at termination, ``N_tmp = ∅`` or ``|E_tmp| ≤ 2·|E_uni|`` where
  ``E_uni``/``E_tmp`` are the edges from ``S_tmp`` to ``N_uni``/``N_tmp``.

The greedy rule: repeatedly move the ``S_tmp`` vertex maximizing
``gain(v) = |N_tmp(v)| − 2·|N_uni(v)|`` into ``S_uni`` (its ``N_uni``
neighbours fall to ``N_many``, its ``N_tmp`` neighbours rise to ``N_uni``),
stopping when every gain is ``≤ 0``.

The partition-family algorithms (Lemma A.3 and its thresholds, the degree
classes, the recursion) each run the procedure on a few right
sub-populations of one ``G_S``; :func:`peel_blocks` runs a whole set of
them, over the ``G_S`` of many candidates stacked as one
:class:`~repro.graphs.bipartite.BlockBipartite`, in one lockstep pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = [
    "PartitionState",
    "best_rows",
    "peel_blocks",
    "procedure_partition",
    "procedure_partition_batch",
]

#: Right-vertex labels used by :class:`PartitionState`.  The order is the
#: order a vertex moves in (``TMP → UNI → MANY``), which the batch kernel
#: relies on.
TMP, UNI, MANY, EXCLUDED = 0, 1, 2, 3

#: The gain of a vertex already moved to ``S_uni``: below every live gain.
_PEELED = np.iinfo(np.int64).min

#: Gain change of a relabelled right vertex's left neighbours, by its old
#: label: ``TMP → UNI`` costs 1 tmp and 2 for a new uni (−3), ``UNI →
#: MANY`` returns the 2 (+2).
_GAIN_CHANGE = np.array([-3, 2])


@dataclass(frozen=True)
class PartitionState:
    """Result of one Procedure Partition run.

    ``labels[v]`` is one of ``TMP/UNI/MANY`` for right vertices the run
    managed, or ``EXCLUDED`` for vertices outside the requested
    sub-population (isolated vertices are always excluded).
    """

    s_uni: np.ndarray  # bool mask over left vertices
    s_tmp: np.ndarray  # bool mask over left vertices
    labels: np.ndarray  # int labels over right vertices
    steps: int

    @property
    def n_uni(self) -> np.ndarray:
        """Right ids labelled ``N_uni``."""
        return np.flatnonzero(self.labels == UNI)

    @property
    def n_many(self) -> np.ndarray:
        """Right ids labelled ``N_many``."""
        return np.flatnonzero(self.labels == MANY)

    @property
    def n_tmp(self) -> np.ndarray:
        """Right ids labelled ``N_tmp``."""
        return np.flatnonzero(self.labels == TMP)

    def check_invariants(self, gs: BipartiteGraph) -> list[str]:
        """Return human-readable violations of (P1)–(P4); empty if clean."""
        problems: list[str] = []
        s_uni_idx = np.flatnonzero(self.s_uni)
        uni_counts = gs.cover_counts(s_uni_idx)
        tmp_counts = gs.cover_counts(np.flatnonzero(self.s_tmp))
        for v in self.n_uni:
            if uni_counts[v] != 1:
                problems.append(f"(P1) N_uni vertex {v} has {uni_counts[v]} "
                                "S_uni neighbours")
        for v in self.n_tmp:
            if tmp_counts[v] < 1:
                problems.append(f"(P2) N_tmp vertex {v} has no S_tmp neighbour")
            if uni_counts[v] != 0:
                problems.append(f"(P2) N_tmp vertex {v} touches S_uni")
        if self.n_uni.size < self.n_many.size:
            problems.append(
                f"(P3) |N_uni|={self.n_uni.size} < |N_many|={self.n_many.size}"
            )
        if self.n_tmp.size:
            e_uni = int(gs.left_cover_counts(self.n_uni)[self.s_tmp].sum())
            e_tmp = int(gs.left_cover_counts(self.n_tmp)[self.s_tmp].sum())
            if e_tmp > 2 * e_uni:
                problems.append(f"(P4) |E_tmp|={e_tmp} > 2|E_uni|={2 * e_uni}")
        if (self.s_uni & self.s_tmp).any():
            problems.append("(I) S_uni and S_tmp overlap")
        return problems


def peel_blocks(
    blocks: BlockBipartite, block: np.ndarray, managed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Procedure Partition once per row of a stacked graph, in lockstep.

    Row ``k`` runs on block ``block[k]`` over the right vertices
    ``managed[k]`` (a bool mask over the block's right side, padded to
    the widest block; isolated vertices never count).  Returns
    ``(s_uni, labels, steps)``: ``s_uni[k]`` over the block's left side
    and ``labels[k]`` over its right side, padded the same way (padding
    is ``False`` / ``EXCLUDED``).

    Each run keeps one row of ``gains = |N_tmp(v)| − 2·|N_uni(v)|`` as
    wide as the widest left block, with peeled and padding vertices
    pinned at the int64 minimum.  A lockstep step takes one row-wise
    argmax over the runs still improving (first index on ties, as the
    serial rule), relabels the chosen vertices' right neighbours
    (``TMP → UNI``, ``UNI → MANY``), and applies the resulting gain changes
    — ``−3`` per ``TMP → UNI``, ``+2`` per ``UNI → MANY`` — to the
    neighbours' left neighbours with one weighted bincount.  One step's
    updates commute (a CSR row holds distinct vertices, and runs own
    disjoint rows), so every run sees the serial gains step for step.
    Stacked ids shift to row-local ones by the row's block offsets.

    Memory is ``O(K·(L + R) + C·(n_left + n_right))`` for ``K`` rows, with
    ``L``/``R`` the widest left/right block and ``C`` the most rows of one
    block.
    """
    g = blocks.graph
    k = block.size
    width = int(blocks.sizes("left").max(initial=0))
    row_lo = blocks.left_offsets[block]
    row_ro = blocks.right_offsets[block]
    nonisolated = blocks.padded(g.right_degrees >= 1, "right", False)
    managed = managed & nonisolated[block]

    labels = np.where(managed, np.int8(TMP), np.int8(EXCLUDED))
    s_uni = np.zeros((k, width), dtype=bool)
    steps = np.zeros(k, dtype=np.int64)
    # ``gains`` holds the rows of the ``active`` runs only: a finished
    # run's gains are never read again.
    active = np.arange(k if width else 0)
    # Each left vertex starts at its managed degree: the rows, packed one
    # per block into columns over the stacked right side, take one sparse
    # product; padding cells read a spare row of peeled gains.
    column = blocks.column_of(block)
    spread = np.zeros((g.n_right + 1, column.max(initial=-1) + 1), dtype=np.int32)
    spread[blocks.padded_ids("right")[block], column[:, None]] = managed
    start = g.left_matrix @ spread[:-1]
    start = np.concatenate([start, np.full((1, start.shape[1]), _PEELED)])
    gains = start[blocks.padded_ids("left")[block[active]], column[active, None]]

    while active.size:
        v = gains.argmax(axis=1)
        rows = np.arange(active.size)
        improving = gains[rows, v] > 0
        if not improving.all():
            active, v, gains = active[improving], v[improving], gains[improving]
            rows = rows[: active.size]
            if not active.size:
                break
        steps[active] += 1
        s_uni[active, v] = True
        gains[rows, v] = _PEELED

        slot, r = g.neighbors_of_lefts(row_lo[active] + v)
        run = active[slot]
        r -= row_ro[run]
        label = labels[run, r]
        moved = label <= UNI
        slot, run, r, label = slot[moved], run[moved], r[moved], label[moved]
        labels[run, r] = label + 1  # TMP → UNI, UNI → MANY

        # Every left neighbour of a relabelled vertex still in S_tmp.
        edge, u = g.neighbors_of_rights(r + row_ro[run])
        u -= row_lo[run[edge]]
        live = ~s_uni[run[edge], u]
        edge, u = edge[live], u[live]
        delta = np.bincount(
            slot[edge] * width + u,
            weights=_GAIN_CHANGE[label[edge]],
            minlength=gains.size,
        )
        gains += delta.astype(np.int64).reshape(gains.shape)

    return s_uni, labels, steps


def best_rows(
    blocks: BlockBipartite, block: np.ndarray, rows: np.ndarray, payoffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each block's best row (the earliest wins ties): returns ``(chosen,
    index)``, the winners as one mask over the stacked left side and
    their row indices, ``-1`` for a block without rows (which chooses
    nothing)."""
    order = np.lexsort((-payoffs, block))
    first = order[np.flatnonzero(np.diff(block[order], prepend=-1))]
    index = np.full(blocks.count, -1)
    index[block[first]] = first
    chosen = np.zeros((blocks.count, rows.shape[1]), dtype=bool)
    chosen[block[first]] = rows[first]
    return blocks.unpadded(chosen, "left"), index


def _best_partition(gs: BipartiteGraph, rows, fallback: str) -> SpokesmanResult:
    """Peel ``rows`` ``(block, managed, names)`` of the one-block stack of
    ``gs`` and keep the best ``S_uni``, named after its row (``fallback``
    when there is no row)."""
    blocks = BlockBipartite.single(gs)
    block, managed, names = rows
    s_uni, _labels, _steps = peel_blocks(blocks, block, managed)
    chosen, (index,) = best_rows(
        blocks, block, s_uni, blocks.row_unique_counts(block, s_uni)
    )
    name = np.append(names, fallback)[index]
    return evaluate_subset(gs, np.flatnonzero(chosen), name)


def procedure_partition_batch(
    gs: BipartiteGraph, populations: Sequence
) -> list[PartitionState]:
    """Run Procedure Partition once per population, all in lockstep.

    ``populations[k]`` is a bool mask, an index list, or ``None`` (all
    non-isolated right vertices), exactly as for :func:`procedure_partition`;
    entry ``k`` of the result equals ``procedure_partition(gs,
    populations[k])`` field for field.  The one-block call of
    :func:`peel_blocks`.
    """
    managed = np.ones((len(populations), gs.n_right), dtype=bool)
    for i, population in enumerate(populations):
        if population is not None:
            managed[i] = gs._as_right_mask(np.asarray(population))
    s_uni, labels, steps = peel_blocks(
        BlockBipartite.single(gs), np.zeros(len(populations), dtype=np.int64),
        managed,
    )
    return [
        PartitionState(
            s_uni=s_uni[i].copy(),
            s_tmp=~s_uni[i],
            labels=labels[i].copy(),
            steps=int(steps[i]),
        )
        for i in range(len(populations))
    ]


def procedure_partition(
    gs: BipartiteGraph, right_subset=None
) -> PartitionState:
    """Run Procedure Partition on ``gs`` (optionally on a right sub-population).

    Parameters
    ----------
    right_subset:
        Bool mask or index list selecting the right vertices to manage
        (default: all non-isolated).  Vertices outside it are ``EXCLUDED``
        and never influence gains.
    """
    return procedure_partition_batch(gs, [right_subset])[0]
