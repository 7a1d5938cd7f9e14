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
sub-populations of one ``G_S``; :func:`procedure_partition_batch` runs a
whole set of them in one lockstep pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.spokesman.base import SpokesmanResult, evaluate_subset

__all__ = [
    "PartitionState",
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


def procedure_partition_batch(
    gs: BipartiteGraph, populations: Sequence
) -> list[PartitionState]:
    """Run Procedure Partition once per population, all in lockstep.

    ``populations[k]`` is a bool mask, an index list, or ``None`` (all
    non-isolated right vertices), exactly as for :func:`procedure_partition`;
    entry ``k`` of the result equals ``procedure_partition(gs,
    populations[k])`` field for field.

    Each run keeps one row of ``gains = |N_tmp(v)| − 2·|N_uni(v)|``, with
    peeled vertices pinned at the int64 minimum.  A lockstep step takes one
    row-wise argmax over the runs still improving (first index on ties, as
    the serial rule), relabels the chosen vertices' right neighbours
    (``TMP → UNI``, ``UNI → MANY``), and applies the resulting gain changes
    — ``−3`` per ``TMP → UNI``, ``+2`` per ``UNI → MANY`` — to the
    neighbours' left neighbours with one weighted bincount.  One step's
    updates commute (a CSR row holds distinct vertices, and runs own
    disjoint rows), so every run sees the serial gains step for step.

    Memory is ``O(K·(n_left + n_right) + |E|)`` for ``K`` populations: the
    neighbourhoods are gathered as CSR slices.
    """
    k = len(populations)
    n_left = gs.n_left
    managed = np.empty((k, gs.n_right), dtype=bool)
    managed[:] = gs.right_degrees >= 1
    for i, population in enumerate(populations):
        if population is not None:
            managed[i] &= gs._as_right_mask(np.asarray(population))

    labels = np.where(managed, np.int8(TMP), np.int8(EXCLUDED))
    s_uni = np.zeros((k, n_left), dtype=bool)
    steps = np.zeros(k, dtype=np.int64)
    # ``gains`` holds the rows of the ``active`` runs only: a finished
    # run's gains are never read again.
    active = np.arange(k if n_left else 0)
    gains = np.zeros((active.size, n_left), dtype=np.int64)
    if active.size:
        gains[:] = (gs.left_matrix @ managed.T.astype(np.int32)).T

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

        slot, r = gs.neighbors_of_lefts(v)
        run = active[slot]
        label = labels[run, r]
        moved = label <= UNI
        slot, run, r, label = slot[moved], run[moved], r[moved], label[moved]
        labels[run, r] = label + 1  # TMP → UNI, UNI → MANY

        # Every left neighbour of a relabelled vertex still in S_tmp.
        edge, u = gs.neighbors_of_rights(r)
        live = ~s_uni[run[edge], u]
        edge, u = edge[live], u[live]
        delta = np.bincount(
            slot[edge] * n_left + u,
            weights=_GAIN_CHANGE[label[edge]],
            minlength=gains.size,
        )
        gains += delta.astype(np.int64).reshape(gains.shape)

    return [
        PartitionState(
            s_uni=s_uni[i].copy(),
            s_tmp=~s_uni[i],
            labels=labels[i].copy(),
            steps=int(steps[i]),
        )
        for i in range(k)
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


def _best_uni(
    gs: BipartiteGraph, states: list[PartitionState], names: list[str]
) -> SpokesmanResult | None:
    """The best ``S_uni`` among ``states`` (the earliest wins ties), named
    after its state; ``None`` for no states.  All payoffs come from one
    batched cover count."""
    if not states:
        return None
    payoffs = gs.unique_cover_counts_batch(np.stack([s.s_uni for s in states]))
    best = int(np.argmax(payoffs))
    return evaluate_subset(gs, np.flatnonzero(states[best].s_uni), names[best])
