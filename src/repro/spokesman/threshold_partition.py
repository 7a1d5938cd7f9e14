"""Threshold-parameterized Partition (Corollary A.8 / Lemma A.11).

Lemma A.3 runs Procedure Partition on the right vertices of degree
``≤ 2δ``.  Appendix A.2 generalizes the threshold: for any ``t > 1`` run on
``N^{tδ} = {v : deg(v) ≤ t·δ}`` (which holds ``≥ (1 − 1/t)·γ`` vertices by
Markov).  Under Lemma A.11's density condition the payoff becomes
``(1 − 1/t)·γ / (2(1+c))`` for the matching ``c``; unconditionally the
Lemma A.3-style edge accounting gives ``|N_uni| ≥ |N^{tδ}| / (2·t·δ)``
(the ``t = 2`` case is exactly ``γ/(8δ)``) — a trade-off between the
population kept (large ``t``) and per-vertex degree slack (small ``t``).

:func:`spokesman_threshold_partition` runs one threshold, and
:func:`spokesman_partition` (Lemma A.3) is its ``t = 2`` run;
:func:`spokesman_threshold_sweep` tries a geometric ladder of thresholds
and keeps the best (still polynomial, dominates Lemma A.3's fixed choice).
All of them peel their thresholds' populations in one
:func:`~repro.spokesman.partition.peel_blocks` call.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.partition import _best_partition

__all__ = [
    "spokesman_partition",
    "spokesman_threshold_partition",
    "spokesman_threshold_sweep",
    "threshold_population",
]

#: The sweep's default geometric ladder of thresholds.
SWEEP_THRESHOLDS = (1.5, 2.0, 3.0, 4.0, 8.0)


def threshold_population(gs: BipartiteGraph, t: float) -> np.ndarray:
    """Bool mask of ``N^{tδ}``: non-isolated right vertices with degree at
    most ``t·δ`` (``δ`` = average degree of non-isolated right vertices).

    By Markov's inequality this keeps at least a ``(1 − 1/t)`` fraction.
    """
    _, managed, _ = _sweep_rows(BlockBipartite.single(gs), (t,))
    return managed[0]


def _sweep_rows(
    blocks: BlockBipartite, thresholds: tuple[float, ...] = SWEEP_THRESHOLDS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's rows on every block: ``(block, managed, names)`` with
    ``N^{tδ}`` of each block for each threshold ``t``, threshold-major
    (so a block's rows follow the ladder's order)."""
    if not thresholds:
        raise ValueError("thresholds must name at least one threshold")
    for t in thresholds:
        if t <= 1:
            raise ValueError(f"threshold t must exceed 1, got {t}")
    delta = blocks.nonzero_means(blocks.graph.right_degrees, "right")
    deg = blocks.padded(blocks.graph.right_degrees, "right", 0)
    managed = np.concatenate(
        [(deg >= 1) & (deg <= t * delta[:, None]) for t in thresholds]
    )
    block = np.tile(np.arange(blocks.count), len(thresholds))
    names = np.repeat([f"partition[t={t:g}]" for t in thresholds], blocks.count)
    return block, managed, names.astype(object)


def _partition_rows(blocks: BlockBipartite):
    """Lemma A.3's rows: the sweep's, on the single threshold ``t = 2``."""
    block, managed, names = _sweep_rows(blocks, (2.0,))
    return block, managed, np.full(names.size, "partition", dtype=object)


def spokesman_threshold_partition(
    gs: BipartiteGraph, t: float = 2.0
) -> SpokesmanResult:
    """Procedure Partition on ``N^{tδ}`` (Lemma A.3 is the ``t = 2`` case).

    Guarantee: with ``m = |N^{tδ}| ≥ (1 − 1/t)·γ``, the partition
    accounting yields ``unique_count ≥ m / (2·t·δ)``.
    """
    return spokesman_threshold_sweep(gs, (t,))


def spokesman_threshold_sweep(
    gs: BipartiteGraph, thresholds: tuple[float, ...] = SWEEP_THRESHOLDS
) -> SpokesmanResult:
    """Best threshold from a geometric ladder — dominates any fixed ``t``.

    Raises ``ValueError`` for an empty ladder.
    """
    return _best_partition(gs, _sweep_rows(BlockBipartite.single(gs), thresholds), "")


def spokesman_partition(gs: BipartiteGraph) -> SpokesmanResult:
    """Lemma A.3's algorithm: the ``t = 2`` threshold run, on ``N^{2δ}``.

    Guarantee: ``unique_count ≥ γ/(8δ)`` where ``δ`` is the average degree
    of the non-isolated right vertices and ``γ`` their number.
    """
    return _best_partition(gs, _partition_rows(BlockBipartite.single(gs)), "")
