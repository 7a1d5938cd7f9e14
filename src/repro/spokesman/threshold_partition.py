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
:func:`~repro.spokesman.partition.procedure_partition_batch` call.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.partition import (
    PartitionState,
    _best_uni,
    procedure_partition_batch,
)

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
    if t <= 1:
        raise ValueError(f"threshold t must exceed 1, got {t}")
    deg = gs.right_degrees
    nonisolated = deg >= 1
    if not nonisolated.any():
        return np.zeros(gs.n_right, dtype=bool)
    delta = float(deg[nonisolated].mean())
    return nonisolated & (deg <= t * delta)


def _sweep_populations(
    gs: BipartiteGraph, thresholds: tuple[float, ...] = SWEEP_THRESHOLDS
) -> list[np.ndarray]:
    """The sweep's populations: ``N^{tδ}`` for each threshold ``t``."""
    if not thresholds:
        raise ValueError("thresholds must name at least one threshold")
    return [threshold_population(gs, t) for t in thresholds]


def _sweep_finish(
    gs: BipartiteGraph,
    states: list[PartitionState],
    thresholds: tuple[float, ...] = SWEEP_THRESHOLDS,
) -> SpokesmanResult:
    """Best ``S_uni`` over the threshold runs (the earliest wins ties)."""
    return _best_uni(gs, states, [f"partition[t={t:g}]" for t in thresholds])


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
    states = procedure_partition_batch(gs, _sweep_populations(gs, thresholds))
    return _sweep_finish(gs, states, thresholds)


# Lemma A.3's two steps are the sweep's, on the single threshold t = 2.
def _partition_populations(gs: BipartiteGraph) -> list[np.ndarray]:
    return _sweep_populations(gs, (2.0,))


def _partition_finish(
    gs: BipartiteGraph, states: list[PartitionState]
) -> SpokesmanResult:
    return replace(_sweep_finish(gs, states, (2.0,)), algorithm="partition")


def spokesman_partition(gs: BipartiteGraph) -> SpokesmanResult:
    """Lemma A.3's algorithm: the ``t = 2`` threshold run, on ``N^{2δ}``.

    Guarantee: ``unique_count ≥ γ/(8δ)`` where ``δ`` is the average degree
    of the non-isolated right vertices and ``γ`` their number.
    """
    return replace(spokesman_threshold_partition(gs, 2.0), algorithm="partition")
