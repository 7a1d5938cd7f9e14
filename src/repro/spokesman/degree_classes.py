"""Degree-class spokesman algorithm (Lemma A.5, Corollaries A.6/A.7).

Bucket the right vertices into geometric degree classes
``N^{(i)} = {v : deg(v, S) ∈ [c^{i−1}, c^i)}``.  Within one class, degrees
are within a factor ``c`` of each other, so Procedure Partition's edge
accounting tightens to ``|N_uni| ≥ |N^{(i)}| / (2(1+c))``.  Some class holds
a ``1/⌈log_c Δ⌉`` fraction of ``N``, so running the procedure per class and
keeping the best gives

``|Γ¹_S(S')| ≥ γ·log₂c / (2(1+c)·log₂Δ) ≥ 0.20087·γ/log₂Δ``

at the optimal base ``c* ≈ 3.59112``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.expansion.bounds import OPTIMAL_DEGREE_CLASS_BASE
from repro.graphs.bipartite import BipartiteGraph
from repro.spokesman.base import SpokesmanResult, evaluate_subset
from repro.spokesman.partition import (
    PartitionState,
    _best_uni,
    procedure_partition_batch,
)

__all__ = ["degree_class_members", "spokesman_degree_classes"]


def degree_class_members(
    gs: BipartiteGraph, c: float
) -> list[tuple[int, np.ndarray]]:
    """Split non-isolated right vertices into classes
    ``deg ∈ [c^{i−1}, c^i)`` (``i ≥ 1``); returns ``(i, members)`` pairs for
    the non-empty classes."""
    if c <= 1:
        raise ValueError(f"class base c must exceed 1, got {c}")
    deg = gs.right_degrees
    nonisolated = deg >= 1
    if not nonisolated.any():
        return []
    # deg = 1 belongs to class i=1 ([c^0, c^1)); generally i = floor(log_c deg) + 1.
    idx = np.zeros(gs.n_right, dtype=np.int64)
    logs = np.log(deg[nonisolated]) / math.log(c)
    idx[nonisolated] = np.floor(logs + 1e-12).astype(np.int64) + 1
    out: list[tuple[int, np.ndarray]] = []
    for i in range(1, int(idx.max()) + 1):
        members = np.flatnonzero(idx == i)
        if members.size:
            out.append((i, members))
    return out


def _class_populations(
    gs: BipartiteGraph, c: float = OPTIMAL_DEGREE_CLASS_BASE
) -> list[np.ndarray]:
    """One population per non-empty degree class."""
    return [
        gs._as_right_mask(members) for _i, members in degree_class_members(gs, c)
    ]


def _class_finish(
    gs: BipartiteGraph, states: list[PartitionState]
) -> SpokesmanResult:
    """Best class's ``S_uni`` (the lowest class wins ties)."""
    best = _best_uni(gs, states, ["degree-classes"] * len(states))
    if best is None:
        return evaluate_subset(gs, [], "degree-classes")
    return best


def spokesman_degree_classes(
    gs: BipartiteGraph, c: float | None = None
) -> SpokesmanResult:
    """Run Procedure Partition per degree class, keep the best class.

    Deterministic.  Guarantee: ``unique_count ≥ γ·log₂c/(2(1+c)·log₂Δ_N)``
    for any ``c > 1`` (Corollary A.6); defaults to the optimal ``c*``.
    """
    if c is None:
        c = OPTIMAL_DEGREE_CLASS_BASE
    states = procedure_partition_batch(gs, _class_populations(gs, c))
    return _class_finish(gs, states)
