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
from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.spokesman.base import SpokesmanResult
from repro.spokesman.partition import _best_partition

__all__ = ["degree_class_members", "spokesman_degree_classes"]


def _class_index(deg: np.ndarray, c: float) -> np.ndarray:
    """Each right vertex's class ``i`` with ``deg ∈ [c^{i−1}, c^i)``, or 0
    for an isolated vertex."""
    if c <= 1:
        raise ValueError(f"class base c must exceed 1, got {c}")
    nonisolated = deg >= 1
    # deg = 1 belongs to class i=1 ([c^0, c^1)); generally i = floor(log_c deg) + 1.
    idx = np.zeros(deg.size, dtype=np.int64)
    logs = np.log(deg[nonisolated]) / math.log(c)
    idx[nonisolated] = np.floor(logs + 1e-12).astype(np.int64) + 1
    return idx


def degree_class_members(
    gs: BipartiteGraph, c: float
) -> list[tuple[int, np.ndarray]]:
    """Split non-isolated right vertices into classes
    ``deg ∈ [c^{i−1}, c^i)`` (``i ≥ 1``); returns ``(i, members)`` pairs for
    the non-empty classes."""
    idx = _class_index(gs.right_degrees, c)
    return [(int(i), np.flatnonzero(idx == i)) for i in np.unique(idx[idx > 0])]


def _class_rows(
    blocks: BlockBipartite, c: float = OPTIMAL_DEGREE_CLASS_BASE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per non-empty degree class of every block, ordered by
    block and then class: ``(block, managed, names)``."""
    idx = _class_index(blocks.graph.right_degrees, c)
    span = int(idx.max(initial=0)) + 1
    pairs = np.unique((blocks.right_block * span + idx)[idx > 0])
    block, level = pairs // span, pairs % span
    padded = blocks.padded(idx, "right", 0)
    managed = padded[block] == level[:, None]
    return block, managed, np.full(block.size, "degree-classes", dtype=object)


def spokesman_degree_classes(
    gs: BipartiteGraph, c: float | None = None
) -> SpokesmanResult:
    """Run Procedure Partition per degree class, keep the best class.

    Deterministic.  Guarantee: ``unique_count ≥ γ·log₂c/(2(1+c)·log₂Δ_N)``
    for any ``c > 1`` (Corollary A.6); defaults to the optimal ``c*``.
    """
    if c is None:
        c = OPTIMAL_DEGREE_CLASS_BASE
    rows = _class_rows(BlockBipartite.single(gs), c)
    return _best_partition(gs, rows, "degree-classes")
