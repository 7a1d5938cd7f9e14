"""Every closed-form bound in the paper, as one documented function each.

All logarithms are base 2, matching the paper's convention.  Functions are
named after their source statement.  ``Ω``/``O`` statements are exposed as
*shape* functions (the bound without its unspecified constant); experiments
fit or check constants empirically.

One erratum is handled here: Corollaries A.9/A.10/A.16 print the constant
``2.0087``, but the derivation (maximize ``log₂c / (2(1+c))`` over ``c``,
attained at ``c* ≈ 3.59112`` with value ``≈ 0.20087``, as the paper itself
states before Corollary A.7) yields ``0.20087``; the printed value is a
misplaced decimal point.  We implement ``0.20087``.
"""

from __future__ import annotations

import math

__all__ = [
    "OPTIMAL_DEGREE_CLASS_BASE",
    "OPTIMAL_DEGREE_CLASS_CONSTANT",
    "corollary51_min_rounds",
    "decay_success_lower_bound",
    "degree_class_guarantee",
    "kushilevitz_mansour_lower_bound",
    "lemma31_expansion_bound",
    "lemma32_unique_lower_bound",
    "lemma42_shape",
    "lemma43_shape",
    "lemma_a1_guarantee",
    "lemma_a3_guarantee",
    "lemma_a5_class_guarantee",
    "lemma_a8_guarantee",
    "lemma_a13_guarantee",
    "corollary_a15_guarantee",
    "mg_bound",
    "spokesman_cw_guarantee",
    "theorem11_shape",
    "unique_success_probability",
]


# ----------------------------------------------------------------------
# Section 3: ordinary vs unique expansion
# ----------------------------------------------------------------------
def lemma31_expansion_bound(
    d: int, lam: float, alpha_u: float, beta_u: float
) -> float:
    """Lemma 3.1: a d-regular ``(αu, βu)``-unique expander is an ordinary
    expander with ``β ≥ (1 − 1/d)·βu + (d − λ)·(1 − αu)/d``."""
    if d <= 0:
        raise ValueError(f"degree must be positive, got {d}")
    return (1 - 1 / d) * beta_u + (d - lam) * (1 - alpha_u) / d


def lemma32_unique_lower_bound(beta: float, delta: float) -> float:
    """Lemma 3.2 (and Lemma 4.1 via Observation 2.1):
    ``βu ≥ 2β − Δ`` — meaningful only for ``β > Δ/2``, and exactly attained
    by ``Gbad`` (Lemma 3.3)."""
    return 2 * beta - delta


# ----------------------------------------------------------------------
# Section 4.2: the positive results
# ----------------------------------------------------------------------
def unique_success_probability(degree: int, p: float) -> float:
    """``P[Bin-style unique hit] = d·p·(1−p)^{d−1}`` — the probability that a
    right vertex of degree ``d`` has exactly one neighbour in a ``p``-sampled
    subset (the heart of Lemma 4.2's probabilistic argument)."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return degree * p * (1 - p) ** (degree - 1)


def decay_success_lower_bound() -> float:
    """Lemma 4.2's pointwise bound: a vertex with degree in ``[2^j, 2^{j+1})``
    sampled at rate ``2^{-j}`` is uniquely covered with probability
    ``≥ e^{-3}``."""
    return math.exp(-3.0)


def lemma42_shape(beta: float, delta: float) -> float:
    """Lemma 4.2 (``β ≥ 1``): ``βw = Ω(β / log 2(Δ/β))`` — the shape
    ``β / log₂(2Δ/β)``."""
    if beta < 1:
        raise ValueError(f"Lemma 4.2 requires beta >= 1, got {beta}")
    return beta / math.log2(2 * delta / beta)


def lemma43_shape(beta: float, delta: float) -> float:
    """Lemma 4.3 (``1/Δ ≤ β < 1``): ``βw = Ω(β / log 2(Δ·β))`` — the shape
    ``β / log₂(2Δβ)``."""
    if not (1 / delta <= beta <= 1 + 1e-12):
        raise ValueError(
            f"Lemma 4.3 requires 1/Δ <= beta <= 1, got beta={beta}, Δ={delta}"
        )
    return beta / math.log2(2 * delta * beta)


def theorem11_shape(beta: float, delta: float) -> float:
    """Theorem 1.1 / 1.2 shape ``β / log₂(2·min{Δ/β, Δ·β})`` — the tight
    ordinary-vs-wireless gap.  Requires ``β ≥ 1/Δ``."""
    if beta < 1 / delta - 1e-12:
        raise ValueError(
            f"Theorem 1.1 requires beta >= 1/Δ, got beta={beta}, Δ={delta}"
        )
    return beta / math.log2(2 * min(delta / beta, delta * beta))


def spokesman_cw_guarantee(n_right: int, n_left: int) -> float:
    """Chlamtac–Weinstein's spokesman guarantee ``|Γ¹(S')| ≥ |N|/log₂|S|``
    (Section 4.2.1's comparison baseline; needs ``|S| ≥ 3`` to be finite)."""
    if n_left < 3:
        raise ValueError("the |N|/log|S| guarantee needs |S| >= 3")
    return n_right / math.log2(n_left)


# ----------------------------------------------------------------------
# Section 5: radio broadcast lower bound
# ----------------------------------------------------------------------
def corollary51_min_rounds(i: int, s: int) -> int:
    """Corollary 5.1: reaching a ``2i/log(2s)`` fraction of the core graph's
    ``N`` takes at least ``1 + i`` rounds, for ``0 ≤ i ≤ log(2s)/2``."""
    log2s = math.log2(2 * s)
    if not 0 <= i <= log2s / 2:
        raise ValueError(f"Corollary 5.1 needs 0 <= i <= log(2s)/2, got i={i}")
    return 1 + i


def kushilevitz_mansour_lower_bound(diameter: int, n: int) -> float:
    """The ``Ω(D·log(n/D))`` broadcast-time lower bound (shape
    ``D·log₂(n/D)``), re-proved in Section 5 via the core graph."""
    if not 1 <= diameter < n:
        raise ValueError(f"need 1 <= D < n, got D={diameter}, n={n}")
    return diameter * math.log2(n / diameter)


# ----------------------------------------------------------------------
# Appendix A: deterministic guarantees
# ----------------------------------------------------------------------
def lemma_a1_guarantee(gamma: int, delta: int) -> float:
    """Lemma A.1 (naive greedy): ``|Γ¹_S(S')| ≥ γ/Δ``."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    return gamma / delta


def lemma_a3_guarantee(gamma: int, delta_avg: float) -> float:
    """Lemma A.3 (Procedure Partition on ``N^{2δ}``):
    ``|Γ¹_S(S')| ≥ γ/(8δ)`` where ``δ`` is the average right degree."""
    if delta_avg < 1:
        raise ValueError(f"average degree must be >= 1, got {delta_avg}")
    return gamma / (8 * delta_avg)


#: The maximizer of ``log₂c / (2(1+c))`` (stated before Corollary A.7):
#: ``scipy.optimize.minimize_scalar`` of its negative on ``[1.5, 10]``
#: (bounded), stored as the exact float it returns so that importing this
#: module loads no scipy.  The closed form is ``1/W(1/e)`` (``c ln c = 1 + c``).
OPTIMAL_DEGREE_CLASS_BASE: float = 3.5911218209548803

#: The maximum value ``≈ 0.20087`` of ``log₂c / (2(1+c))``.
OPTIMAL_DEGREE_CLASS_CONSTANT: float = math.log2(OPTIMAL_DEGREE_CLASS_BASE) / (
    2 * (1 + OPTIMAL_DEGREE_CLASS_BASE)
)


def lemma_a5_class_guarantee(class_size: int, c: float) -> float:
    """Lemma A.5: within one degree class ``N^{(i)}`` (degrees in
    ``[c^{i−1}, c^i)``) some ``S'`` uniquely covers ``≥ |N^{(i)}|/(2(1+c))``."""
    if c <= 1:
        raise ValueError(f"class base c must exceed 1, got {c}")
    return class_size / (2 * (1 + c))


def degree_class_guarantee(gamma: int, delta: float, c: float | None = None) -> float:
    """Corollaries A.6/A.7: ``|Γ¹_S(S')| ≥ γ·log₂c / (2(1+c)·log₂Δ)``;
    with the optimal ``c* ≈ 3.59112`` this is ``≥ 0.20087·γ/log₂Δ``."""
    if delta <= 1:
        raise ValueError(f"Δ must exceed 1 for a log₂Δ bound, got {delta}")
    if c is None:
        c = OPTIMAL_DEGREE_CLASS_BASE
    return gamma * math.log2(c) / (2 * (1 + c) * math.log2(delta))


def lemma_a8_guarantee(gamma: int, delta_avg: float, c: float, t: float) -> float:
    """Corollary A.8 (average-degree version): for any ``c, t > 1``,
    ``|Γ¹_S(S')| ≥ (1 − 1/t)·γ / (2(1+c)·log_c(tδ))``."""
    if c <= 1 or t <= 1:
        raise ValueError("Corollary A.8 requires c > 1 and t > 1")
    if t * delta_avg <= 1:
        raise ValueError("tδ must exceed 1")
    return (1 - 1 / t) * gamma / (2 * (1 + c) * math.log(t * delta_avg, c))


def lemma_a13_guarantee(gamma: int, delta_avg: float) -> float:
    """Lemma A.13 (recursive Partition): ``|Γ¹_S(S')| ≥ γ/(9·log₂(2δ))``."""
    if delta_avg < 1:
        raise ValueError(f"average degree must be >= 1, got {delta_avg}")
    return gamma / (9 * math.log2(2 * delta_avg))


def corollary_a15_guarantee(gamma: int, delta_avg: float) -> float:
    """Corollary A.15: ``|Γ¹_S(S')| ≥ min{γ/(9·log₂δ), γ/20}`` (for
    ``δ < 2`` the proof gives ``γ/20`` outright)."""
    if delta_avg < 1:
        raise ValueError(f"average degree must be >= 1, got {delta_avg}")
    if delta_avg < 2:
        return gamma / 20
    return min(gamma / (9 * math.log2(delta_avg)), gamma / 20)


def _mg_component3(x: float) -> float:
    """``max_{t>1} (1 − 1/t) · 0.20087 / log₂(t·x)`` (numeric; the optimal
    ``t`` solves ``ln(t·x) = t − 1``)."""
    from scipy.optimize import minimize_scalar

    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")

    def neg(t: float) -> float:
        denom = math.log2(t * x)
        if denom <= 0:
            return math.inf
        return -(1 - 1 / t) * OPTIMAL_DEGREE_CLASS_CONSTANT / denom

    hi = 10 + 5 * math.log(x + math.e)
    res = minimize_scalar(neg, bounds=(1 + 1e-9, hi), method="bounded")
    return float(-res.fun)


def mg_bound(x: float) -> float:
    """The portfolio guarantee ``MG(x)`` of Corollary A.16 (per-unit-of-γ):

    ``MG(x) = max{ min{1/(9·log₂x), 1/20},  1/(9·log₂2x),
    max_{t>1}(1−1/t)·0.20087/log₂(t·x) }``.

    ``βw ≥ β·MG(δ̄)`` for any expander (Lemma A.18), and ``βw ≥ β·MG(Δ/β)``
    in the ``β ≥ 1`` regime.
    """
    if x < 1:
        raise ValueError(f"average degree must be >= 1, got {x}")
    comp1 = 1 / 20 if x < 2 else min(1 / (9 * math.log2(x)), 1 / 20)
    comp2 = 1 / (9 * math.log2(2 * x))
    comp3 = _mg_component3(x)
    return max(comp1, comp2, comp3)
