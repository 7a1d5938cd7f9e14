"""The closed-form bound formulas of repro.expansion.bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansion import (
    OPTIMAL_DEGREE_CLASS_BASE,
    OPTIMAL_DEGREE_CLASS_CONSTANT,
    corollary51_min_rounds,
    corollary_a15_guarantee,
    decay_success_lower_bound,
    degree_class_guarantee,
    kushilevitz_mansour_lower_bound,
    lemma31_expansion_bound,
    lemma32_unique_lower_bound,
    lemma42_shape,
    lemma43_shape,
    lemma_a1_guarantee,
    lemma_a3_guarantee,
    lemma_a5_class_guarantee,
    lemma_a8_guarantee,
    lemma_a13_guarantee,
    mg_bound,
    spokesman_cw_guarantee,
    theorem11_shape,
    unique_success_probability,
)


class TestSection3Bounds:
    def test_lemma31(self):
        assert lemma31_expansion_bound(4, 2.0, 0.5, 1.0) == pytest.approx(
            0.75 + 0.25
        )
        with pytest.raises(ValueError):
            lemma31_expansion_bound(0, 1.0, 0.5, 1.0)

    def test_lemma32(self):
        assert lemma32_unique_lower_bound(3, 4) == 2
        assert lemma32_unique_lower_bound(2, 4) == 0


class TestSamplingBounds:
    def test_unique_probability_peak(self):
        # d·p·(1−p)^{d−1} is maximized near p = 1/d.
        assert unique_success_probability(1, 1.0) == 1.0
        assert unique_success_probability(4, 0.25) == pytest.approx(
            4 * 0.25 * 0.75**3
        )
        with pytest.raises(ValueError):
            unique_success_probability(0, 0.5)
        with pytest.raises(ValueError):
            unique_success_probability(3, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 18))
    def test_decay_scale_beats_e_minus_3(self, j):
        # Lemma 4.2: for deg in [2^j, 2^{j+1}), p = 2^{-j} gives ≥ e^{-3}.
        p = 2.0 ** (-j)
        floor = decay_success_lower_bound()
        for d in {2**j, 2 ** (j + 1) - 1}:
            assert unique_success_probability(d, p) >= floor

    def test_lemma42_shape(self):
        assert lemma42_shape(2.0, 16) == pytest.approx(2 / math.log2(16))
        with pytest.raises(ValueError):
            lemma42_shape(0.5, 16)

    def test_lemma43_shape(self):
        assert lemma43_shape(0.5, 16) == pytest.approx(0.5 / 4)
        with pytest.raises(ValueError):
            lemma43_shape(0.01, 16)  # below 1/Δ

    def test_theorem11_shape_dispatch(self):
        # β ≥ 1: min is Δ/β; β < 1: min is Δ·β.
        assert theorem11_shape(2.0, 16) == pytest.approx(lemma42_shape(2.0, 16))
        assert theorem11_shape(0.5, 16) == pytest.approx(lemma43_shape(0.5, 16))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=8.0),
        st.integers(min_value=8, max_value=512),
    )
    def test_theorem11_shape_positive(self, beta, delta):
        if beta < 1 / delta:
            return
        assert theorem11_shape(beta, delta) > 0


class TestSection5Bounds:
    def test_corollary51(self):
        assert corollary51_min_rounds(0, 8) == 1
        assert corollary51_min_rounds(2, 8) == 3
        with pytest.raises(ValueError):
            corollary51_min_rounds(5, 8)  # beyond log(2s)/2

    def test_km_bound(self):
        assert kushilevitz_mansour_lower_bound(4, 64) == pytest.approx(16.0)
        with pytest.raises(ValueError):
            kushilevitz_mansour_lower_bound(64, 64)


class TestAppendixBounds:
    def test_naive(self):
        assert lemma_a1_guarantee(40, 8) == 5.0
        with pytest.raises(ValueError):
            lemma_a1_guarantee(40, 0)

    def test_partition(self):
        assert lemma_a3_guarantee(80, 2.0) == 5.0

    def test_recursive(self):
        assert lemma_a13_guarantee(90, 2.0) == pytest.approx(90 / 18)

    def test_a15_piecewise(self):
        assert corollary_a15_guarantee(100, 1.5) == 5.0  # δ < 2 -> γ/20
        assert corollary_a15_guarantee(100, 2.0) == 5.0  # min hits γ/20
        big = corollary_a15_guarantee(100, 1000.0)
        assert big == pytest.approx(100 / (9 * math.log2(1000)))

    def test_degree_class_constants(self):
        # The paper states c* ≈ 3.59112, value ≈ 0.20087.
        assert OPTIMAL_DEGREE_CLASS_BASE == pytest.approx(3.59112, abs=1e-3)
        assert OPTIMAL_DEGREE_CLASS_CONSTANT == pytest.approx(0.20087, abs=1e-4)

    def test_degree_class_base_literal(self):
        # The stored literal is the optimizer's maximizer and the closed
        # form 1/W(1/e) of c·ln c = 1 + c.
        from scipy.optimize import minimize_scalar
        from scipy.special import lambertw

        found = minimize_scalar(
            lambda c: -math.log2(c) / (2 * (1 + c)),
            bounds=(1.5, 10.0),
            method="bounded",
        ).x
        closed = 1 / lambertw(1 / math.e).real
        assert OPTIMAL_DEGREE_CLASS_BASE == pytest.approx(found, abs=1e-5)
        assert OPTIMAL_DEGREE_CLASS_BASE == pytest.approx(closed, abs=1e-5)

    def test_class_guarantee(self):
        assert lemma_a5_class_guarantee(18, 2.0) == 3.0
        with pytest.raises(ValueError):
            lemma_a5_class_guarantee(18, 1.0)

    def test_degree_class_guarantee_optimal_c(self):
        val = degree_class_guarantee(100, 16.0)
        assert val == pytest.approx(
            100 * OPTIMAL_DEGREE_CLASS_CONSTANT / math.log2(16)
        )

    def test_a8(self):
        val = lemma_a8_guarantee(100, 4.0, 2.0, 2.0)
        assert val == pytest.approx(0.5 * 100 / (2 * 3 * math.log2(8)))
        with pytest.raises(ValueError):
            lemma_a8_guarantee(100, 4.0, 1.0, 2.0)


class TestMG:
    def test_small_degree_floor(self):
        # δ < 2: the 1/20 floor dominates the first component.
        assert mg_bound(1.0) >= 1 / 20

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1.0, max_value=10_000.0))
    def test_dominates_components(self, x):
        val = mg_bound(x)
        assert val >= 1 / (9 * math.log2(2 * x)) - 1e-12
        if x >= 2:
            assert val >= min(1 / (9 * math.log2(x)), 1 / 20) - 1e-12

    def test_monotone_decreasing_eventually(self):
        xs = [2, 8, 64, 1024]
        vals = [mg_bound(float(x)) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            mg_bound(0.5)

    def test_cw_guarantee(self):
        assert spokesman_cw_guarantee(64, 8) == pytest.approx(64 / 3)
        with pytest.raises(ValueError):
            spokesman_cw_guarantee(64, 2)
