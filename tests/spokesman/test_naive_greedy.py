"""Lemma A.1 naive greedy: trace semantics and the γ/Δ_S guarantee."""

import numpy as np
import pytest

from repro.graphs import BipartiteGraph, core_graph, random_bipartite
from repro.spokesman import (
    naive_greedy_trace,
    nonisolated_right_count,
    spokesman_naive_greedy,
)

from oracles import serial_naive_greedy_trace  # sibling module on sys.path


class TestTrace:
    def test_certified_set_is_uniquely_covered(self, tiny_bipartite):
        s_uni, n_uni, steps = naive_greedy_trace(tiny_bipartite)
        counts = tiny_bipartite.cover_counts(s_uni)
        assert (counts[n_uni] == 1).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_certified_set_random(self, seed):
        gen = np.random.default_rng(seed)
        gs = random_bipartite(8, 12, float(gen.uniform(0.15, 0.6)), rng=gen)
        s_uni, n_uni, steps = naive_greedy_trace(gs)
        if s_uni.size == 0:
            return
        counts = gs.cover_counts(s_uni)
        assert (counts[n_uni] == 1).all()
        assert n_uni.size >= steps  # at least one N_uni vertex per step

    def test_star_takes_one_step(self):
        # One left vertex covering everything.
        gs = BipartiteGraph(1, 6, [(0, j) for j in range(6)])
        s_uni, n_uni, steps = naive_greedy_trace(gs)
        assert steps == 1
        assert s_uni.tolist() == [0]
        assert n_uni.size == 6


class TestLockstepMatchesSerial:
    @pytest.mark.parametrize("seed", range(40))
    def test_random(self, seed):
        # The stacked trace keeps the serial pick order, certified set and
        # step count, including ties in the fewest-neighbours rule.
        gen = np.random.default_rng(1300 + seed)
        gs = random_bipartite(
            int(gen.integers(1, 30)),
            int(gen.integers(1, 40)),
            float(gen.uniform(0.05, 0.7)),
            rng=gen,
        )
        got, want = naive_greedy_trace(gs), serial_naive_greedy_trace(gs)
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[2] == want[2]

    @pytest.mark.parametrize("s", [4, 8, 16, 32])
    def test_core_graph(self, s):
        gs = core_graph(s)
        got, want = naive_greedy_trace(gs), serial_naive_greedy_trace(gs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(15))
    def test_gamma_over_delta_s(self, seed):
        gen = np.random.default_rng(200 + seed)
        gs = random_bipartite(9, 13, float(gen.uniform(0.1, 0.7)), rng=gen)
        gamma = nonisolated_right_count(gs)
        if gamma == 0 or gs.max_left_degree == 0:
            return
        result = spokesman_naive_greedy(gs)
        assert result.unique_count >= gamma / gs.max_left_degree - 1e-9

    @pytest.mark.parametrize("s", [4, 8, 16])
    def test_core_graph(self, s):
        gs = core_graph(s)
        result = spokesman_naive_greedy(gs)
        assert result.unique_count >= gs.n_right / gs.max_left_degree - 1e-9

    def test_disjoint_stars_optimal(self):
        # Two disjoint stars: greedy must pick both centres.
        gs = BipartiteGraph(2, 6, [(0, j) for j in range(3)] + [(1, j) for j in range(3, 6)])
        result = spokesman_naive_greedy(gs)
        assert result.unique_count == 6

    def test_empty(self):
        gs = BipartiteGraph(3, 3, [])
        result = spokesman_naive_greedy(gs)
        assert result.unique_count == 0
