"""Local-search baseline."""

import numpy as np
import pytest

from repro.graphs import BipartiteGraph, core_graph, random_bipartite
from repro.spokesman import (
    spokesman_exact,
    spokesman_greedy_add,
    spokesman_portfolio,
)

from oracles import recomputed_greedy_add  # sibling module on sys.path


class TestGreedyAdd:
    def test_local_optimum_no_improving_move(self):
        gen = np.random.default_rng(2)
        gs = random_bipartite(8, 12, 0.3, rng=gen)
        result = spokesman_greedy_add(gs)
        base = result.unique_count
        member = np.zeros(gs.n_left, dtype=bool)
        member[result.subset] = True
        for u in range(gs.n_left):
            flipped = member.copy()
            flipped[u] = ~flipped[u]
            assert gs.unique_cover_count(np.flatnonzero(flipped)) <= base

    @pytest.mark.parametrize("seed", range(8))
    def test_never_beats_exact(self, seed):
        gen = np.random.default_rng(600 + seed)
        gs = random_bipartite(9, 12, 0.35, rng=gen)
        assert (
            spokesman_greedy_add(gs).unique_count
            <= spokesman_exact(gs).unique_count
        )

    def test_core_graph_hits_optimum(self):
        # Hill climbing finds the single-leaf optimum on core graphs.
        s = 32
        result = spokesman_greedy_add(core_graph(s))
        assert result.unique_count == 2 * s - 1

    def test_disjoint_stars(self):
        gs = BipartiteGraph(
            3, 9, [(i, 3 * i + j) for i in range(3) for j in range(3)]
        )
        assert spokesman_greedy_add(gs).unique_count == 9

    def test_empty(self):
        gs = BipartiteGraph(3, 3, [])
        assert spokesman_greedy_add(gs).unique_count == 0

    def test_empty_left_side(self):
        gs = BipartiteGraph(0, 4, [])
        result = spokesman_greedy_add(gs)
        assert result.unique_count == 0
        assert result.subset.size == 0
        best, results = spokesman_portfolio(gs, rng=0)
        assert best.unique_count == 0
        assert results["greedy-add"].subset.size == 0

    @pytest.mark.parametrize("max_passes", [3, 10_000])
    def test_incremental_gains_match_recomputed(self, max_passes):
        # Remove moves are rare (a few percent of random instances take
        # one), so one case sweeps many seeded instances.
        for seed in range(200):
            gen = np.random.default_rng(700 + seed)
            gs = random_bipartite(
                int(gen.integers(1, 30)),
                int(gen.integers(1, 60)),
                float(gen.uniform(0.05, 0.4)),
                rng=gen,
            )
            got = spokesman_greedy_add(gs, max_passes=max_passes)
            want = recomputed_greedy_add(gs, max_passes=max_passes)
            assert np.array_equal(got.subset, want.subset), seed
            assert got.unique_count == want.unique_count, seed

    @pytest.mark.parametrize("s", [4, 8, 16])
    def test_incremental_gains_match_recomputed_core(self, s):
        gs = core_graph(s)
        got = spokesman_greedy_add(gs)
        assert np.array_equal(got.subset, recomputed_greedy_add(gs).subset)

    def test_deterministic(self, core8):
        a = spokesman_greedy_add(core8)
        b = spokesman_greedy_add(core8)
        assert (a.subset == b.subset).all()
