"""Corollary A.8 / Lemma A.11 threshold-parameterized Partition."""

import numpy as np
import pytest

from repro.graphs import BipartiteGraph, core_graph, random_bipartite
from repro.spokesman import (
    nonisolated_right_count,
    spokesman_partition,
    spokesman_threshold_partition,
    spokesman_threshold_sweep,
    threshold_population,
)


class TestThresholdPopulation:
    def test_markov_fraction(self):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            gs = random_bipartite(10, 20, 0.3, rng=gen)
            gamma = nonisolated_right_count(gs)
            if gamma == 0:
                continue
            for t in (1.5, 2.0, 4.0):
                kept = int(threshold_population(gs, t).sum())
                assert kept >= (1 - 1 / t) * gamma - 1e-9

    def test_monotone_in_t(self, core8):
        sizes = [
            int(threshold_population(core8, t).sum()) for t in (1.2, 2.0, 8.0)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_rejects_bad_threshold(self, core8):
        with pytest.raises(ValueError):
            threshold_population(core8, 1.0)

    def test_empty_graph(self):
        gs = BipartiteGraph(2, 3, [])
        assert not threshold_population(gs, 2.0).any()


class TestThresholdPartition:
    @pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 8.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_guarantee(self, t, seed):
        gen = np.random.default_rng(1000 + seed)
        gs = random_bipartite(10, 16, 0.3, rng=gen)
        deg = gs.right_degrees
        noniso = deg >= 1
        if not noniso.any():
            return
        delta = float(deg[noniso].mean())
        m = int(threshold_population(gs, t).sum())
        result = spokesman_threshold_partition(gs, t)
        assert result.unique_count >= m / (2 * t * delta) - 1e-9

    def test_t2_matches_lemma_a3_choice(self, core8):
        # t = 2 manages exactly the N^{2δ} population of Lemma A.3.
        a = spokesman_threshold_partition(core8, 2.0)
        b = spokesman_partition(core8)
        assert a.unique_count == b.unique_count

    def test_empty(self):
        gs = BipartiteGraph(3, 3, [])
        assert spokesman_threshold_partition(gs).unique_count == 0


class TestThresholdSweep:
    def test_dominates_single_thresholds(self, core8):
        sweep = spokesman_threshold_sweep(core8)
        for t in (1.5, 2.0, 3.0, 4.0, 8.0):
            assert (
                sweep.unique_count
                >= spokesman_threshold_partition(core8, t).unique_count
            )

    def test_core_graph_payoff(self):
        gs = core_graph(32)
        sweep = spokesman_threshold_sweep(gs)
        # Large thresholds admit the full population; payoff beats A.3's.
        assert sweep.unique_count >= spokesman_partition(gs).unique_count

    def test_rejects_empty_ladder(self, core8):
        with pytest.raises(ValueError, match="thresholds"):
            spokesman_threshold_sweep(core8, thresholds=())

    def test_deterministic(self, core8):
        a = spokesman_threshold_sweep(core8)
        b = spokesman_threshold_sweep(core8)
        assert (a.subset == b.subset).all()
