"""Lemma 4.2/4.3 randomized sampling algorithm."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.graphs import BipartiteGraph, core_graph, random_bipartite, random_regular
from repro.spokesman import (
    largest_degree_class,
    lemma43_reduction,
    spokesman_sampling,
    spokesman_sampling_all_scales,
)
from repro.spokesman.sampling import _all_scales_plan, _sampling_plan, draw_blocks


class TestLargestDegreeClass:
    def test_uniform_degrees_single_class(self):
        gs = BipartiteGraph(4, 6, [(i % 4, j) for j in range(6) for i in [j, j + 1]])
        j, members = largest_degree_class(gs)
        assert j == 1  # all degrees are 2 -> class [2, 4)
        assert members.size == 6

    def test_core_graph_class(self):
        gs = core_graph(16)
        j, members = largest_degree_class(gs)
        # Class sizes are s per level for degrees s/2^i <= 2δ_N; the class
        # chosen must be one of the eligible levels.
        assert members.size >= 16

    def test_empty_raises(self):
        gs = BipartiteGraph(2, 2, [])
        with pytest.raises(ValueError):
            largest_degree_class(gs)


class TestLemma43Reduction:
    def test_output_expansion_at_least_one(self):
        # β < 1 instance: many left, few right.
        gen = np.random.default_rng(5)
        gs = random_bipartite(20, 8, 0.3, rng=gen)
        induced, left_ids = lemma43_reduction(gs)
        assert induced.n_left <= induced.n_right or induced.n_right == 0
        assert left_ids.size == induced.n_left

    def test_left_ids_valid(self):
        gen = np.random.default_rng(6)
        gs = random_bipartite(15, 6, 0.4, rng=gen)
        induced, left_ids = lemma43_reduction(gs)
        assert (left_ids < gs.n_left).all()
        # Each kept vertex must actually have edges.
        assert (induced.left_degrees >= 1).all()

    def test_covers_n_prime(self):
        gen = np.random.default_rng(7)
        gs = random_bipartite(12, 5, 0.5, rng=gen)
        induced, _ = lemma43_reduction(gs)
        if induced.n_right:
            # By construction S'' covers all of N'.
            assert induced.cover_count(np.arange(induced.n_left)) == induced.n_right


class TestSampling:
    def test_deterministic_given_seed(self, core8):
        a = spokesman_sampling(core8, rng=42)
        b = spokesman_sampling(core8, rng=42)
        assert a.unique_count == b.unique_count
        assert (a.subset == b.subset).all()

    @pytest.mark.parametrize("s", [8, 16, 32])
    def test_expected_guarantee_core(self, s):
        # E[payoff] = Ω(γ/log 2δ_N); with 16 trials the best draw should
        # clear a conservative e^{-3}/4 fraction of the largest class.
        gs = core_graph(s)
        result = spokesman_sampling(gs, rng=1, trials=16)
        _j, members = largest_degree_class(gs)
        floor = np.exp(-3) / 4 * members.size
        assert result.unique_count >= floor

    def test_low_beta_path(self):
        # β < 1: must route through the Lemma 4.3 reduction and still work.
        gen = np.random.default_rng(9)
        gs = random_bipartite(24, 8, 0.25, rng=gen)
        result = spokesman_sampling(gs, rng=2, trials=16)
        assert result.unique_count >= 1
        assert (result.subset < 24).all()

    def test_empty_graph(self):
        gs = BipartiteGraph(3, 3, [])
        assert spokesman_sampling(gs, rng=0).unique_count == 0

    def test_all_scales_dominates_trials(self, core8):
        single = spokesman_sampling(core8, rng=3, trials=4)
        multi = spokesman_sampling_all_scales(core8, rng=3, trials_per_scale=4)
        # Not a theorem, but with shared seeds and more scales the all-scale
        # variant should do at least as well on the core graph.
        assert multi.unique_count >= single.unique_count


class TestDrawBlocks:
    """``draw_blocks`` builds an int seed's generator once and restores its
    state per plan; the masks must be those of a fresh ``as_rng(seed)``
    per plan, and a shared ``Generator`` is still consumed in order."""

    @staticmethod
    def _fresh_per_plan(blocks, plans, seeds):
        # The per-plan construction draw_blocks replaced, as the oracle.
        layers = []
        for target, thresholds in plans:
            ends = [0] + np.cumsum(blocks.block_sums(target, "left")).tolist()
            depth = max([t.shape[0] for t in thresholds if t is not None], default=1)
            layer = np.zeros((blocks.graph.n_left, depth), dtype=bool)
            layers.append((np.flatnonzero(target), ends, thresholds, layer))
        for c, seed in enumerate(seeds):
            for ids, ends, thresholds, layer in layers:
                gen = as_rng(seed)
                if thresholds[c] is None:
                    continue
                cols = ids[ends[c] : ends[c + 1]]
                uniform = gen.random((thresholds[c].shape[0], cols.size))
                layer[cols, : uniform.shape[0]] = (uniform < thresholds[c]).T
        chosen = []
        for *_, layer in layers:
            best = blocks.unique_counts(layer).argmax(axis=1)
            chosen.append(layer[np.arange(layer.shape[0]), best[blocks.left_block]])
        return chosen

    def _blocks(self):
        graph = random_regular(60, 4, rng=1)
        pick = np.random.default_rng(0)
        subsets = [pick.choice(60, size=k, replace=False) for k in (1, 4, 9, 15)]
        blocks, _, _ = graph.boundary_blocks(subsets)
        return blocks, [_sampling_plan(blocks), _all_scales_plan(blocks, 3)]

    def test_int_seeds_match_a_fresh_generator_per_plan(self):
        blocks, plans = self._blocks()
        seeds = [11, np.int64(12), 13, 14]
        got = draw_blocks(blocks, plans, seeds)
        want = self._fresh_per_plan(blocks, plans, seeds)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_generator_seeds_are_consumed_in_shared_order(self):
        blocks, plans = self._blocks()

        def own():
            return [np.random.default_rng(s) for s in (11, 12, 13, 14)]

        def shared():
            return [np.random.default_rng(11)] * 4

        for seeds in (own, shared):
            got = draw_blocks(blocks, plans, seeds())
            for a, b in zip(got, self._fresh_per_plan(blocks, plans, seeds())):
                assert np.array_equal(a, b)
