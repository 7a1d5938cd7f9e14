"""Portfolio solver and the Corollary A.16 MG guarantee."""

import numpy as np
import pytest

from repro.expansion import mg_bound
from repro.graphs import cycle_graph, random_bipartite
from repro.spokesman import (
    DETERMINISTIC_ALGORITHMS,
    RANDOMIZED_ALGORITHMS,
    nonisolated_right_count,
    spokesman_exact,
    spokesman_portfolio,
    wireless_lower_bound_of_set,
)


class TestPortfolio:
    def test_runs_all_algorithms(self, core8):
        best, results = spokesman_portfolio(core8, rng=0)
        expected = set(DETERMINISTIC_ALGORITHMS) | set(RANDOMIZED_ALGORITHMS)
        assert set(results) == expected
        assert best.unique_count == max(r.unique_count for r in results.values())

    def test_include_filter(self, core8):
        best, results = spokesman_portfolio(core8, rng=0, include=["partition"])
        assert set(results) == {"partition"}

    @pytest.mark.parametrize(
        "include",
        [
            None,
            ["partition", "threshold-sweep"],
            ["degree-classes", "recursive", "greedy-add"],
            ["recursive"],
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_shared_peel_matches_each_algorithm(self, include, seed):
        # The portfolio peels the partition family's populations in one
        # batch; every member must still answer exactly as when run alone.
        gen = np.random.default_rng(950 + seed)
        gs = random_bipartite(
            int(gen.integers(1, 40)),
            int(gen.integers(1, 60)),
            float(gen.uniform(0.05, 0.5)),
            rng=gen,
        )
        _, results = spokesman_portfolio(gs, rng=0, include=include)
        for name, result in results.items():
            if name not in DETERMINISTIC_ALGORITHMS:
                continue
            alone = DETERMINISTIC_ALGORITHMS[name](gs)
            assert result.algorithm == alone.algorithm
            assert np.array_equal(result.subset, alone.subset), name
            assert result.unique_count == alone.unique_count

    def test_unknown_include_raises(self, core8):
        with pytest.raises(ValueError):
            spokesman_portfolio(core8, rng=0, include=["nope"])

    @pytest.mark.parametrize("seed", range(10))
    def test_mg_guarantee(self, seed):
        gen = np.random.default_rng(800 + seed)
        gs = random_bipartite(10, 14, float(gen.uniform(0.15, 0.6)), rng=gen)
        gamma = nonisolated_right_count(gs)
        if gamma == 0:
            return
        deg = gs.right_degrees
        delta = float(deg[deg >= 1].mean())
        best, _ = spokesman_portfolio(gs, rng=gen)
        assert best.unique_count >= gamma * mg_bound(max(delta, 1.0)) - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_never_beats_exact(self, seed):
        gen = np.random.default_rng(900 + seed)
        gs = random_bipartite(8, 12, 0.35, rng=gen)
        best, _ = spokesman_portfolio(gs, rng=gen)
        assert best.unique_count <= spokesman_exact(gs).unique_count


class TestWirelessLowerBoundOfSet:
    def test_cycle_arc(self):
        g = cycle_graph(12)
        ratio, result = wireless_lower_bound_of_set(g, [0, 1, 2], rng=0)
        # The two arc endpoints uniquely cover their outside neighbours.
        assert ratio >= 2 / 3 - 1e-9
        assert set(result.subset.tolist()) <= {0, 1, 2}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            wireless_lower_bound_of_set(cycle_graph(5), [], rng=0)

    def test_lower_bounds_exact(self):
        from repro.expansion import wireless_expansion_of_set_exact

        g = cycle_graph(10)
        subset = [0, 1, 2, 3]
        lb, _ = wireless_lower_bound_of_set(g, subset, rng=1)
        exact, _ = wireless_expansion_of_set_exact(g, subset)
        assert lb <= exact + 1e-9
