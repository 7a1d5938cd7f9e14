"""Portfolio solver and the Corollary A.16 MG guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansion import mg_bound
from repro.graphs import Graph, cycle_graph, erdos_renyi, hypercube, random_bipartite
from repro.spokesman import (
    DETERMINISTIC_ALGORITHMS,
    RANDOMIZED_ALGORITHMS,
    SpokesmanResult,
    nonisolated_right_count,
    spokesman_exact,
    spokesman_portfolio,
    wireless_lower_bound_of_set,
    wireless_lower_bounds_of_sets,
)
from repro.spokesman.portfolio import portfolio_blocks

from oracles import reference_portfolio  # sibling module on sys.path


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


def assert_same_result(got: SpokesmanResult, want: SpokesmanResult) -> None:
    assert got.algorithm == want.algorithm
    assert got.subset.dtype == want.subset.dtype
    assert np.array_equal(got.subset, want.subset)
    assert got.unique_count == want.unique_count


def check_against_oracles(graph, candidates, seeds, size_cap):
    """Every scored candidate's portfolio members, stacked and alone,
    equal the serial oracles on its own ``G_S``; the per-set values equal
    the oracles' best over ``|S|`` (``inf`` past ``size_cap``) whatever
    the shard split.  Returns the scored candidates' stacked graph."""
    scored = [i for i, c in enumerate(candidates) if 1 <= len(c) <= size_cap]
    blocks, _, _ = graph.boundary_blocks([candidates[i] for i in scored])
    members = portfolio_blocks(blocks, [seeds[i] for i in scored])
    want_values = np.full(len(candidates), np.inf)
    for c, i in enumerate(scored):
        gs, _, _ = graph.boundary_bipartite(candidates[i])
        want = reference_portfolio(gs, seeds[i])
        _, alone = spokesman_portfolio(gs, rng=seeds[i])
        assert list(members) == list(alone) == list(want)
        lo, hi = blocks.left_offsets[c : c + 2]
        for name, member in members.items():
            stacked = SpokesmanResult(
                np.flatnonzero(member.chosen[lo:hi]), int(member.counts[c]),
                gs.n_left, gs.n_right, member.algorithms[c],
            )
            assert_same_result(stacked, want[name])
            assert_same_result(alone[name], want[name])
        best = max(r.unique_count for r in want.values())
        want_values[i] = best / len(candidates[i])
    for parts in (1, 2, 3):
        shards = np.array_split(np.arange(len(candidates)), parts)
        got_values = np.concatenate([
            wireless_lower_bounds_of_sets(
                graph, [candidates[j] for j in shard], [seeds[j] for j in shard],
                size_cap,
            )
            for shard in shards
        ])
        assert np.array_equal(got_values, want_values), parts
    return blocks


@st.composite
def graphs_and_candidates(draw):
    n = draw(st.integers(1, 14))
    graph = erdos_renyi(n, draw(st.floats(0.05, 0.95)), rng=draw(st.integers(0, 999)))
    candidates = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(n)))
        candidates.append(np.array(order[: draw(st.integers(1, n))]))
    if draw(st.booleans()):
        candidates.append(candidates[0][::-1].copy())  # a repeated set
    seeds = [draw(st.integers(0, 2**32)) for _ in candidates]
    return graph, candidates, seeds, draw(st.integers(1, n))


class TestStackedMatchesOracles:
    @settings(max_examples=60, deadline=None)
    @given(graphs_and_candidates())
    def test_random_graphs(self, case):
        check_against_oracles(*case)

    def test_edge_cases(self):
        # K6 on 0..5, the path 6-7-8, and the isolated vertex 9.
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        graph = Graph(10, edges + [(6, 7), (7, 8)])
        candidates = [
            np.array([9]),  # a single vertex with an empty boundary
            np.array([6]),  # a single vertex
            np.array([4, 0, 1, 2, 3]),  # |N| = 1 < |S|: the Lemma 4.3 path
            np.arange(6),  # a whole component: empty boundary
            np.array([6, 7]),
            np.array([7, 6]),  # the same set again
            np.arange(8),  # past size_cap: inf
            np.array([0, 1, 2, 3, 6, 7]),  # β < 1 beside a β ≥ 1 block
        ]
        blocks = check_against_oracles(graph, candidates, list(range(8)), 6)
        lefts, rights = blocks.sizes("left"), blocks.sizes("right")
        assert (rights == 0).sum() == 2 and (rights < lefts).sum() >= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_sets_low_beta(self, seed):
        # Dense sets of a dense graph: most blocks take the Lemma 4.3 path
        # and the recursion goes below its first level.
        gen = np.random.default_rng(seed)
        graph = erdos_renyi(24, 0.6, rng=gen)
        candidates = [gen.choice(24, size=int(gen.integers(1, 24)), replace=False)
                      for _ in range(12)]
        check_against_oracles(graph, candidates, list(range(12)), 24)


@pytest.mark.parametrize("limit", [1, 7, 40])
def test_stack_size_is_inert(monkeypatch, limit):
    # Long candidate lists are stacked a few vertices at a time; where the
    # stacks break never moves a value.
    import repro.spokesman.portfolio as portfolio

    gen = np.random.default_rng(limit)
    graph = erdos_renyi(30, 0.25, rng=gen)
    candidates = [gen.choice(30, size=int(gen.integers(1, 20)), replace=False)
                  for _ in range(15)]
    seeds = list(range(15))
    whole = wireless_lower_bounds_of_sets(graph, candidates, seeds, 16)
    monkeypatch.setattr(portfolio, "_STACK_VERTICES", limit)
    stacked = wireless_lower_bounds_of_sets(graph, candidates, seeds, 16)
    assert np.array_equal(stacked, whole)
    assert np.isinf(whole).any() and np.isfinite(whole).any()


class TestNonSetCandidates:
    @pytest.mark.parametrize("bad", [[0, 1, 1], [0, -1], [0, 99]],
                             ids=["repeat", "negative", "past_n"])
    def test_rejected_like_the_exact_arm(self, bad):
        # A repeat used to score as a smaller set under the length-with-
        # repeats size, and an id out of range raised a graph error.
        from repro.expansion import evaluate_candidates

        candidates = [np.array([2, 3]), np.array(bad)]
        with pytest.raises(ValueError) as exact:
            evaluate_candidates(hypercube(4), candidates, 3)
        with pytest.raises(ValueError) as lower:
            wireless_lower_bounds_of_sets(hypercube(4), candidates, [0, 1], 3)
        assert str(lower.value) == str(exact.value)
        assert str(exact.value).startswith("candidate 1 ([0, ")

    def test_unscored_widths_are_not_checked(self):
        values = wireless_lower_bounds_of_sets(
            hypercube(4), [np.array([0, 0, 0, 0]), np.array([0, 1])], [0, 1], 3
        )
        assert values[0] == np.inf and np.isfinite(values[1])
