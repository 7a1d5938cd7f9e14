"""Cross-module property-based tests (hypothesis).

These encode the paper's structural invariants as universally-quantified
properties over random instances — the safety net underneath the
per-module unit tests.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expansion import (
    bipartite_subset_profile,
    max_unique_coverage_exact,
    mg_bound,
    unique_expansion_exact,
    vertex_expansion_exact,
    wireless_expansion_exact,
)
from repro.graphs import BipartiteGraph, Graph
from repro.radio import RadioNetwork
from repro.spokesman import (
    evaluate_subset,
    nonisolated_right_count,
    procedure_partition,
    spokesman_degree_classes,
    spokesman_exact,
    spokesman_greedy_add,
    spokesman_naive_greedy,
    spokesman_partition,
    spokesman_recursive,
    spokesman_sampling,
)

from reference_sim import step_naive  # tests/ is on sys.path (conftest.py)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def bipartite_graphs(draw, max_left=8, max_right=12):
    n_left = draw(st.integers(1, max_left))
    n_right = draw(st.integers(1, max_right))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
            max_size=min(40, n_left * n_right),
        )
    )
    return BipartiteGraph(n_left, n_right, sorted(pairs))


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    return Graph(n, sorted(pairs))


class TestExpansionOrdering:
    @settings(max_examples=25, **COMMON)
    @given(graphs(max_n=9))
    def test_observation_21(self, g):
        """β ≥ βw ≥ βu for every graph and α."""
        b, _ = vertex_expansion_exact(g, 0.5)
        bw, _ = wireless_expansion_exact(g, 0.5)
        bu, _ = unique_expansion_exact(g, 0.5)
        assert b + 1e-12 >= bw >= bu - 1e-12

    @settings(max_examples=25, **COMMON)
    @given(graphs(max_n=9))
    def test_lemma32_universal(self, g):
        """βu ≥ 2β − Δ holds for every graph."""
        if g.max_degree == 0:
            return
        b, _ = vertex_expansion_exact(g, 0.5)
        bu, _ = unique_expansion_exact(g, 0.5)
        assert bu >= 2 * b - g.max_degree - 1e-9


class TestSpokesmanAlgorithms:
    @settings(max_examples=30, **COMMON)
    @given(bipartite_graphs())
    def test_no_algorithm_beats_exact(self, gs):
        opt = spokesman_exact(gs).unique_count
        for algo in (
            spokesman_naive_greedy,
            spokesman_partition,
            spokesman_degree_classes,
            spokesman_recursive,
            spokesman_greedy_add,
        ):
            assert algo(gs).unique_count <= opt

    @settings(max_examples=30, **COMMON)
    @given(bipartite_graphs())
    def test_deterministic_guarantees(self, gs):
        gamma = nonisolated_right_count(gs)
        if gamma == 0:
            return
        deg = gs.right_degrees
        delta = float(deg[deg >= 1].mean())
        assert (
            spokesman_naive_greedy(gs).unique_count
            >= gamma / gs.max_left_degree - 1e-9
        )
        assert (
            spokesman_partition(gs).unique_count >= gamma / (8 * delta) - 1e-9
        )
        assert (
            spokesman_recursive(gs).unique_count
            >= gamma / (9 * math.log2(2 * delta)) - 1e-9
        )

    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs(), st.integers(0, 2**31 - 1))
    def test_sampling_valid_and_bounded(self, gs, seed):
        res = spokesman_sampling(gs, rng=seed)
        assert 0 <= res.unique_count <= gs.n_right
        assert (res.subset >= 0).all() and (res.subset < gs.n_left).all()
        # Re-evaluating the same subset reproduces the reported count.
        again = evaluate_subset(gs, res.subset, "recheck")
        assert again.unique_count == res.unique_count

    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs())
    def test_exact_equals_profile_max(self, gs):
        prof = bipartite_subset_profile(gs)
        assert spokesman_exact(gs).unique_count == int(prof.unique_counts.max())


class TestPartitionInvariants:
    @settings(max_examples=40, **COMMON)
    @given(bipartite_graphs())
    def test_p1_to_p4(self, gs):
        state = procedure_partition(gs)
        assert state.check_invariants(gs) == []

    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs(), st.integers(0, 2**31 - 1))
    def test_invariants_under_restriction(self, gs, seed):
        gen = np.random.default_rng(seed)
        mask = gen.random(gs.n_right) < 0.5
        state = procedure_partition(gs, mask)
        assert state.check_invariants(gs) == []


class TestRadioSemantics:
    @settings(max_examples=30, **COMMON)
    @given(graphs(max_n=12), st.integers(0, 2**31 - 1))
    def test_step_equals_reference(self, g, seed):
        net = RadioNetwork(g)
        gen = np.random.default_rng(seed)
        t = gen.random(g.n) < 0.4
        assert (net.step(t) == step_naive(net, t)).all()

    @settings(max_examples=25, **COMMON)
    @given(graphs(max_n=10))
    def test_single_transmitter_reaches_exactly_neighbors(self, g):
        net = RadioNetwork(g)
        t = np.zeros(g.n, dtype=bool)
        t[0] = True
        received = net.step(t)
        assert set(np.flatnonzero(received)) == set(g.neighbors(0).tolist())


class TestWirelessCoverageStructure:
    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs())
    def test_exact_wireless_dominates_every_subset(self, gs):
        best, witness = max_unique_coverage_exact(gs)
        assert gs.unique_cover_count(witness) == best
        # Spot-check domination on the full set and singletons.
        assert best >= gs.unique_cover_count(np.arange(gs.n_left))
        for u in range(gs.n_left):
            assert best >= gs.unique_cover_count(np.array([u]))

    @settings(max_examples=20, **COMMON)
    @given(bipartite_graphs(max_left=6, max_right=8))
    def test_mg_guarantee_never_exceeds_exact(self, gs):
        """MG is a valid guarantee: γ·MG(δ) ≤ optimum (else the paper's
        bound would be contradicted)."""
        gamma = nonisolated_right_count(gs)
        if gamma == 0:
            return
        deg = gs.right_degrees
        delta = float(deg[deg >= 1].mean())
        opt = spokesman_exact(gs).unique_count
        assert gamma * mg_bound(max(delta, 1.0)) <= opt + 1e-9
