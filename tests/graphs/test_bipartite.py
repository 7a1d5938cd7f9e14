"""Unit + property tests for the BipartiteGraph kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansion.neighborhoods import (
    naive_bipartite_cover,
    naive_bipartite_unique_cover,
)
from repro.graphs import BipartiteGraph


def bipartite_strategy(max_left=8, max_right=10):
    """Random small bipartite graphs as (n_left, n_right, edge set)."""

    @st.composite
    def build(draw):
        n_left = draw(st.integers(1, max_left))
        n_right = draw(st.integers(1, max_right))
        pairs = draw(
            st.sets(
                st.tuples(
                    st.integers(0, n_left - 1), st.integers(0, n_right - 1)
                ),
                max_size=n_left * n_right,
            )
        )
        return BipartiteGraph(n_left, n_right, sorted(pairs))

    return build()


class TestConstruction:
    def test_basic_counts(self, tiny_bipartite):
        assert tiny_bipartite.n_left == 4
        assert tiny_bipartite.n_right == 5
        assert tiny_bipartite.n_edges == 8

    def test_degrees(self, tiny_bipartite):
        assert tiny_bipartite.left_degrees.tolist() == [2, 2, 3, 1]
        assert tiny_bipartite.right_degrees.tolist() == [1, 2, 2, 1, 2]
        assert tiny_bipartite.max_left_degree == 3
        assert tiny_bipartite.max_right_degree == 2

    def test_average_degrees(self, tiny_bipartite):
        assert tiny_bipartite.avg_left_degree == pytest.approx(2.0)
        assert tiny_bipartite.avg_right_degree == pytest.approx(1.6)

    def test_neighbors_sorted(self, tiny_bipartite):
        assert tiny_bipartite.neighbors_of_left(2).tolist() == [2, 3, 4]
        assert tiny_bipartite.neighbors_of_right(4).tolist() == [2, 3]

    def test_empty_graph(self):
        g = BipartiteGraph(3, 4, [])
        assert g.n_edges == 0
        assert g.max_left_degree == 0
        assert g.has_isolated_left()
        assert g.has_isolated_right()

    def test_rejects_duplicate_edges(self):
        # In (left, right) order and out of it: both must see the repeat.
        for edges in ([(0, 1), (0, 1), (1, 0)], [(1, 0), (0, 1), (0, 1)]):
            with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
                BipartiteGraph(2, 2, edges)

    def test_sorted_and_shuffled_edges_build_the_same_csr(self):
        gen = np.random.default_rng(3)
        cells = np.flatnonzero(gen.random(40 * 300) < 0.1)
        edges = np.column_stack([cells // 300, cells % 300])
        ordered = BipartiteGraph(40, 300, edges)
        shuffled = BipartiteGraph(40, 300, edges[gen.permutation(len(edges))])
        for side in ("left", "right"):
            for part in ("indptr", "indices"):
                name = f"_{side}_{part}"
                assert np.array_equal(getattr(ordered, name), getattr(shuffled, name))
        for v in (0, 7, 299):
            lefts = edges[edges[:, 1] == v, 0]
            assert ordered.neighbors_of_right(v).tolist() == lefts.tolist()

    def test_sorted_edges_are_copied(self):
        edges = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int64)
        g = BipartiteGraph(2, 2, edges)
        edges[:] = 0
        assert g.edges().tolist() == [[0, 0], [0, 1], [1, 1]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(2, 0)])
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(0, 5)])
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(-1, 0)])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(0, 1, 2)])
        with pytest.raises(ValueError):
            BipartiteGraph(-1, 2, [])

    def test_edges_round_trip(self, tiny_bipartite):
        edges = tiny_bipartite.edges()
        rebuilt = BipartiteGraph(4, 5, edges)
        assert rebuilt == tiny_bipartite

    def test_iteration(self, tiny_bipartite):
        assert sorted(tiny_bipartite) == sorted(
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4)]
        )

    def test_repr(self, tiny_bipartite):
        assert "n_left=4" in repr(tiny_bipartite)


class TestAlternativeConstructors:
    def test_from_neighbor_lists(self, tiny_bipartite):
        g = BipartiteGraph.from_neighbor_lists(
            [[0, 1], [1, 2], [2, 3, 4], [4]], n_right=5
        )
        assert g == tiny_bipartite

    def test_from_neighbor_lists_infers_right(self):
        g = BipartiteGraph.from_neighbor_lists([[0], [3]])
        assert g.n_right == 4

    def test_from_biadjacency_dense(self, tiny_bipartite):
        mat = tiny_bipartite.biadjacency.toarray()
        assert BipartiteGraph.from_biadjacency(mat) == tiny_bipartite

    def test_from_biadjacency_sparse(self, tiny_bipartite):
        assert (
            BipartiteGraph.from_biadjacency(tiny_bipartite.biadjacency)
            == tiny_bipartite
        )


class TestMatrices:
    def test_biadjacency_shape_and_transpose(self, tiny_bipartite):
        b = tiny_bipartite.biadjacency
        l = tiny_bipartite.left_matrix
        assert b.shape == (5, 4)
        assert l.shape == (4, 5)
        assert (b.toarray() == l.toarray().T).all()

    def test_biadjacency_cached(self, tiny_bipartite):
        assert tiny_bipartite.biadjacency is tiny_bipartite.biadjacency


class TestCoverage:
    def test_cover_counts(self, tiny_bipartite):
        counts = tiny_bipartite.cover_counts([0, 1])
        assert counts.tolist() == [1, 2, 1, 0, 0]

    def test_unique_and_covered(self, tiny_bipartite):
        assert tiny_bipartite.unique_cover_count([0, 1]) == 2
        assert tiny_bipartite.cover_count([0, 1]) == 3

    def test_mask_input(self, tiny_bipartite):
        mask = np.array([True, True, False, False])
        assert tiny_bipartite.unique_cover_count(mask) == 2

    def test_empty_subset(self, tiny_bipartite):
        assert tiny_bipartite.unique_cover_count([]) == 0
        assert tiny_bipartite.cover_count([]) == 0

    def test_left_cover_counts(self, tiny_bipartite):
        counts = tiny_bipartite.left_cover_counts([2, 4])
        assert counts.tolist() == [0, 1, 2, 1]

    def test_bad_mask_length(self, tiny_bipartite):
        with pytest.raises(ValueError):
            tiny_bipartite.cover_counts(np.array([True, False]))

    def test_bad_indices(self, tiny_bipartite):
        with pytest.raises(ValueError):
            tiny_bipartite.cover_counts([7])

    @settings(max_examples=40, deadline=None)
    @given(bipartite_strategy(), st.data())
    def test_matches_naive_reference(self, gs, data):
        subset = data.draw(
            st.sets(st.integers(0, gs.n_left - 1), max_size=gs.n_left)
        )
        subset = sorted(subset)
        assert gs.cover_count(np.array(subset, dtype=np.int64)) == len(
            naive_bipartite_cover(gs, subset)
        )
        assert gs.unique_cover_count(np.array(subset, dtype=np.int64)) == len(
            naive_bipartite_unique_cover(gs, subset)
        )


class TestSubgraphs:
    def test_subgraph_reindexes(self, tiny_bipartite):
        sub = tiny_bipartite.subgraph([1, 2], [1, 2, 4])
        # left 1 -> 0 with right {1,2} -> {0,1}; left 2 -> 1 with {2,4} -> {1,2}
        assert sub.n_left == 2 and sub.n_right == 3
        assert sorted(sub) == [(0, 0), (0, 1), (1, 1), (1, 2)]

    def test_restrict_right(self, tiny_bipartite):
        sub = tiny_bipartite.restrict_right([0, 1])
        assert sub.n_left == 4
        assert sub.n_right == 2
        assert sub.n_edges == 3

    def test_restrict_left(self, tiny_bipartite):
        sub = tiny_bipartite.restrict_left([2])
        assert sub.n_left == 1 and sub.n_right == 5
        assert sub.left_degrees.tolist() == [3]

    def test_swap_sides(self, tiny_bipartite):
        sw = tiny_bipartite.swap_sides()
        assert sw.n_left == 5 and sw.n_right == 4
        assert sw.swap_sides() == tiny_bipartite

    @settings(max_examples=25, deadline=None)
    @given(bipartite_strategy())
    def test_full_subgraph_is_identity(self, gs):
        sub = gs.subgraph(
            np.ones(gs.n_left, dtype=bool), np.ones(gs.n_right, dtype=bool)
        )
        assert sub == gs


class TestNetworkx:
    def test_round_trip_structure(self, tiny_bipartite):
        nxg = tiny_bipartite.to_networkx()
        assert nxg.number_of_nodes() == 9
        assert nxg.number_of_edges() == 8
        assert nxg.nodes[("L", 0)]["bipartite"] == 0
        assert nxg.nodes[("R", 0)]["bipartite"] == 1
