"""Batched coverage kernels of the stacked bipartite graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import BlockBipartite, erdos_renyi


class TestBatchKernels:
    def test_matches_single_subset_kernel(self, tiny_bipartite):
        gen = np.random.default_rng(0)
        batch = gen.random((20, 4)) < 0.5
        blocks = BlockBipartite.single(tiny_bipartite)
        counts = blocks.cover_counts(batch.T)
        by_column = blocks.unique_counts(batch.T)
        by_row = blocks.row_unique_counts(np.zeros(20, dtype=np.int64), batch)
        for i in range(20):
            assert (counts[:, i] == tiny_bipartite.cover_counts(batch[i])).all()
            want = tiny_bipartite.unique_cover_count(batch[i])
            assert by_column[0, i] == by_row[i] == want

    def test_empty_batch(self, tiny_bipartite):
        blocks = BlockBipartite.single(tiny_bipartite)
        assert blocks.cover_counts(np.zeros((4, 0), dtype=bool)).shape == (5, 0)
        assert blocks.unique_counts(np.zeros((4, 0), dtype=bool)).shape == (1, 0)
        none = np.zeros(0, dtype=np.int64)
        assert blocks.row_unique_counts(none, np.zeros((0, 4), bool)).shape == (0,)

    def test_shape_validation(self, tiny_bipartite):
        # An int matrix would count an entry of 2 as two covers.
        blocks = BlockBipartite.single(tiny_bipartite)
        bad_columns = [
            np.zeros((5, 3), dtype=bool),
            np.zeros((4, 3), dtype=np.int32),
            np.zeros(4, dtype=bool),
        ]
        for chosen in bad_columns:
            for count in (blocks.cover_counts, blocks.unique_counts):
                with pytest.raises(ValueError, match="bool matrix"):
                    count(chosen)
        block = np.zeros(3, dtype=np.int64)
        bad_rows = [
            np.zeros((3, 5), dtype=bool),
            np.zeros((2, 4), dtype=bool),
            np.zeros((3, 4), dtype=np.int32),
        ]
        for rows in bad_rows:
            with pytest.raises(ValueError, match="bool matrix"):
                blocks.row_unique_counts(block, rows)
        rows = np.zeros((3, 4), dtype=bool)
        for bad_block in (np.array([0, 1, 0]), np.array([0.0, 0, 0]), block[:, None]):
            with pytest.raises(ValueError, match="block indices"):
                blocks.row_unique_counts(bad_block, rows)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_cross_check(self, seed):
        # Several boundary graphs stacked, a few rows per block in any
        # order: every row scores as its own set on its own graph.
        gen = np.random.default_rng(seed)
        graph = erdos_renyi(16, 0.3, rng=gen)
        subsets = [
            gen.choice(16, size=int(gen.integers(0, 9)), replace=False)
            for _ in range(5)
        ]
        blocks, _, _ = graph.boundary_blocks(subsets)
        block = gen.integers(0, 5, size=12)
        width = blocks.padded_ids("left").shape[1]
        rows = (gen.random((12, width)) < 0.5) & (
            np.arange(width) < blocks.sizes("left")[block][:, None]
        )
        got = blocks.row_unique_counts(block, rows)
        for k in range(12):
            gs, _, _ = graph.boundary_bipartite(subsets[block[k]])
            assert got[k] == gs.unique_cover_count(rows[k, : gs.n_left])
