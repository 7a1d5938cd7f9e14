"""Radio collision-model semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import complete_graph, erdos_renyi, path_graph
from repro.radio import RadioNetwork

from reference_sim import step_naive  # tests/ is on sys.path (conftest.py)


class TestStepSemantics:
    def test_single_transmitter_reaches_neighbors(self):
        net = RadioNetwork(path_graph(4))
        t = np.array([False, True, False, False])
        assert net.step(t).tolist() == [True, False, True, False]

    def test_collision_blocks_reception(self):
        net = RadioNetwork(path_graph(3))
        t = np.array([True, False, True])
        # Middle vertex hears two neighbours -> nothing.
        assert net.step(t).tolist() == [False, False, False]

    def test_transmitter_does_not_receive(self):
        net = RadioNetwork(path_graph(2))
        t = np.array([True, True])
        assert not net.step(t).any()

    def test_clique_collision(self):
        net = RadioNetwork(complete_graph(5))
        t = np.zeros(5, dtype=bool)
        t[[0, 1]] = True
        # Everyone else hears two transmitters.
        assert not net.step(t).any()

    def test_silence(self):
        net = RadioNetwork(complete_graph(4))
        assert not net.step(np.zeros(4, dtype=bool)).any()

    def test_input_validation(self):
        net = RadioNetwork(path_graph(3))
        with pytest.raises(ValueError):
            net.step(np.array([1, 0, 0]))  # not bool
        with pytest.raises(ValueError):
            net.step(np.array([True, False]))  # wrong length

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_naive_reference(self, seed):
        gen = np.random.default_rng(seed)
        g = erdos_renyi(12, 0.3, rng=gen)
        net = RadioNetwork(g)
        t = gen.random(12) < 0.4
        assert (net.step(t) == step_naive(net, t)).all()
