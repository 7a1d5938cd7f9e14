"""Protocol classes: transmit-set semantics, names, parameters.

Each property is checked on a single trial column driven through the
batch hooks (``reset_batch`` then ``transmitters_batch``).
"""

import numpy as np
import pytest

from repro.graphs import complete_graph, hypercube, path_graph
from repro.radio import (
    AlohaProtocol,
    DecayProtocol,
    FloodingProtocol,
    RadioNetwork,
    RoundRobinProtocol,
    run_broadcast,
)


def _informed_prefix(n, k):
    mask = np.zeros((n, 1), dtype=bool)
    mask[:k] = True
    return mask


def _reset(proto, net, seed):
    proto.reset_batch(net, 0, [np.random.default_rng(seed)])


class TestFlooding:
    def test_transmits_exactly_informed(self):
        net = RadioNetwork(path_graph(5))
        proto = FloodingProtocol()
        _reset(proto, net, 0)
        informed = _informed_prefix(5, 3)
        assert (proto.transmitters_batch(0, informed, net) == informed).all()

    def test_does_not_alias_informed(self):
        net = RadioNetwork(path_graph(4))
        proto = FloodingProtocol()
        _reset(proto, net, 0)
        informed = _informed_prefix(4, 2)
        out = proto.transmitters_batch(0, informed, net)
        out[:] = False
        assert informed.sum() == 2  # caller's mask untouched


class TestRoundRobin:
    def test_single_slot_per_round(self):
        net = RadioNetwork(complete_graph(5))
        proto = RoundRobinProtocol()
        _reset(proto, net, 0)
        informed = np.ones((5, 1), dtype=bool)
        for r in range(10):
            out = proto.transmitters_batch(r, informed, net)
            assert out.sum() == 1
            assert out[r % 5, 0]

    def test_silent_when_slot_uninformed(self):
        net = RadioNetwork(complete_graph(5))
        proto = RoundRobinProtocol()
        _reset(proto, net, 0)
        informed = _informed_prefix(5, 1)
        assert proto.transmitters_batch(3, informed, net).sum() == 0


class TestDecay:
    def test_round_zero_is_flooding(self):
        # In round 0 of each phase, p = 1: everyone informed transmits.
        net = RadioNetwork(hypercube(3))
        proto = DecayProtocol(phase_length=4)
        _reset(proto, net, 1)
        informed = _informed_prefix(8, 5)
        out = proto.transmitters_batch(0, informed, net)
        assert (out == informed).all()

    def test_probability_decays_within_phase(self):
        net = RadioNetwork(complete_graph(64))
        proto = DecayProtocol(phase_length=8)
        _reset(proto, net, 2)
        informed = np.ones((64, 1), dtype=bool)
        counts = [
            int(proto.transmitters_batch(r, informed, net).sum()) for r in range(8)
        ]
        # Strictly decreasing is too strong for a random draw; compare
        # the first round (p=1) against a late round (p=1/64).
        assert counts[0] == 64
        assert counts[7] <= counts[1]

    def test_default_phase_length(self):
        net = RadioNetwork(hypercube(4))
        proto = DecayProtocol()
        _reset(proto, net, 3)
        assert proto._k == 5  # ceil(log2(16)) + 1


class TestAloha:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AlohaProtocol(0.0)
        with pytest.raises(ValueError):
            AlohaProtocol(1.5)

    def test_p_one_is_flooding(self):
        net = RadioNetwork(path_graph(6))
        proto = AlohaProtocol(1.0)
        _reset(proto, net, 4)
        informed = _informed_prefix(6, 4)
        assert (proto.transmitters_batch(0, informed, net) == informed).all()

    def test_completes_on_clique_with_good_p(self):
        g = complete_graph(16)
        res = run_broadcast(g, AlohaProtocol(1 / 16), source=0, seed=5)
        assert res.completed

    def test_name_encodes_p(self):
        assert AlohaProtocol(0.25).name == "aloha[p=0.25]"

    def test_subset_of_informed(self):
        net = RadioNetwork(complete_graph(10))
        proto = AlohaProtocol(0.7)
        _reset(proto, net, 6)
        informed = _informed_prefix(10, 4)
        out = proto.transmitters_batch(0, informed, net)
        assert not (out & ~informed).any()
