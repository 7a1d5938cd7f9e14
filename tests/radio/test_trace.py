"""Single-run collision tracing: the ``T = 1`` column of batch telemetry.

A traced run is ``RoundTelemetry.from_batch(run_broadcast_batch(...,
trials=1, trial_rngs=[seed], telemetry=True))`` — seeded like
``run_broadcast(..., seed=seed)``, so the trace describes exactly the
execution the plain runner produces.
"""

import pytest

from repro.graphs import cplus_graph, hypercube, path_graph
from repro.obs.telemetry import TELEMETRY_FIELDS, RoundTelemetry
from repro.radio import (
    CollisionBackoffProtocol,
    CollisionDetection,
    DecayProtocol,
    ErasureChannel,
    FloodingProtocol,
    RoundRobinProtocol,
    SpokesmanBroadcastProtocol,
    run_broadcast,
    run_broadcast_batch,
)


def traced(graph, protocol, seed, **kw):
    """One traced run: ``(batch, telemetry)`` of its single trial."""
    batch = run_broadcast_batch(
        graph, protocol, trials=1, trial_rngs=[seed], telemetry=True, **kw
    )
    return batch, RoundTelemetry.from_batch(batch)


def assert_matches_plain(batch, tel, plain):
    assert batch.completed[0] == plain.completed
    assert tel.rounds == plain.rounds
    assert (batch.first_informed_round[:, 0] == plain.first_informed_round).all()
    assert tel.totals()["transmitters"][0] == plain.transmissions


class TestTracedRun:
    def test_agrees_with_plain_runner(self):
        g = hypercube(4)
        plain = run_broadcast(g, DecayProtocol(), source=0, seed=7)
        batch, tel = traced(g, DecayProtocol(), 7, source=0)
        assert_matches_plain(batch, tel, plain)

    def test_path_flooding_no_collisions(self):
        # One frontier vertex per side: flooding a path never collides at
        # the frontier... but interior nodes hear both neighbours.
        batch, tel = traced(path_graph(5), FloodingProtocol(), 0, source=0)
        assert batch.completed[0]
        assert tel.transmitters[0, 0] == 1
        assert tel.collision_victims[0, 0] == 0

    def test_cplus_flooding_collision_storm(self):
        # Round 2 on C+: {s0, x, y} all transmit; every clique vertex hears
        # x and y -> all collide, nobody new is informed.
        batch, tel = traced(
            cplus_graph(8), FloodingProtocol(), 0, source=0, max_rounds=5
        )
        assert not batch.completed[0]
        assert tel.newly_informed[1, 0] == 0
        assert tel.collision_victims[1, 0] == 8 - 2  # the uninformed clique part
        assert tel.collision_rates[1, 0] == 1.0

    def test_spokesman_low_collisions_on_cplus(self):
        batch, tel = traced(
            cplus_graph(8), SpokesmanBroadcastProtocol(), 0, source=0
        )
        assert batch.completed[0]
        assert tel.mean_collision_rate() <= 0.5

    def test_first_round_fields(self):
        _, tel = traced(path_graph(3), FloodingProtocol(), 0, source=0)
        assert tel.rounds >= 1
        assert tel.receptions[0, 0] == 1
        assert tel.newly_informed[0, 0] == 1

    def test_collision_rate_zero_without_contact(self):
        # Round-robin hands its slots out in vertex order, so broadcasting
        # from the far end of a path leaves rounds with no transmitter and
        # hence no contact.
        _, tel = traced(path_graph(4), RoundRobinProtocol(), 0, source=3)
        idle = tel.contacted[:, 0] == 0
        assert idle.any()
        assert (tel.collision_rates[idle, 0] == 0.0).all()

    def test_source_validation(self):
        with pytest.raises(ValueError):
            traced(path_graph(3), FloodingProtocol(), 0, source=9)

    def test_totals(self):
        _, tel = traced(path_graph(4), FloodingProtocol(), 0, source=0)
        totals = tel.totals()
        for name in TELEMETRY_FIELDS:
            assert totals[name][0] == getattr(tel, name)[:, 0].sum()


def _reference_flooding_trace(graph, source, max_rounds=64):
    """A pure-Python serial round loop with Section 1.1 semantics (receive
    iff silent with exactly one transmitting neighbour).  Flooding is
    deterministic, so this oracle reproduces the engine's schedule without
    sharing any RNG machinery with it."""
    neighbors = [set() for _ in range(graph.n)]
    for u, v in graph.edges():
        neighbors[int(u)].add(int(v))
        neighbors[int(v)].add(int(u))
    informed = {source}
    first = {source: 0}
    rounds = []
    r = 0
    while len(informed) < graph.n and r < max_rounds:
        r += 1
        tx = set(informed)
        heard = {
            v: len(neighbors[v] & tx) for v in range(graph.n) if v not in tx
        }
        received = {v for v, c in heard.items() if c == 1}
        victims = sum(1 for c in heard.values() if c >= 2)
        newly = received - informed
        wasted = sum(1 for u in tx if not (neighbors[u] & received))
        rounds.append(
            dict(
                transmitters=len(tx),
                receptions=len(received),
                collision_victims=victims,
                newly_informed=len(newly),
                wasted_transmissions=wasted,
            )
        )
        for v in newly:
            first[v] = r
        informed |= newly
    return rounds, informed, first


class TestReferenceLoopEquivalence:
    """The batched T=1 view must agree, field for field, with a serial
    reference loop."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: path_graph(7),
            lambda: hypercube(4),
            lambda: cplus_graph(6),
        ],
    )
    def test_flooding_matches_reference_loop(self, make_graph):
        g = make_graph()
        batch, tel = traced(g, FloodingProtocol(), 0, source=0, max_rounds=64)
        ref_rounds, ref_informed, ref_first = _reference_flooding_trace(
            g, source=0
        )
        assert tel.rounds == len(ref_rounds)
        for r, want in enumerate(ref_rounds):
            for field, value in want.items():
                assert getattr(tel, field)[r, 0] == value, (field, r + 1)
        assert batch.completed[0] == (len(ref_informed) == g.n)
        for v, r in ref_first.items():
            assert batch.first_informed_round[v, 0] == r

    def test_path_flooding_wasted_anatomy(self):
        # path 0-1-2-3-4 from 0: each round the trailing transmitters
        # reach only other transmitters, so exactly the frontier's parent
        # chain is wasted: round 1 wastes nothing, later rounds waste all
        # but the frontier vertex.
        _, tel = traced(path_graph(5), FloodingProtocol(), 0, source=0)
        assert tel.wasted_transmissions[:, 0].tolist() == [0, 1, 2, 3]
        assert tel.totals()["wasted_transmissions"][0] == 6

    def test_erasure_trace_agrees_with_plain_runner(self):
        g = hypercube(4)
        kw = dict(source=0, channel=ErasureChannel(0.3))
        plain = run_broadcast(g, DecayProtocol(), seed=11, **kw)
        batch, tel = traced(g, DecayProtocol(), 11, **kw)
        assert_matches_plain(batch, tel, plain)
        assert (tel.wasted_transmissions <= tel.transmitters).all()
        assert (tel.newly_informed <= tel.receptions).all()

    def test_channel_feedback_branch_traced(self):
        g = hypercube(4)
        kw = dict(source=0, channel=CollisionDetection())
        plain = run_broadcast(g, CollisionBackoffProtocol(), seed=5, **kw)
        batch, tel = traced(g, CollisionBackoffProtocol(), 5, **kw)
        assert_matches_plain(batch, tel, plain)
