"""Centralized spokesman-aided broadcast."""


import numpy as np

from repro._util import as_rng, spawn_seeds
from repro.graphs import complete_graph, cplus_graph, hypercube, random_regular
from repro.radio import (
    DecayProtocol,
    ErasureChannel,
    SpokesmanBroadcastProtocol,
    run_broadcast,
    run_broadcast_batch,
)
from repro.spokesman import spokesman_recursive
from repro.spokesman.greedy_add import spokesman_greedy_add


class TestSpokesmanBroadcast:
    def test_cplus_two_rounds(self):
        # Round 1: source informs {x, y}; round 2: scheduler picks one of
        # them alone and the whole clique hears it.
        g = cplus_graph(9)
        res = run_broadcast(g, SpokesmanBroadcastProtocol(), source=0, seed=0)
        assert res.completed
        assert res.rounds == 2

    def test_clique_two_rounds(self):
        res = run_broadcast(
            complete_graph(10), SpokesmanBroadcastProtocol(), source=0, seed=0
        )
        assert res.completed and res.rounds == 1

    def test_hypercube_fast(self):
        res = run_broadcast(
            hypercube(5), SpokesmanBroadcastProtocol(), source=0, seed=0
        )
        assert res.completed
        assert res.rounds <= 16

    def test_beats_decay_on_expander(self):
        g = random_regular(64, 6, rng=10)
        genie = run_broadcast(g, SpokesmanBroadcastProtocol(), source=0, seed=1)
        decay = run_broadcast(g, DecayProtocol(), source=0, seed=1)
        assert genie.completed and decay.completed
        assert genie.rounds <= decay.rounds

    def test_custom_algorithm(self):
        proto = SpokesmanBroadcastProtocol(algorithm=spokesman_recursive)
        assert "recursive" in proto.name
        res = run_broadcast(hypercube(4), proto, source=0, seed=2)
        assert res.completed

    def test_progress_every_round(self):
        # The genie never wastes a round while a frontier exists.
        g = random_regular(32, 4, rng=11)
        res = run_broadcast(g, SpokesmanBroadcastProtocol(), source=0, seed=3)
        assert res.completed
        gains = np.diff(np.concatenate([[1], res.informed_per_round]))
        assert (gains >= 1).all()


class _CountingElection:
    """A spokesman algorithm that counts its calls."""

    __name__ = "counting"

    def __init__(self):
        self.calls = 0

    def __call__(self, gs):
        self.calls += 1
        return spokesman_greedy_add(gs)


class TestElectionPerDistinctColumn:
    """The genie elects once per distinct informed set, not per trial."""

    def test_identical_columns_elect_once_per_round(self):
        g = random_regular(64, 6, rng=10)
        alone, batch = _CountingElection(), _CountingElection()
        single = run_broadcast(g, SpokesmanBroadcastProtocol(alone), seed=1)
        res = run_broadcast_batch(
            g, SpokesmanBroadcastProtocol(batch), trials=16, seed=1
        )
        assert single.completed and single.rounds > 1
        assert alone.calls == single.rounds
        assert batch.calls == single.rounds
        for t in range(16):
            trial = res.trial(t)
            assert trial.rounds == single.rounds
            assert np.array_equal(
                trial.first_informed_round, single.first_informed_round
            )
            assert np.array_equal(
                trial.informed_per_round, single.informed_per_round
            )
            assert trial.transmissions == single.transmissions

    def test_erasure_trials_match_standalone_runs(self):
        g = hypercube(5)
        counter = _CountingElection()
        batch = run_broadcast_batch(
            g, SpokesmanBroadcastProtocol(counter), trials=16, seed=7,
            channel=ErasureChannel(0.2), max_rounds=400,
        )
        assert len({tuple(c) for c in batch.first_informed_round.T}) > 1
        # Round 0's columns all hold just the source: one election serves
        # them, so the batch elects fewer times than it runs trial-rounds.
        assert counter.calls < batch.rounds.sum()
        for t, seed in enumerate(spawn_seeds(as_rng(7), 16)):
            single = run_broadcast(
                g, SpokesmanBroadcastProtocol(), seed=seed,
                channel=ErasureChannel(0.2), max_rounds=400,
            )
            trial = batch.trial(t)
            assert trial.rounds == single.rounds
            assert trial.completed == single.completed
            assert np.array_equal(
                trial.first_informed_round, single.first_informed_round
            )
            assert np.array_equal(
                trial.informed_per_round, single.informed_per_round
            )
            assert trial.transmissions == single.transmissions
