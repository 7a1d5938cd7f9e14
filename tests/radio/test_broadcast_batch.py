"""Batched engine: seeded batch/loop equivalence and result invariants.

The contract under test: ``run_broadcast_batch(..., trials=T, seed=master)``
must be bit-for-bit identical to ``T`` standalone ``run_broadcast`` calls
seeded with ``spawn_seeds(master, T)`` — for natively vectorized protocols
and for legacy protocols riding the clone adapter alike.
"""

import numpy as np
import pytest

from repro._util import as_rng, spawn_seeds
from repro.graphs import cplus_graph, hypercube, path_graph
from repro.radio import (
    AlohaProtocol,
    BroadcastProtocol,
    DecayProtocol,
    FloodingProtocol,
    RoundRobinProtocol,
    SpokesmanBroadcastProtocol,
    run_broadcast,
    run_broadcast_batch,
)

TRIALS = 6
MASTER = 1234


class LegacyRandomProtocol(BroadcastProtocol):
    """Stateful, rng-consuming protocol with no batch override — exercises
    the default clone adapter."""

    name = "legacy-random"

    def reset(self, network, source, rng):
        super().reset(network, source, rng)
        self.calls = 0

    def transmitters(self, round_index, informed, network):
        self.calls += 1
        draw = self._rng.random(network.n) < 0.5
        return draw & informed


def _protocol_factories():
    return [
        FloodingProtocol,
        RoundRobinProtocol,
        DecayProtocol,
        lambda: AlohaProtocol(0.3),
        SpokesmanBroadcastProtocol,
        LegacyRandomProtocol,
    ]


def _assert_trial_equal(batch, t, single):
    bt = batch.trial(t)
    assert bt.rounds == single.rounds
    assert bt.completed == single.completed
    assert bt.transmissions == single.transmissions
    assert (bt.first_informed_round == single.first_informed_round).all()
    assert (bt.informed_per_round == single.informed_per_round).all()


class TestBatchLoopEquivalence:
    @pytest.mark.parametrize(
        "factory", _protocol_factories(),
        ids=["flooding", "round-robin", "decay", "aloha", "spokesman",
             "legacy-adapter"],
    )
    def test_seeded_batch_matches_seeded_loop(self, factory):
        g = hypercube(5)
        batch = run_broadcast_batch(g, factory(), trials=TRIALS, seed=MASTER)
        seeds = spawn_seeds(as_rng(MASTER), TRIALS)
        for t, seed in enumerate(seeds):
            single = run_broadcast(g, factory(), seed=seed)
            _assert_trial_equal(batch, t, single)

    def test_equivalence_with_incomplete_trials(self):
        # Flooding deadlocks on C+; capped runs must agree too.
        g = cplus_graph(8)
        batch = run_broadcast_batch(
            g, FloodingProtocol(), trials=4, seed=MASTER, max_rounds=20
        )
        assert not batch.completed.any()
        seeds = spawn_seeds(as_rng(MASTER), 4)
        for t, seed in enumerate(seeds):
            single = run_broadcast(
                g, FloodingProtocol(), seed=seed, max_rounds=20
            )
            _assert_trial_equal(batch, t, single)

    @pytest.mark.parametrize("trials", [63, 64, 65])
    def test_first_informed_with_compacted_trials(self, trials):
        # Trials finish at different rounds, so the dense engine's working
        # set shrinks to a non-contiguous subset of trial ids — the case
        # where its first-informed scatter must map columns back through
        # ``active``.
        g = hypercube(5)
        dense = run_broadcast_batch(
            g, DecayProtocol(), trials=trials, seed=MASTER, engine="dense"
        )
        survivors = [
            np.flatnonzero(dense.rounds > r) for r in range(dense.rounds.max())
        ]
        assert any(
            s.size and s[-1] - s[0] + 1 != s.size for s in survivors
        ), "active set never became non-contiguous"
        bitset = run_broadcast_batch(
            g, DecayProtocol(), trials=trials, seed=MASTER, engine="bitset"
        )
        assert np.array_equal(
            dense.first_informed_round, bitset.first_informed_round
        )
        seeds = spawn_seeds(as_rng(MASTER), trials)
        for t, seed in enumerate(seeds):
            single = run_broadcast(g, DecayProtocol(), seed=seed, engine="dense")
            _assert_trial_equal(dense, t, single)

    def test_batch_reproducible(self):
        g = hypercube(4)
        a = run_broadcast_batch(g, DecayProtocol(), trials=5, seed=7)
        b = run_broadcast_batch(g, DecayProtocol(), trials=5, seed=7)
        assert (a.rounds == b.rounds).all()
        assert (a.first_informed_round == b.first_informed_round).all()

    def test_trials_are_independent(self):
        batch = run_broadcast_batch(
            hypercube(5), DecayProtocol(), trials=16, seed=0
        )
        # Different streams -> not all trials take identical time.
        assert len(set(batch.rounds.tolist())) > 1

    def test_single_run_drives_the_passed_instance(self):
        # The classic contract: a T=1 run leaves its state on the protocol
        # object itself (no clone), so callers can introspect afterwards.
        proto = LegacyRandomProtocol()
        res = run_broadcast(hypercube(4), proto, seed=0)
        assert proto.calls == res.rounds

    def test_legacy_override_of_vectorized_builtin_is_honored(self):
        # Subclassing a natively vectorized protocol through the legacy
        # hook must route through the clone adapter, not the inherited
        # vectorized path.
        class EveryOtherRoundDecay(DecayProtocol):
            def transmitters(self, round_index, informed, network):
                if round_index % 2:
                    return np.zeros(network.n, dtype=bool)
                return super().transmitters(round_index, informed, network)

        g = hypercube(5)
        batch = run_broadcast_batch(
            g, EveryOtherRoundDecay(), trials=4, seed=MASTER
        )
        seeds = spawn_seeds(as_rng(MASTER), 4)
        for t, seed in enumerate(seeds):
            single = run_broadcast(g, EveryOtherRoundDecay(), seed=seed)
            _assert_trial_equal(batch, t, single)
        # Odd round indices are silent; transmissions in even round index
        # r land as first-informed round r + 1, so every non-source
        # arrival time is odd — proof the override actually ran.
        arrivals = batch.first_informed_round[1:, :]
        assert (arrivals[arrivals >= 0] % 2 == 1).all()

    def test_vectorized_protocol_without_select_trials(self):
        # A stateless vectorized protocol may ignore select_trials; the
        # base default must be a safe no-op when trials complete.
        class VectorFlood(BroadcastProtocol):
            name = "vector-flood"

            def reset_batch(self, network, source, rngs):
                pass

            def transmitters(self, round_index, informed, network):
                return informed.copy()

            def transmitters_batch(self, round_index, informed, network):
                return informed.copy()

        batch = run_broadcast_batch(path_graph(5), VectorFlood(), trials=3, seed=0)
        assert batch.completed.all()
        assert (batch.rounds == 4).all()


class TestBatchResultShapes:
    @pytest.fixture(scope="class")
    def batch(self):
        return run_broadcast_batch(
            hypercube(4), DecayProtocol(), trials=TRIALS, seed=3
        )

    def test_shapes(self, batch):
        n = 16
        assert batch.trials == TRIALS
        assert batch.rounds.shape == (TRIALS,)
        assert batch.completed.shape == (TRIALS,)
        assert batch.transmissions.shape == (TRIALS,)
        assert batch.first_informed_round.shape == (n, TRIALS)
        assert batch.informed_per_round.shape == (int(batch.rounds.max()), TRIALS)

    def test_dtypes(self, batch):
        assert batch.rounds.dtype == np.int64
        assert batch.completed.dtype == bool
        assert batch.transmissions.dtype == np.int64
        assert batch.first_informed_round.dtype == np.int64
        assert batch.informed_per_round.dtype == np.int64

    def test_informed_counts_monotone_per_trial(self, batch):
        assert (np.diff(batch.informed_per_round, axis=0) >= 0).all()

    def test_rows_past_completion_stay_full(self, batch):
        n = batch.first_informed_round.shape[0]
        for t in range(batch.trials):
            r = int(batch.rounds[t])
            assert (batch.informed_per_round[r:, t] == n).all()

    def test_aggregates(self, batch):
        assert batch.completion_rate == 1.0
        assert batch.mean_rounds == pytest.approx(batch.rounds.mean())
        qs = batch.round_quantiles((0.0, 0.5, 1.0))
        assert qs[0] == batch.rounds.min()
        assert qs[2] == batch.rounds.max()

    def test_trial_index_validation(self, batch):
        with pytest.raises(IndexError):
            batch.trial(TRIALS)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_broadcast_batch(path_graph(4), FloodingProtocol(), trials=0)

    def test_trial_rngs_length_validation(self):
        with pytest.raises(ValueError):
            run_broadcast_batch(
                path_graph(4), FloodingProtocol(), trials=3, trial_rngs=[0, 1]
            )

    def test_source_validation(self):
        with pytest.raises(ValueError):
            run_broadcast_batch(
                path_graph(4), FloodingProtocol(), trials=2, source=9
            )


class TestBatchedStep:
    def test_matrix_step_matches_columnwise(self):
        from repro.radio import RadioNetwork

        g = hypercube(4)
        net = RadioNetwork(g)
        gen = np.random.default_rng(0)
        mat = gen.random((g.n, 7)) < 0.4
        out = net.step(mat)
        assert out.shape == mat.shape
        for t in range(7):
            assert (out[:, t] == net.step(mat[:, t])).all()

    def test_matrix_validation(self):
        from repro.radio import RadioNetwork

        net = RadioNetwork(path_graph(3))
        with pytest.raises(ValueError):
            net.step(np.zeros((4, 2), dtype=bool))
        with pytest.raises(ValueError):
            net.step(np.zeros((3, 2, 2), dtype=bool))
