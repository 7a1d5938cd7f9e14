"""Batched engine: seeded batch/loop equivalence and result invariants.

The contract under test: ``run_broadcast_batch(..., trials=T, seed=master)``
must be bit-for-bit identical to ``T`` standalone ``run_broadcast`` calls
seeded with ``spawn_seeds(master, T)`` — for the counter-coin built-ins
and for third-party protocols that draw from each trial's own generator.
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


class ThirdPartyRandomProtocol(BroadcastProtocol):
    """Stateful third-party protocol drawing from each trial's own
    generator — the per-trial streams must survive trial compaction."""

    name = "third-party-random"

    def reset_batch(self, network, source, rngs):
        self._rngs = list(rngs)

    def select_trials(self, keep):
        self._rngs = [g for g, k in zip(self._rngs, keep) if k]

    def transmitters_batch(self, round_index, informed, network):
        draws = [g.random(network.n) < 0.5 for g in self._rngs]
        return np.stack(draws, axis=1) & informed


def _protocol_factories():
    return [
        FloodingProtocol,
        RoundRobinProtocol,
        DecayProtocol,
        lambda: AlohaProtocol(0.3),
        SpokesmanBroadcastProtocol,
        ThirdPartyRandomProtocol,
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
             "third-party"],
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

    def test_vectorized_protocol_without_select_trials(self):
        # A stateless protocol defines only transmitters_batch; the base
        # reset_batch and select_trials must be safe no-ops when trials
        # complete.
        class VectorFlood(BroadcastProtocol):
            name = "vector-flood"

            def transmitters_batch(self, round_index, informed, network):
                return informed.copy()

        batch = run_broadcast_batch(path_graph(5), VectorFlood(), trials=3, seed=0)
        assert batch.completed.all()
        assert (batch.rounds == 4).all()


def _decay_overriding_transmitters(calls):
    class DecayWithSingleRunHook(DecayProtocol):
        def reset_batch(self, network, source, rngs):
            calls.append("reset_batch")
            super().reset_batch(network, source, rngs)

        def transmitters(self, round_index, informed, network):
            calls.append("transmitters")
            return informed.copy()

    return DecayWithSingleRunHook()


def _fresh_protocol_defining_reset(calls):
    class ResetAndFlood(BroadcastProtocol):
        name = "reset-and-flood"

        def reset(self, network, source, rng):
            calls.append("reset")

        def transmitters_batch(self, round_index, informed, network):
            calls.append("transmitters_batch")
            return informed.copy()

    return ResetAndFlood()


class TestRetiredHooks:
    """The single-run hooks are gone from the engine: a class defining one
    is rejected before any round runs instead of being silently ignored."""

    @pytest.mark.parametrize(
        "make", [_decay_overriding_transmitters, _fresh_protocol_defining_reset],
        ids=["decay-subclass-transmitters", "fresh-protocol-reset"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda g, p: run_broadcast(g, p, seed=0),
            lambda g, p: run_broadcast_batch(g, p, trials=3, seed=0),
        ],
        ids=["run_broadcast", "run_broadcast_batch"],
    )
    def test_retired_hook_raises_type_error(self, make, run):
        calls = []
        with pytest.raises(TypeError, match="retired single-run hook"):
            run(hypercube(3), make(calls))
        assert calls == []


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
