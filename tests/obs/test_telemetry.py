"""Batched collision telemetry: engine equivalence and the no-op contract."""

import numpy as np
import pytest

from repro.graphs import (
    cplus_graph,
    broadcast_chain,
    hypercube,
    path_graph,
    random_regular,
)
from repro.obs.telemetry import (
    TELEMETRY_FIELDS,
    TELEMETRY_PREFIX,
    RoundTelemetry,
    TelemetryAccumulator,
    telemetry_events,
)
from repro.radio import DecayProtocol, FloodingProtocol, run_broadcast_batch
from repro.radio.broadcast import merge_batches
from repro.radio.channel import ErasureChannel
from repro.scenario import Scenario

SEED = 13

#: Word-boundary trial counts: below/at/above one 64-bit word, plus the
#: serial T=1 view and a 5-word workload with a ragged final word.
WORD_EDGE_TRIALS = (1, 63, 64, 65, 257)

FAMILIES = (
    ("random_regular", lambda: random_regular(64, 6, rng=0)),
    ("chain", lambda: broadcast_chain(4, 2).graph),
    ("cplus", lambda: cplus_graph(8)),
)

CHANNELS = (
    ("classic", lambda: None),
    ("erasure", lambda: ErasureChannel(0.2)),
)


def _telemetry_extras(batch):
    return {
        k: v for k, v in batch.extras.items() if k.startswith(TELEMETRY_PREFIX)
    }


class TestEngineEquivalence:
    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
    @pytest.mark.parametrize("channel", [c[0] for c in CHANNELS])
    @pytest.mark.parametrize("trials", WORD_EDGE_TRIALS)
    def test_dense_bitset_identical(self, family, channel, trials):
        graph = dict(FAMILIES)[family]()
        ch = dict(CHANNELS)[channel]()
        kw = dict(trials=trials, seed=SEED, channel=ch, telemetry=True)
        dense = run_broadcast_batch(
            graph, DecayProtocol(), engine="dense", **kw
        )
        bitset = run_broadcast_batch(
            graph, DecayProtocol(), engine="bitset", **kw
        )
        d_tel, b_tel = _telemetry_extras(dense), _telemetry_extras(bitset)
        assert set(d_tel) == set(b_tel) == {
            TELEMETRY_PREFIX + name for name in TELEMETRY_FIELDS
        }
        for key in d_tel:
            assert np.array_equal(d_tel[key], b_tel[key]), key
        assert np.array_equal(dense.transmissions, bitset.transmissions)

    @pytest.mark.parametrize("push_cost", [0, 10**9], ids=["push", "pull"])
    @pytest.mark.parametrize("trials", [64, 65])
    def test_identical_either_side_of_the_push_crossover(
        self, push_cost, trials, monkeypatch
    ):
        """The bitset folds forced to push (or pull) every round: the
        results and telemetry still equal the dense engine's, and the
        telemetry-off run's fields."""
        from repro.radio import bitset

        monkeypatch.setattr(bitset, "_PUSH_COST", push_cost)
        graph = random_regular(96, 6, rng=3)
        kw = dict(trials=trials, seed=SEED)
        dense = run_broadcast_batch(
            graph, DecayProtocol(), engine="dense", telemetry=True, **kw
        )
        for telemetry in (True, False):
            packed = run_broadcast_batch(
                graph, DecayProtocol(), engine="bitset", telemetry=telemetry, **kw
            )
            for name in (
                "rounds", "completed", "informed_per_round",
                "first_informed_round", "transmissions",
            ):
                assert np.array_equal(getattr(dense, name), getattr(packed, name))
            if telemetry:
                for key, val in _telemetry_extras(dense).items():
                    assert np.array_equal(val, packed.extras[key]), key

    def test_flooding_telemetry_identical(self):
        graph = hypercube(5)
        kw = dict(trials=64, seed=SEED, telemetry=True)
        dense = run_broadcast_batch(
            graph, FloodingProtocol(), engine="dense", **kw
        )
        bitset = run_broadcast_batch(
            graph, FloodingProtocol(), engine="bitset", **kw
        )
        for key, val in _telemetry_extras(dense).items():
            assert np.array_equal(val, bitset.extras[key]), key


class TestNoOpWhenOff:
    @pytest.mark.parametrize("engine", ["dense", "bitset"])
    def test_off_is_bit_for_bit_baseline(self, engine):
        graph = random_regular(128, 8, rng=1)
        kw = dict(trials=32, seed=SEED, engine=engine)
        off = run_broadcast_batch(graph, DecayProtocol(), **kw)
        on = run_broadcast_batch(graph, DecayProtocol(), telemetry=True, **kw)
        for name in (
            "rounds", "completed", "informed_per_round",
            "first_informed_round", "transmissions",
        ):
            assert np.array_equal(getattr(off, name), getattr(on, name)), name
        assert not _telemetry_extras(off)
        assert _telemetry_extras(on)

    def test_cache_key_stable_when_off(self):
        """telemetry=False serializes to nothing: pre-telemetry specs and
        their cache keys are untouched."""
        sc = Scenario.from_string("hypercube(4) | decay | trials=8")
        assert "telemetry" not in sc.describe()
        assert "telemetry" not in sc.to_dict()
        on = sc.with_overrides({"telemetry": True})
        assert "telemetry=on" in on.describe()
        assert on.to_dict()["telemetry"] is True
        # Round-trips through the grammar in both states.
        assert Scenario.from_string(sc.describe()) == sc
        assert Scenario.from_string(on.describe()) == on


class TestSharding:
    def test_memory_budget_sharded_identical(self):
        graph = random_regular(96, 6, rng=2)
        kw = dict(trials=100, seed=SEED, telemetry=True, engine="bitset")
        whole = run_broadcast_batch(graph, DecayProtocol(), **kw)
        sharded = run_broadcast_batch(
            graph, DecayProtocol(), memory_budget=40_000, **kw
        )
        for key, val in _telemetry_extras(whole).items():
            assert np.array_equal(val, sharded.extras[key]), key
        assert np.array_equal(whole.transmissions, sharded.transmissions)
        assert np.array_equal(
            whole.informed_per_round, sharded.informed_per_round
        )

    def test_merge_pads_telemetry_rounds_with_zeros(self):
        graph = path_graph(6)
        a = run_broadcast_batch(
            graph, FloodingProtocol(), trials=2, seed=0, telemetry=True
        )
        b = run_broadcast_batch(
            graph, FloodingProtocol(), trials=2, seed=0, max_rounds=2,
            telemetry=True,
        )
        merged = merge_batches([a, b])
        tel = RoundTelemetry.from_batch(merged)
        assert tel.trials == 4
        assert tel.rounds == len(a.informed_per_round)
        # The short shard's missing rounds are zero activity, not edge-pad.
        assert (tel.transmitters[2:, 2:] == 0).all()


class TestRoundTelemetryType:
    def _tel(self):
        r = np.arange(12, dtype=np.int64).reshape(4, 3)
        return RoundTelemetry(
            transmitters=r + 2,
            receptions=r,
            collision_victims=r[::-1],
            newly_informed=r,
            wasted_transmissions=np.ones_like(r),
        )

    def test_shape_and_rates(self):
        tel = self._tel()
        assert (tel.rounds, tel.trials) == (4, 3)
        assert tel.contacted.shape == (4, 3)
        rates = tel.collision_rates
        assert ((0.0 <= rates) & (rates <= 1.0)).all()
        assert ((0.0 <= tel.wasted_rates) & (tel.wasted_rates <= 1.0)).all()
        assert 0.0 <= tel.mean_collision_rate() <= 1.0
        assert set(tel.totals()) == set(TELEMETRY_FIELDS)

    def test_extras_round_trip(self):
        tel = self._tel()
        again = RoundTelemetry.from_extras(tel.to_extras())
        for name in TELEMETRY_FIELDS:
            assert np.array_equal(getattr(tel, name), getattr(again, name))

    def test_from_extras_missing_key_raises(self):
        extras = self._tel().to_extras()
        extras.pop(TELEMETRY_PREFIX + "wasted_transmissions")
        with pytest.raises(KeyError):
            RoundTelemetry.from_extras(extras)

    def test_mismatched_shapes_rejected(self):
        good = self._tel()
        with pytest.raises(ValueError):
            RoundTelemetry(
                transmitters=good.transmitters,
                receptions=good.receptions[:2],
                collision_victims=good.collision_victims,
                newly_informed=good.newly_informed,
                wasted_transmissions=good.wasted_transmissions,
            )

    def test_accumulator_builds_extras(self):
        acc = TelemetryAccumulator(3)
        zeros = np.zeros(3, dtype=np.int64)
        acc.append_full(
            transmitters=zeros + 2, receptions=zeros + 1,
            collision_victims=zeros, newly_informed=zeros + 1,
            wasted_transmissions=zeros,
        )
        extras = acc.extras()
        assert set(extras) == {
            TELEMETRY_PREFIX + name for name in TELEMETRY_FIELDS
        }
        assert extras[TELEMETRY_PREFIX + "transmitters"].shape == (1, 3)

    def test_events_stream(self):
        tel = self._tel()
        events = list(telemetry_events(tel, scenario="s"))
        assert len(events) == tel.rounds
        assert all(e["kind"] == "telemetry" for e in events)
        assert all(0.0 <= e["collision_rate"] <= 1.0 for e in events)
        assert events[0]["scenario"] == "s"
