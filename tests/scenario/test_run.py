"""Scenario execution: bit-for-bit equivalence with the legacy engine
calls, trial sharding, and content-addressed caching."""

import numpy as np
import pytest

from repro._util import spawn_seeds
from repro.graphs import cycle_graph, grid_2d, hypercube
from repro.radio import (
    CollisionDetection,
    DecayProtocol,
    ErasureChannel,
    run_broadcast_batch,
)
from repro.radio.lower_bound import measure_chain_broadcast_batch
from repro.runtime import ParallelExecutor, ResultStore, SerialExecutor
from repro.scenario import (
    Scenario,
    merge_batches,
    run_scenario,
    run_scenario_sharded,
    scenario_summary,
)


def assert_batches_equal(a, b):
    assert a.trials == b.trials
    np.testing.assert_array_equal(a.rounds, b.rounds)
    np.testing.assert_array_equal(a.completed, b.completed)
    np.testing.assert_array_equal(a.informed_per_round, b.informed_per_round)
    np.testing.assert_array_equal(a.first_informed_round, b.first_informed_round)
    np.testing.assert_array_equal(a.transmissions, b.transmissions)


class TestLegacyEquivalence:
    """``Scenario.run`` == the ``run_broadcast_batch`` call it replaces."""

    @pytest.mark.parametrize("graph_str,builder", [
        ("hypercube(5)", lambda: hypercube(5)),
        ("grid(4, 5)", lambda: grid_2d(4, 5)),
        ("cycle(16)", lambda: cycle_graph(16)),
    ])
    def test_deterministic_graphs_bit_for_bit(self, graph_str, builder):
        sc = Scenario.from_string(f"{graph_str} | decay | classic | trials=6 | seed=11")
        legacy = run_broadcast_batch(
            builder(), DecayProtocol(), trials=6, seed=11)
        assert_batches_equal(sc.run(), legacy)

    def test_erasure_channel_bit_for_bit(self):
        sc = Scenario.from_string(
            "hypercube(5) | decay | erasure(0.15) | trials=5 | seed=2")
        legacy = run_broadcast_batch(
            hypercube(5), DecayProtocol(), trials=5, seed=2,
            channel=ErasureChannel(0.15))
        assert_batches_equal(sc.run(), legacy)

    def test_collision_detection_bit_for_bit(self):
        sc = Scenario.from_string(
            "hypercube(4) | collision-backoff | collision-detection "
            "| trials=4 | seed=9")
        from repro.radio import CollisionBackoffProtocol

        legacy = run_broadcast_batch(
            hypercube(4), CollisionBackoffProtocol(), trials=4, seed=9,
            channel=CollisionDetection())
        assert_batches_equal(sc.run(), legacy)

    def test_chain_seed_split_matches_legacy_task(self):
        # The randomized-family split:
        # (protocol_seed, graph_seed) = spawn_seeds(seed, 2).
        sc = Scenario.from_string("chain(4, 3) | decay | classic | trials=5 | seed=13")
        proto_seed, chain_seed = spawn_seeds(13, 2)
        m = measure_chain_broadcast_batch(
            4, 3, DecayProtocol(), trials=5, seed=proto_seed,
            chain_seed=chain_seed)
        batch = sc.run()
        np.testing.assert_array_equal(batch.rounds, m.rounds)
        np.testing.assert_array_equal(batch.completed, m.completed)

    def test_source_override(self):
        sc = Scenario.from_string(
            "cycle(12) | decay | classic | broadcast(source=5) | seed=1")
        legacy = run_broadcast_batch(
            cycle_graph(12), DecayProtocol(), trials=1, source=5, seed=1)
        assert_batches_equal(sc.run(), legacy)


class TestShardingAndCache:
    def test_parallel_executor_bit_for_bit(self):
        sc = Scenario.from_string("chain(4, 2) | decay | classic | trials=7 | seed=3")
        serial = sc.run()
        for executor in (SerialExecutor(), ParallelExecutor(2), 3):
            assert_batches_equal(sc.run(executor=executor), serial)

    def test_merge_batches_pads_with_final_counts(self):
        sc = Scenario.from_string("hypercube(5) | decay | classic | trials=9 | seed=4")
        serial = run_scenario(sc)
        sharded = run_scenario_sharded(sc, ParallelExecutor(4))
        assert_batches_equal(sharded, serial)

    def test_merge_batches_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_batches([])

    def test_warm_cache_replays_bit_for_bit(self, tmp_path):
        store = ResultStore(tmp_path)
        sc = Scenario.from_string("chain(4, 2) | decay | classic | trials=4 | seed=8")
        cold = sc.run(cache=store)
        assert (store.hits, store.misses) == (0, 1)
        warm = sc.run(cache=store)
        assert (store.hits, store.misses) == (1, 1)
        assert_batches_equal(cold, warm)

    def test_parallel_with_warm_store_reproduces_serial(self, tmp_path):
        # The acceptance invariant: ParallelExecutor + warm ResultStore
        # reproduces the serial result bit for bit.
        store = ResultStore(tmp_path)
        sc = Scenario.from_string("chain(4, 2) | decay | classic | trials=6 | seed=1")
        serial = sc.run(cache=store)
        replay = sc.run(executor=ParallelExecutor(2), cache=store)
        assert store.misses == 1 and store.hits == 1
        assert_batches_equal(replay, serial)

    def test_cache_key_is_spec_canonical_not_helper(self, tmp_path):
        # Spec-equal scenarios share an entry regardless of the producing
        # helper: a Scenario.run warm-up is hit by a ScenarioSweep replay.
        from repro.scenario import ScenarioSweep

        store = ResultStore(tmp_path)
        sc = Scenario.from_string("hypercube(4) | decay | classic | trials=3 | seed=6")
        direct = sc.run(cache=store)
        points = ScenarioSweep(scenarios=[sc]).run(cache=store, summary=False)
        assert store.hits == 1  # the sweep replayed the direct run's entry
        assert_batches_equal(points[0].result, direct)

    def test_key_distinguishes_views_and_fields(self, tmp_path):
        store = ResultStore(tmp_path)
        sc = Scenario.from_string("hypercube(4) | decay | classic | trials=3")
        k = store.scenario_key(sc)
        assert store.scenario_key(sc, view="summary") != k
        assert store.scenario_key(sc.with_overrides({"seed": 1})) != k
        assert store.scenario_key(
            sc.with_overrides({"channel": "erasure(0.1)"})) != k

    def test_irrelevant_channel_params_share_key(self, tmp_path):
        from repro.radio import ChannelSpec

        store = ResultStore(tmp_path)
        a = Scenario(graph="hypercube(4)", channel=ChannelSpec(erasure_p=0.1))
        b = Scenario(graph="hypercube(4)", channel=ChannelSpec(erasure_p=0.9))
        assert store.scenario_key(a) == store.scenario_key(b)


class TestSummary:
    def test_summary_chain_row(self):
        sc = Scenario.from_string("chain(4, 2) | decay | classic | trials=4 | seed=7")
        summary = scenario_summary(sc)
        proto_seed, chain_seed = spawn_seeds(7, 2)
        m = measure_chain_broadcast_batch(
            4, 2, DecayProtocol(), trials=4, seed=proto_seed,
            chain_seed=chain_seed)
        assert (summary["s"], summary["layers"], summary["trials"]) == (4, 2, 4)
        assert (summary["n"], summary["diameter"]) == (m.n, m.diameter_claim)
        assert summary["km_bound"] == m.km_bound
        assert summary["rounds"] == m.rounds.tolist()
        assert summary["completed"] == m.completed.tolist()
        assert summary["mean_rounds"] == float(np.mean(m.rounds))

    def test_summary_accepts_string_and_dict(self):
        text = "hypercube(4) | decay | classic | trials=2 | seed=3"
        sc = Scenario.from_string(text)
        assert scenario_summary(text) == scenario_summary(sc.to_dict())

    def test_run_experiment_registry_scenarios(self):
        # Every experiment-bound scenario is runnable (tiny smoke of the
        # E1-E21 acceptance: simulation experiments route through Scenario).
        from repro.analysis import EXPERIMENTS

        bound = [e for e in EXPERIMENTS if e.scenario is not None]
        assert {e.id for e in bound} == {
            "E7", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
            "E20", "E21",
        }
        smoke = bound[0].scenario.with_overrides({"trials": 2})
        batch = smoke.run()
        assert batch.trials == 2
