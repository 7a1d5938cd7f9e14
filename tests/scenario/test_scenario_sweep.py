"""ScenarioSweep: grids over spec fields, seed discipline, caching, and
the run_sweep scenario mode."""

import numpy as np
import pytest

from repro._util import as_rng, spawn_seeds
from repro.analysis import run_sweep
from repro.radio import DecayProtocol, measure_chain_broadcast_batch
from repro.runtime import ParallelExecutor, ResultStore
from repro.scenario import GraphSpec, Scenario, ScenarioSweep

BASE = Scenario.from_string("chain(4, 2) | decay | classic | trials=3")


def chain_point(s, layers, trials, seed):
    """Decay on a fresh chain straight through the measurement helper,
    under the randomized-family seed split."""
    protocol_seed, chain_seed = spawn_seeds(seed, 2)
    m = measure_chain_broadcast_batch(
        s, layers, DecayProtocol(), trials=trials, seed=protocol_seed,
        chain_seed=chain_seed)
    return {"n": m.n, "diameter": m.diameter_claim,
            "rounds": [int(r) for r in m.rounds],
            "completed": [bool(c) for c in m.completed]}


class TestSchedule:
    def test_grid_is_lexicographic_and_rep_expanded(self):
        sweep = ScenarioSweep(
            base=BASE,
            grid={"trials": [1, 2], "channel.erasure_p": [0.0, 0.1]},
            repetitions=2,
            seed=0,
        )
        points = sweep.points()
        assert len(points) == 8  # 2 x 2 grid x 2 reps
        # Sorted keys: channel.erasure_p varies slowest.
        assert [ov["channel.erasure_p"] for ov, _ in points] == [
            0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1]
        assert [ov["trials"] for ov, _ in points] == [1, 1, 2, 2, 1, 1, 2, 2]
        # Seeds derive exactly like run_sweep: grid-major from the master.
        assert [sc.seed for _, sc in points] == spawn_seeds(as_rng(0), 8)

    def test_explicit_list_keeps_spec_seeds(self):
        scenarios = ["hypercube(4) | decay | classic | seed=5",
                     "cycle(8) | decay | classic | seed=9"]
        points = ScenarioSweep(scenarios=scenarios).points()
        assert [sc.seed for _, sc in points] == [5, 9]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioSweep()
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioSweep(base=BASE, scenarios=[BASE])
        with pytest.raises(TypeError, match="non-string sequence"):
            ScenarioSweep(base=BASE, grid={"trials": "12"})
        with pytest.raises(ValueError, match="is empty"):
            ScenarioSweep(base=BASE, grid={"trials": []})


class TestRun:
    def test_serial_parallel_and_cache_agree(self, tmp_path):
        sweep = ScenarioSweep(
            base=BASE,
            grid={"graph": [GraphSpec.make("chain", 4, l) for l in (2, 3)]},
            repetitions=2,
            seed=1,
        )
        serial = sweep.run()
        parallel = sweep.run(executor=ParallelExecutor(2))
        assert [p.result for p in parallel] == [p.result for p in serial]
        store = ResultStore(tmp_path)
        cold = sweep.run(cache=store)
        assert (store.hits, store.misses) == (0, 4)
        warm = sweep.run(cache=store)
        assert (store.hits, store.misses) == (4, 4)
        assert [p.result for p in cold] == [p.result for p in serial]
        assert [p.result for p in warm] == [p.result for p in serial]

    def test_manifest_tracks_progress(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = ScenarioSweep(base=BASE, grid={"trials": [1, 2]}, seed=0)
        manifest = sweep.manifest(store)
        assert manifest.progress(store) == (0, 2)
        sweep.run(cache=store)
        assert manifest.progress(store) == (2, 2)
        assert manifest.fn == "scenario:summary"

    def test_full_results_view(self):
        points = ScenarioSweep(
            scenarios=[BASE.with_overrides({"seed": 3})]
        ).run(summary=False)
        batch = points[0].result
        np.testing.assert_array_equal(
            batch.rounds, BASE.with_overrides({"seed": 3}).run().rounds)


class TestRunSweepScenarioMode:
    def test_matches_helper_chain_sweep_bit_for_bit(self):
        # The CLI's broadcast path: a graph-spec grid must reproduce a
        # callable-mode sweep over the chain measurement helper exactly
        # (same seeds, same engine, same splits).
        helper = run_sweep(
            {"layers": [2, 3]},
            chain_point,
            seed=0,
            repetitions=2,
            static_params={"s": 4, "trials": 3},
        )
        scenario_points = run_sweep(
            {"graph": [GraphSpec.make("chain", 4, l) for l in (2, 3)]},
            scenario=BASE,
            seed=0,
            repetitions=2,
        )
        assert len(scenario_points) == len(helper) == 4
        for sp, hp in zip(scenario_points, helper):
            assert sp.seed == hp.seed
            assert (sp.result["s"], sp.result["layers"]) == (
                4, hp.params["layers"])
            for key in ("n", "diameter", "rounds", "completed"):
                assert sp.result[key] == hp.result[key], key

    def test_scenario_mode_rejects_evaluators(self):
        with pytest.raises(ValueError, match="scenario mode"):
            run_sweep({}, fn=chain_point, scenario=BASE)

    def test_empty_grid_runs_base(self):
        points = run_sweep({}, scenario=BASE, seed=2, repetitions=2)
        assert len(points) == 2
        assert points[0].result["s"] == 4
