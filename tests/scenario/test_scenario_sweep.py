"""ScenarioSweep: grids over spec fields, grid validation, seed
discipline, and caching."""

import numpy as np
import pytest

from repro._util import as_rng, spawn_seeds
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
        # One derived seed per (point, repetition), grid-major from the master.
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
        with pytest.raises(ValueError, match="repetitions"):
            ScenarioSweep(base=BASE, repetitions=0)

    def test_repetitions_get_distinct_seeds(self):
        points = ScenarioSweep(base=BASE, repetitions=5, seed=1).points()
        assert len(points) == 5
        assert len({sc.seed for _, sc in points}) == 5

    def test_reproducible(self):
        grid = {"trials": [1, 2, 3]}
        a = ScenarioSweep(base=BASE, grid=grid, seed=7).scenarios()
        b = ScenarioSweep(base=BASE, grid=grid, seed=7).scenarios()
        assert a == b


class TestGridValidation:
    """Every dimension is a non-empty, non-string sized sequence, checked
    when the sweep is built (an empty one would silently empty the grid,
    a string would sweep over its characters)."""

    def test_cartesian_product(self):
        sweep = ScenarioSweep(
            base=BASE, grid={"trials": [1, 2], "max_rounds": [50, 60, 70]})
        overrides = [ov for ov, _ in sweep.points()]
        assert len(overrides) == 6
        assert {"trials": 1, "max_rounds": 60} in overrides

    def test_order_is_stable(self):
        a = ScenarioSweep(base=BASE, grid={"trials": [1, 2], "max_rounds": [50]})
        b = ScenarioSweep(base=BASE, grid={"max_rounds": [50], "trials": [1, 2]})
        assert a.points() == b.points()

    def test_empty_dimension_rejected_eagerly(self):
        with pytest.raises(ValueError, match="'max_rounds' is empty"):
            ScenarioSweep(base=BASE, grid={"trials": [1, 2], "max_rounds": []})

    def test_string_dimension_rejected(self):
        with pytest.raises(TypeError, match="non-string sequence"):
            ScenarioSweep(base=BASE, grid={"graph": "chain(4, 2)"})

    def test_scalar_dimension_rejected(self):
        with pytest.raises(TypeError, match="non-string sequence"):
            ScenarioSweep(base=BASE, grid={"trials": 5})

    def test_numpy_array_dimension_accepted(self):
        ps = np.linspace(0.0, 0.3, 4)
        sweep = ScenarioSweep(
            base=BASE.with_overrides({"channel": "erasure(0.1)"}),
            grid={"channel.erasure_p": ps, "trials": np.arange(1, 3)},
        )
        scenarios = sweep.scenarios()
        assert len(scenarios) == 8
        assert [sc.channel.erasure_p for sc in scenarios[::2]] == list(ps)
        # Values arrive as Python scalars: the spec strings round-trip.
        for sc in scenarios:
            assert Scenario.from_string(sc.describe()) == sc


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


    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(5), None], ids=["generator", "entropy"]
    )
    def test_cached_run_keys_what_it_evaluates(self, seed, tmp_path):
        # A Generator or None master seed draws fresh seeds per schedule,
        # so the cache keys must come from the schedule the run evaluates.
        store = ResultStore(tmp_path / "cache", salt="t")
        points = ScenarioSweep(base=BASE, repetitions=2, seed=seed).run(cache=store)
        assert len({p.scenario.seed for p in points}) == 2
        for point in points:
            key = store.scenario_key(point.scenario, view="summary")
            assert store.get(key) == point.result


class TestHelperEquivalence:
    def test_matches_helper_chain_sweep_bit_for_bit(self):
        # The CLI's broadcast path: a graph-spec grid must reproduce a loop
        # over the chain measurement helper exactly (same seeds, same
        # engine, same splits).
        layers = [2, 3]
        points = ScenarioSweep(
            base=BASE,
            grid={"graph": [GraphSpec.make("chain", 4, l) for l in layers]},
            repetitions=2,
            seed=0,
        ).run()
        seeds = spawn_seeds(as_rng(0), 4)
        helper = [
            chain_point(4, l, trials=3, seed=seed)
            for l, seed in zip([2, 2, 3, 3], seeds)
        ]
        assert len(points) == len(helper) == 4
        for point, seed, l, hp in zip(points, seeds, [2, 2, 3, 3], helper):
            assert point.scenario.seed == seed
            assert (point.result["s"], point.result["layers"]) == (4, l)
            for key in ("n", "diameter", "rounds", "completed"):
                assert point.result[key] == hp[key], key

    def test_empty_grid_runs_base(self):
        points = ScenarioSweep(base=BASE, seed=2, repetitions=2).run()
        assert len(points) == 2
        assert points[0].result["s"] == 4
