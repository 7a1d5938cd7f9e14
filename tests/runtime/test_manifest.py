"""Sweep manifests: identity, persistence, resume-from-partial."""

import pytest

from repro.analysis import run_sweep
from repro.runtime import ResultStore, SweepManifest, plan_sweep
from repro.scenario import GraphSpec, Scenario, scenario_summary

SPACE = {"s": [2, 4], "layers": [2, 3]}
KW = dict(seed=7, repetitions=2, static_params={"trials": 2})


def toy(a, seed):
    return (a, seed)


def chain_point(s, layers, seed, trials):
    """Module-level (hence content-addressable) chain-broadcast task."""
    return scenario_summary(
        Scenario(graph=GraphSpec.make("chain", s, layers), trials=trials,
                 seed=seed)
    )


FRAGILE_CALLS: list = []
FRAGILE_EXPLODE_AT: list = [None]


def fragile_task(a, seed):
    FRAGILE_CALLS.append(a)
    if FRAGILE_EXPLODE_AT[0] is not None and len(FRAGILE_CALLS) == FRAGILE_EXPLODE_AT[0]:
        raise KeyboardInterrupt
    return a


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache", salt="test-salt")


class TestPlanAndIdentity:
    def test_plan_matches_run(self, store):
        manifest = plan_sweep(SPACE, chain_point, **KW, store=store)
        assert manifest.task_count == 8  # 4 points x 2 reps, fn mode
        assert manifest.pending(store) == list(range(8))
        run_sweep(SPACE, chain_point, **KW, cache=store)
        assert manifest.pending(store) == []
        assert manifest.progress(store) == (8, 8)

    def test_sweep_id_is_deterministic(self, store):
        a = plan_sweep(SPACE, chain_point, **KW, store=store)
        b = plan_sweep(SPACE, chain_point, **KW, store=store)
        assert a.sweep_id == b.sweep_id and a.keys == b.keys

    def test_sweep_id_sensitive_to_definition(self, store):
        base = plan_sweep(SPACE, chain_point, **KW, store=store)
        other_seed = plan_sweep(
            SPACE, chain_point,
            seed=8, repetitions=2, static_params={"trials": 2}, store=store)
        other_space = plan_sweep(
            {"s": [2], "layers": [2, 3]}, chain_point, **KW, store=store)
        assert len({base.sweep_id, other_seed.sweep_id, other_space.sweep_id}) == 3

    def test_batch_mode_one_task_per_point(self):
        manifest = plan_sweep(
            {"a": [1, 2, 3]}, batch_fn=toy, seed=0, repetitions=4)
        assert manifest.mode == "batch"
        assert manifest.task_count == 3
        assert len(manifest.seeds) == 12

    def test_exactly_one_evaluator(self):
        with pytest.raises(ValueError, match="exactly one"):
            plan_sweep({"a": [1]}, seed=0)

    def test_stateful_generator_seed_rejected(self):
        # Planning would consume the generator, so the subsequent run
        # could never derive the planned seeds.
        import numpy as np

        with pytest.raises(TypeError, match="reusable seed"):
            plan_sweep({"a": [1]}, toy, seed=np.random.default_rng(0))

    def test_legacy_rng_kwarg_removed(self):
        with pytest.raises(TypeError, match="rng"):
            plan_sweep({"a": [1]}, toy, rng=0)


class TestPersistence:
    def test_roundtrip_preserves_identity(self, store):
        manifest = plan_sweep(SPACE, chain_point, **KW, store=store)
        manifest.save(store)
        loaded = SweepManifest.load(store, manifest.sweep_id)
        assert loaded == manifest
        assert loaded.sweep_id == manifest.sweep_id
        assert SweepManifest.list_ids(store) == [manifest.sweep_id]

    def test_run_sweep_saves_manifest_up_front(self, store):
        def boom(a, seed):
            raise RuntimeError("die before any task completes")

        with pytest.raises(RuntimeError):
            run_sweep({"a": [1]}, boom, seed=0, cache=store)
        # The crashed run still left its ledger behind for resume tooling.
        assert len(SweepManifest.list_ids(store)) == 1


class TestResume:
    def test_resume_from_partial_cache(self, store):
        evaluated = []

        def fn(a, seed):
            evaluated.append(a)
            return a * 10

        kw = dict(seed=3, repetitions=2)
        reference = run_sweep({"a": [1, 2, 3]}, fn, **kw, cache=store)
        manifest = plan_sweep({"a": [1, 2, 3]}, fn, **kw, store=store)
        # Simulate an interrupted run: drop two of the six task results.
        store.drop([manifest.keys[1], manifest.keys[4]])
        assert manifest.progress(store) == (4, 6)
        evaluated.clear()
        resumed = run_sweep({"a": [1, 2, 3]}, fn, **kw, cache=store)
        assert len(evaluated) == 2  # only the missing tasks re-ran
        assert resumed == reference
        assert manifest.pending(store) == []

    def test_interrupted_run_persists_completed_prefix(self, store):
        # fragile_task keeps one importable identity across both runs; the
        # first run dies after two completed tasks, the second resumes.
        FRAGILE_CALLS.clear()
        FRAGILE_EXPLODE_AT[0] = 3
        kw = dict(seed=5, repetitions=1)
        with pytest.raises(KeyboardInterrupt):
            run_sweep({"a": [1, 2, 3, 4]}, fragile_task, **kw, cache=store)
        manifest = plan_sweep({"a": [1, 2, 3, 4]}, fragile_task, **kw, store=store)
        done, total = manifest.progress(store)
        assert (done, total) == (2, 4)  # results landed as tasks completed
        FRAGILE_CALLS.clear()
        FRAGILE_EXPLODE_AT[0] = None
        resumed = run_sweep({"a": [1, 2, 3, 4]}, fragile_task, **kw, cache=store)
        assert FRAGILE_CALLS == [3, 4]
        assert [p.result for p in resumed] == [1, 2, 3, 4]

    def test_resume_ignores_foreign_entries(self, store):
        def fn(a, seed):
            return a

        run_sweep({"a": [1, 2]}, fn, seed=0, cache=store)
        other = run_sweep({"a": [9]}, fn, seed=0, cache=store)
        again = run_sweep({"a": [9]}, fn, seed=0, cache=store)
        assert again == other
