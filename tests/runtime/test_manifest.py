"""Sweep manifests: identity, persistence, resume-from-partial."""

import pytest

import repro.scenario.tasks as tasks
from repro.runtime import ResultStore, SweepManifest
from repro.scenario import GraphSpec, Scenario, ScenarioSweep

BASE = Scenario.from_string("chain(2, 2) | decay | classic | trials=2")
GRID = {"graph": [GraphSpec.make("chain", s, l) for s in (2, 4) for l in (2, 3)]}


def sweep(grid=GRID, seed=7, repetitions=2):
    return ScenarioSweep(base=BASE, grid=grid, repetitions=repetitions, seed=seed)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache", salt="test-salt")


@pytest.fixture
def evaluated(monkeypatch):
    """Record every scenario a sweep actually evaluates (cache misses)."""
    calls = []
    summary = tasks.scenario_summary

    def counting(scenario):
        calls.append(scenario)
        return summary(scenario)

    monkeypatch.setattr(tasks, "scenario_summary", counting)
    return calls


class TestPlanAndIdentity:
    def test_plan_matches_run(self, store):
        manifest = sweep().manifest(store)
        assert manifest.task_count == 8  # 4 points x 2 reps
        assert manifest.pending(store) == list(range(8))
        sweep().run(cache=store)
        assert manifest.pending(store) == []
        assert manifest.progress(store) == (8, 8)

    def test_sweep_id_is_deterministic(self, store):
        a = sweep().manifest(store)
        b = sweep().manifest(store)
        assert a.sweep_id == b.sweep_id and a.keys == b.keys

    def test_sweep_id_sensitive_to_definition(self, store):
        base = sweep().manifest(store)
        other_seed = sweep(seed=8).manifest(store)
        other_grid = sweep(grid={"graph": GRID["graph"][:2]}).manifest(store)
        assert len({base.sweep_id, other_seed.sweep_id, other_grid.sweep_id}) == 3

    def test_sweep_id_pinned(self, store):
        # A manifest's identity is part of the on-disk resume contract:
        # the same grid and seed must keep naming the same ledger.
        manifest = ScenarioSweep(
            base=Scenario.from_string("chain(4, 2) | decay | classic | trials=3"),
            grid={"graph": [GraphSpec.make("chain", 4, l) for l in (2, 3)]},
            repetitions=2,
            seed=1,
        ).manifest(store)
        assert manifest.sweep_id == "2596901c2d10b0a8"


class TestPersistence:
    def test_roundtrip_preserves_identity(self, store):
        manifest = sweep().manifest(store)
        manifest.save(store)
        loaded = SweepManifest.load(store, manifest.sweep_id)
        assert loaded == manifest
        assert loaded.sweep_id == manifest.sweep_id
        assert SweepManifest.list_ids(store) == [manifest.sweep_id]

    def test_run_saves_manifest_up_front(self, store, monkeypatch):
        def boom(scenario):
            raise RuntimeError("die before any task completes")

        monkeypatch.setattr(tasks, "scenario_summary", boom)
        with pytest.raises(RuntimeError):
            sweep().run(cache=store)
        # The crashed run still left its ledger behind for resume tooling.
        assert SweepManifest.list_ids(store) == [sweep().manifest(store).sweep_id]


class TestResume:
    def test_resume_from_partial_cache(self, store, evaluated):
        reference = sweep(repetitions=1).run(cache=store)
        manifest = sweep(repetitions=1).manifest(store)
        # Simulate an interrupted run: drop two of the four task results.
        store.drop([manifest.keys[1], manifest.keys[3]])
        assert manifest.progress(store) == (2, 4)
        evaluated.clear()
        resumed = sweep(repetitions=1).run(cache=store)
        assert evaluated == [reference[1].scenario, reference[3].scenario]
        assert resumed == reference
        assert manifest.pending(store) == []

    def test_interrupted_run_persists_completed_prefix(self, store, monkeypatch):
        # The first run dies on its third task; the two completed results
        # are already persisted, so the resumed run evaluates only the rest.
        calls = []
        summary = tasks.scenario_summary

        def fragile(scenario):
            calls.append(scenario)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return summary(scenario)

        monkeypatch.setattr(tasks, "scenario_summary", fragile)
        with pytest.raises(KeyboardInterrupt):
            sweep(repetitions=1).run(cache=store)
        manifest = sweep(repetitions=1).manifest(store)
        assert manifest.progress(store) == (2, 4)
        monkeypatch.setattr(tasks, "scenario_summary", summary)
        resumed = sweep(repetitions=1).run(cache=store)
        assert store.hits == 2
        assert [p.result for p in resumed] == [
            p.result for p in sweep(repetitions=1).run()
        ]

    def test_resume_ignores_foreign_entries(self, store):
        sweep(grid={"graph": GRID["graph"][:2]}).run(cache=store)
        other_grid = {"graph": GRID["graph"][2:]}
        other = sweep(grid=other_grid).run(cache=store)
        again = sweep(grid=other_grid).run(cache=store)
        assert again == other
        assert other == sweep(grid=other_grid).run()
