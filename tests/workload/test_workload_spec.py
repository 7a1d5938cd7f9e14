"""WorkloadSpec view round-trips, registry coverage, and eager checks."""

import pickle

import pytest

from repro.scenario import Scenario
from repro.workload import (
    WORKLOADS,
    BroadcastWorkload,
    Workload,
    WorkloadSpec,
    as_workload,
)

#: One representative non-default spec string per registered workload.
REPRESENTATIVES = {
    "broadcast": "broadcast(source=3)",
    "gossip": "gossip(k=4)",
    "aggregate": "aggregate(op=count)",
    "pipeline": "pipeline(m=3, source=1)",
}


def test_registry_matches_representatives():
    assert set(WORKLOADS.names()) == set(REPRESENTATIVES)


class TestViewRoundTrips:
    @pytest.mark.parametrize("name", sorted(REPRESENTATIVES))
    def test_default_spec_round_trips(self, name):
        spec = WorkloadSpec(name)
        assert WorkloadSpec.from_string(spec.describe()) == spec
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert isinstance(spec.build(), Workload)

    @pytest.mark.parametrize("name", sorted(REPRESENTATIVES))
    def test_parameterized_spec_round_trips(self, name):
        spec = WorkloadSpec.from_string(REPRESENTATIVES[name])
        assert WorkloadSpec.from_string(spec.describe()) == spec
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        built = spec.build()
        assert built.name == name

    def test_dict_view_shape(self):
        spec = WorkloadSpec.from_string("gossip(k=4)")
        assert spec.to_dict() == {"name": "gossip", "kwargs": {"k": 4}}
        assert WorkloadSpec().to_dict() == {"name": "broadcast"}

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadSpec.from_string("scatter(k=2)")


class TestAsWorkload:
    def test_coercions_agree(self):
        from_str = as_workload("gossip(k=4)")
        from_spec = as_workload(WorkloadSpec.from_string("gossip(k=4)"))
        from_dict = as_workload({"name": "gossip", "kwargs": {"k": 4}})
        assert from_str.k == from_spec.k == from_dict.k == 4
        instance = BroadcastWorkload(source=2)
        assert as_workload(instance) is instance

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="workload must be"):
            as_workload(42)


class TestEagerParameterChecks:
    """Bad parameters die at parse/validate time, before any build."""

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("gossip(k=0)", "k"),
            ("gossip(k=2, source=1)", "only supported"),
            ("broadcast(source=-1)", "vertex id"),
            ("aggregate(op='median')", "aggregate op"),
            ("pipeline(m=0)", "m"),
        ],
    )
    def test_bad_params_fail_at_validate(self, text, match):
        with pytest.raises(ValueError, match=match):
            WorkloadSpec.from_string(text).validate()

    def test_every_registered_workload_has_a_check(self):
        for name in WORKLOADS.names():
            assert WORKLOADS.get(name).check is not None, (
                f"{name} registered without check")


class TestScenarioIntegration:
    def test_workload_segment_round_trips_through_scenario(self):
        sc = Scenario.from_string(
            "margulis(8) | decay | erasure(0.1) | gossip(k=16)")
        assert sc.workload == WorkloadSpec.from_string("gossip(k=16)")
        assert Scenario.from_string(sc.describe()) == sc
        assert Scenario.from_dict(sc.to_dict()) == sc
        assert pickle.loads(pickle.dumps(sc)) == sc
        assert "gossip(k=16)" in sc.describe()

    def test_default_workload_invisible_in_views(self):
        """Pre-workload broadcast specs serialize (and so hash) the same."""
        sc = Scenario.from_string("hypercube(4) | decay | classic")
        assert sc.workload == WorkloadSpec()
        assert "workload" not in sc.to_dict()
        assert "broadcast" not in sc.describe()

    def test_scenario_key_stable_across_views(self):
        from repro.runtime.store import scenario_key

        sc = Scenario.from_string(
            "chain(4, 2) | decay | classic | gossip(k=2) | trials=4")
        k = scenario_key(sc)
        assert scenario_key(Scenario.from_string(sc.describe())) == k
        assert scenario_key(Scenario.from_dict(sc.to_dict())) == k
        assert scenario_key(pickle.loads(pickle.dumps(sc))) == k
        # ...and the workload is part of the identity.
        other = sc.with_overrides({"workload": "gossip(k=3)"})
        assert scenario_key(other) != k

    def test_broadcast_source_spelling(self):
        sc = Scenario.from_string(
            "hypercube(4) | decay | classic | broadcast(source=2)")
        assert sc.workload.describe() == "broadcast(source=2)"
        assert sc.build().source == 2

    def test_jamming_value_workload_rejected_at_validate(self):
        with pytest.raises(ValueError, match="exactly-one-neighbour"):
            Scenario.from_string(
                'hypercube(4) | decay | jamming("jam@0-9:0,1") '
                "| aggregate(op=max)")

    def test_workload_override_on_sweep_axis(self):
        base = Scenario.from_string("hypercube(4) | decay | classic")
        sc = base.with_overrides({"workload": "gossip(k=4)"})
        assert sc.workload.describe() == "gossip(k=4)"
        # Re-pinning the source is a workload override too.
        pinned = base.with_overrides({"workload": "broadcast(source=3)"})
        assert pinned.workload.describe() == "broadcast(source=3)"
        repinned = pinned.with_overrides({"workload": "broadcast(source=1)"})
        assert repinned.workload.describe() == "broadcast(source=1)"
