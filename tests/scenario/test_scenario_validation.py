"""Eager scenario-spec validation (the PR-5 satellite bugfixes).

Four regressions are pinned here:

* negative seeds used to parse, round-trip, and only crash inside numpy
  at ``run()`` with an opaque "expected non-negative integer";
* ``max_rounds=0`` used to be accepted and "run" a 0-round broadcast
  reporting every trial incomplete;
* out-of-domain graph specs (``chain(0, 3)``, ``chain(4, -1)``,
  ``erdos_renyi(10, 1.5)``) used to parse successfully and fail only at
  build time — mid-sweep for grids;
* a duplicate channel segment used to raise the misleading "too many
  component segments" error.
"""

import pytest

from repro.scenario import GRAPHS, GraphSpec, Scenario, ScenarioSweep


class TestSeedValidation:
    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            Scenario(graph=GraphSpec.make("chain", 2, 2), seed=-1)

    def test_negative_seed_rejected_in_from_string(self):
        # The round-trip rejection: the string parses structurally but the
        # spec must refuse it by name, not let numpy crash at run().
        with pytest.raises(ValueError, match="seed"):
            Scenario.from_string("chain(2, 2) | decay | seed=-1")

    def test_negative_seed_rejected_in_override(self):
        sc = Scenario.from_string("chain(2, 2) | decay")
        with pytest.raises(ValueError, match="seed"):
            sc.with_overrides({"seed": -5})

    def test_zero_seed_still_fine(self):
        assert Scenario.from_string("chain(2, 2) | decay | seed=0").seed == 0


class TestMaxRoundsValidation:
    def test_zero_max_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            Scenario(graph=GraphSpec.make("hypercube", 3), max_rounds=0)

    def test_zero_max_rounds_rejected_in_from_string(self):
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            Scenario.from_string("hypercube(3) | decay | max_rounds=0")

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            Scenario(graph=GraphSpec.make("hypercube", 3), max_rounds=-3)

    def test_none_and_positive_accepted(self):
        assert Scenario(graph=GraphSpec.make("hypercube", 3)).max_rounds is None
        sc = Scenario.from_string("hypercube(3) | decay | max_rounds=1")
        assert sc.max_rounds == 1


class TestSourceValidation:
    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="source must be a vertex id"):
            Scenario(graph=GraphSpec.make("hypercube", 3),
                     workload="broadcast(source=-1)").validate()
        with pytest.raises(ValueError, match="source"):
            Scenario.from_string("hypercube(3) | decay | broadcast(source=-1)")

    def test_valid_source_accepted(self):
        sc = Scenario.from_string("hypercube(3) | decay | broadcast(source=2)")
        assert sc.workload.to_dict() == {
            "name": "broadcast", "kwargs": {"source": 2}
        }
        assert sc.build().source == 2


class TestEagerGraphValidation:
    @pytest.mark.parametrize(
        "spec",
        ["chain(0, 3)", "chain(4, -1)", "erdos_renyi(10, 1.5)"],
    )
    def test_bad_graph_specs_fail_at_parse_time(self, spec):
        with pytest.raises(ValueError, match="bad graph spec"):
            Scenario.from_string(f"{spec} | decay | classic")

    def test_chain_non_power_of_two_fails_fast(self):
        with pytest.raises(ValueError, match="power of two"):
            Scenario.from_string("chain(3, 2) | decay")

    def test_wrong_arity_fails_fast(self):
        with pytest.raises(ValueError, match="bad graph spec"):
            Scenario.from_string("hypercube(3, 4) | decay")

    def test_graph_spec_validate_returns_self(self):
        spec = GraphSpec.make("chain", 4, 2)
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("random_regular(5, 3)", "even"),
            ("random_regular(4, 4)", "d < n"),
            ("chordal_cycle(9)", "prime"),
            ("cycle(2)", ">= 3"),
            ("star(1)", ">= 2"),
            ("grid(2, 0)", "cols"),
        ],
    )
    def test_family_domain_checks(self, spec, match):
        with pytest.raises(ValueError, match=match):
            Scenario.from_string(f"{spec} | decay")

    def test_keyword_form_specs_still_validate(self):
        # Checks receive builder-normalized arguments, so keyword-form
        # specs validate regardless of the check fn's parameter names.
        Scenario.from_string("hypercube(dimension=3) | decay | classic")
        Scenario.from_string("cycle(n=8) | decay")
        Scenario.from_string("grid(rows=2, cols=3) | decay")
        with pytest.raises(ValueError, match="bad graph spec"):
            Scenario.from_string("cycle(n=2) | decay")

    def test_every_registered_family_has_a_check(self):
        # Eager validation only helps if new families keep registering
        # their parameter domains.
        for name, entry in GRAPHS.items():
            assert entry.check is not None, f"{name} registered without check"

    def test_sweep_grid_fails_before_any_run(self):
        sweep = ScenarioSweep(
            base=Scenario.from_string("chain(2, 2) | decay"),
            grid={"graph": ["chain(2, 2)", "chain(0, 3)"]},
            seed=0,
        )
        with pytest.raises(ValueError, match="bad graph spec"):
            sweep.points()

    def test_sweep_explicit_scenarios_validated(self):
        bad = Scenario(graph=GraphSpec.make("erdos_renyi", 10, 1.5))
        sweep = ScenarioSweep(scenarios=[bad], seed=0)
        with pytest.raises(ValueError, match="bad graph spec"):
            sweep.points()

    def test_validate_builds_protocol_and_channel(self):
        sc = Scenario.from_string("hypercube(3) | decay | erasure(0.1)")
        assert sc.validate() is sc


class TestDuplicateSegmentDiagnosis:
    def test_duplicate_channel_named(self):
        with pytest.raises(ValueError, match="duplicate channel segment"):
            Scenario.from_string(
                "hypercube(3) | decay | erasure(0.1) | erasure(0.9)"
            )

    def test_duplicate_graph_named(self):
        with pytest.raises(ValueError, match="duplicate graph segment"):
            Scenario.from_string(
                "hypercube(3) | decay | classic | hypercube(4)"
            )

    def test_unrecognized_extra_segment_keeps_generic_error(self):
        with pytest.raises(ValueError, match="too many component segments"):
            Scenario.from_string(
                "hypercube(3) | decay | classic | broadcast | mystery(1)"
            )

    def test_unrecognized_fourth_segment_names_workload_slot(self):
        # With all four slots open in order, an unknown fourth bare
        # segment lands in the workload slot and names the registry.
        with pytest.raises(ValueError, match="registered workloads"):
            Scenario.from_string(
                "hypercube(3) | decay | classic | mystery(1)"
            )


class TestRegistryPluralization:
    def test_graph_family_pluralizes_correctly(self):
        with pytest.raises(ValueError, match="registered graph families:"):
            GRAPHS.get("petersen-nope")

    def test_protocol_plural(self):
        from repro.scenario import PROTOCOLS

        with pytest.raises(ValueError, match="registered protocols:"):
            PROTOCOLS.get("nope")

    def test_default_plural_appends_s(self):
        from repro.scenario.registry import SpecRegistry

        assert SpecRegistry("protocol").plural == "protocols"
        assert SpecRegistry("graph family", plural="graph families").plural \
            == "graph families"
