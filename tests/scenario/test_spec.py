"""Spec round-trips: string, dict, pickle, and override views."""

import pickle

import pytest

from repro._util import format_call, format_value, parse_call, parse_value
from repro.radio import CHANNELS, ChannelSpec
from repro.scenario import (
    GRAPHS,
    PROTOCOLS,
    GraphSpec,
    ProtocolSpec,
    Scenario,
    SCENARIOS,
)

# Small, fast instances of every registered graph family.
GRAPH_STRINGS = [
    "chain(4, 2)",
    "hypercube(4)",
    "random_regular(16, 4)",
    "erdos_renyi(16, 0.3)",
    "grid(4)",
    "grid(4, 3)",
    "cycle(12)",
    "path(9)",
    "complete(6)",
    "star(7)",
    "margulis(3)",
    "chordal_cycle(11)",
    "cplus(6)",
    "tree(3)",
]

PROTOCOL_STRINGS = [
    "decay",
    "decay(phase_length=4)",
    "flooding",
    "round-robin",
    "aloha(0.25)",
    "collision-backoff",
    "spokesman",
]

CHANNEL_STRINGS = [
    "classic",
    "collision-detection",
    "erasure(0.05)",
    "jamming",
    'jamming("jam@0-2:1,2;crash@5:3")',
]


class TestCallStrings:
    @pytest.mark.parametrize("value", [
        0, -3, 17, 0.5, 1e-06, True, False, None, "decay",
        "jam@0-2:1,2", "a b", 'quo"te', "10", "none",
    ])
    def test_value_round_trip(self, value):
        assert parse_value(format_value(value)) == value

    def test_call_round_trip(self):
        name, args, kwargs = parse_call("decay(4, p=0.5, tag='x y')")
        assert (name, args, kwargs) == ("decay", (4,), {"p": 0.5, "tag": "x y"})
        assert parse_call(format_call(name, args, kwargs)) == (
            name, args, kwargs)

    def test_bad_specs_rejected(self):
        for text in ["", "1abc", "decay(", "decay(a=1, 2)", "decay)x"]:
            with pytest.raises(ValueError):
                parse_call(text)


class TestComponentRoundTrips:
    @pytest.mark.parametrize("text", GRAPH_STRINGS)
    def test_graph_string_round_trip(self, text):
        spec = GraphSpec.from_string(text)
        assert spec.describe() == text
        assert GraphSpec.from_string(spec.describe()) == spec
        assert GraphSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("text", PROTOCOL_STRINGS)
    def test_protocol_string_round_trip(self, text):
        spec = ProtocolSpec.from_string(text)
        assert spec.describe() == text
        assert ProtocolSpec.from_string(spec.describe()) == spec
        assert ProtocolSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("text", CHANNEL_STRINGS)
    def test_channel_string_round_trip(self, text):
        spec = ChannelSpec.from_string(text)
        assert spec.describe() == text
        assert ChannelSpec.from_string(spec.describe()) == spec
        assert ChannelSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_channel_cd_alias_canonicalizes(self):
        assert ChannelSpec.from_string("cd").describe() == "collision-detection"

    def test_channel_canonical_dict_drops_irrelevant_params(self):
        # erasure_p on a classic channel cannot perturb the content address.
        a = ChannelSpec(name="classic", erasure_p=0.1)
        b = ChannelSpec(name="classic", erasure_p=0.7)
        assert a.to_dict() == b.to_dict() == {"name": "classic"}

    def test_every_registered_component_round_trips(self):
        # The bare name of every registry entry is itself a canonical spec.
        for name in GRAPHS.names():
            covered = [g.split("(")[0] for g in GRAPH_STRINGS]
            assert name in covered, f"graph family {name} missing a test string"
        for name in PROTOCOLS.names():
            spec = ProtocolSpec.from_string(name)
            assert spec.describe() == name
        for name in sorted(CHANNELS):
            # describe() is canonical: re-parsing it is a fixed point (the
            # bare "erasure" canonicalizes to "erasure(0.1)").
            canonical = ChannelSpec.from_string(name).describe()
            assert ChannelSpec.from_string(canonical).describe() == canonical

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            GraphSpec.from_string("petersen(10)")
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolSpec.from_string("telepathy")
        with pytest.raises(ValueError, match="unknown channel"):
            ChannelSpec.from_string("telepathy")


class TestScenarioRoundTrips:
    @pytest.mark.parametrize("graph", GRAPH_STRINGS)
    def test_scenario_string_round_trip_per_graph(self, graph):
        text = f"{graph} | decay | classic"
        sc = Scenario.from_string(text)
        assert sc.describe() == text
        assert Scenario.from_string(sc.describe()) == sc

    @pytest.mark.parametrize("protocol", PROTOCOL_STRINGS)
    def test_scenario_string_round_trip_per_protocol(self, protocol):
        text = f"hypercube(4) | {protocol} | classic"
        sc = Scenario.from_string(text)
        assert sc.describe() == text

    @pytest.mark.parametrize("channel", CHANNEL_STRINGS)
    def test_scenario_string_round_trip_per_channel(self, channel):
        text = f"hypercube(4) | decay | {channel}"
        sc = Scenario.from_string(text)
        assert sc.describe() == text

    def test_scalars_round_trip(self):
        text = ("chain(4, 2) | decay | erasure(0.1) | broadcast(source=1) "
                "| trials=16 | seed=7 | max_rounds=500")
        sc = Scenario.from_string(text)
        assert sc.trials == 16 and sc.seed == 7
        assert sc.workload.describe() == "broadcast(source=1)"
        assert sc.max_rounds == 500
        assert Scenario.from_string(sc.describe()) == sc

    def test_dict_round_trip_lossless(self):
        sc = Scenario.from_string(
            'chain(4, 2) | aloha(0.25) | jamming("jam@0-2:1") | trials=8')
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_pickle_round_trip(self):
        sc = Scenario.from_string("hypercube(5) | decay | erasure(0.2)")
        assert pickle.loads(pickle.dumps(sc)) == sc

    def test_keyword_segments(self):
        sc = Scenario.from_string(
            "graph=cplus(6) | protocol=flooding | max_rounds=50")
        assert sc.graph.family == "cplus"
        assert sc.protocol.name == "flooding"
        assert sc.max_rounds == 50

    def test_named_presets_round_trip(self):
        for name, (scenario, _summary) in SCENARIOS.items():
            assert Scenario.from_string(scenario.describe()) == scenario, name

    def test_missing_graph_rejected(self):
        with pytest.raises(ValueError, match="names no graph"):
            Scenario.from_string("protocol=decay")

    def test_duplicate_component_segment_named(self):
        # A fourth bare segment that re-spells an already-assigned
        # component kind is a *duplicate*, not "too many components".
        with pytest.raises(ValueError, match="duplicate protocol segment"):
            Scenario.from_string("hypercube(4) | decay | classic | decay")

    def test_too_many_components_rejected(self):
        # A fifth segment that matches no registry keeps the generic
        # too-many-segments diagnosis (a *fourth* unknown bare segment
        # lands in the open workload slot and names that registry).
        with pytest.raises(ValueError, match="too many component"):
            Scenario.from_string(
                "hypercube(4) | decay | classic | broadcast | not-a-component"
            )


class TestOverrides:
    def test_scalar_and_component_overrides(self):
        sc = Scenario.from_string("hypercube(4) | decay | classic")
        out = sc.with_overrides(
            {"trials": "32", "channel": "erasure(0.3)", "seed": 9})
        assert out.trials == 32 and out.seed == 9
        assert out.channel.name == "erasure"
        assert out.channel.erasure_p == 0.3
        # Originals untouched (frozen specs).
        assert sc.trials == 1 and sc.channel.name == "classic"

    def test_dotted_override(self):
        sc = Scenario.from_string("hypercube(4) | decay | erasure(0.1)")
        out = sc.with_overrides({"channel.erasure_p": "0.4"})
        assert out.channel.erasure_p == 0.4

    def test_unknown_override_rejected(self):
        sc = Scenario.from_string("hypercube(4)")
        with pytest.raises(KeyError, match="unknown scenario override"):
            sc.with_overrides({"frobnicate": 1})
        with pytest.raises(KeyError):
            sc.with_overrides({"channel.nope": 1})


class TestRetiredBackend:
    """``backend=`` is a tombstone of the removed array-backend shim:
    numpy spellings fold away, anything else fails eagerly."""

    PLAIN = "hypercube(4) | decay | trials=4"

    def key(self, scenario) -> str:
        from repro.runtime import scenario_key

        return scenario_key(scenario, salt="")

    @pytest.mark.parametrize("spelling", ["numpy", "NUMPY:cpu", "numpy:cpu"])
    def test_numpy_segment_keeps_the_plain_key(self, spelling):
        plain = Scenario.from_string(self.PLAIN)
        sc = Scenario.from_string(f"{self.PLAIN} | backend={spelling}")
        assert sc == plain
        assert self.key(sc) == self.key(plain)
        assert "backend" not in sc.describe()

    def test_numpy_override_keeps_the_plain_key(self):
        plain = Scenario.from_string(self.PLAIN)
        sc = plain.with_overrides({"backend": "numpy"})
        assert sc == plain
        assert self.key(sc) == self.key(plain)

    def test_numpy_dict_entry_keeps_the_plain_key(self):
        plain = Scenario.from_string(self.PLAIN)
        sc = Scenario.from_dict({**plain.to_dict(), "backend": "numpy"})
        assert sc == plain
        assert self.key(sc) == self.key(plain)
        assert "backend" not in sc.to_dict()

    @pytest.mark.parametrize("spelling", ["torch", "torch:cuda", "jax"])
    def test_other_backends_name_the_removal(self, spelling):
        with pytest.raises(ValueError, match="array-backend shim was removed"):
            Scenario.from_string(f"{self.PLAIN} | backend={spelling}")
        plain = Scenario.from_string(self.PLAIN)
        with pytest.raises(ValueError, match="drop backend="):
            plain.with_overrides({"backend": spelling})
        with pytest.raises(ValueError, match="array-backend shim was removed"):
            Scenario.from_dict({**plain.to_dict(), "backend": spelling})


class TestRetiredSource:
    """``source=`` is a tombstone of the retired ``Scenario.source``
    alias: every view fails eagerly, naming the workload spelling, and
    specs already in that spelling keep their key."""

    PLAIN = "hypercube(4) | decay | trials=4"

    def test_string_view_names_the_workload_form(self):
        with pytest.raises(ValueError, match=r"broadcast\(source=N\)"):
            Scenario.from_string(f"{self.PLAIN} | source=1")

    def test_dict_view_names_the_workload_form(self):
        plain = Scenario.from_string(self.PLAIN)
        with pytest.raises(ValueError, match=r"broadcast\(source=N\)"):
            Scenario.from_dict({**plain.to_dict(), "source": 1})

    def test_override_view_names_the_workload_form(self):
        plain = Scenario.from_string(self.PLAIN)
        with pytest.raises(ValueError, match=r"broadcast\(source=N\)"):
            plain.with_overrides({"source": 1})
        with pytest.raises(ValueError, match=r"broadcast\(source=N\)"):
            plain.with_overrides({"source": "1"})

    def test_constructor_field_is_gone(self):
        with pytest.raises(TypeError, match="source"):
            Scenario(graph="hypercube(4)", source=1)

    def test_workload_spelling_keeps_its_key(self):
        # The key both spellings hashed to while the alias existed, so
        # cache entries written under `source=1` stay reachable.
        from repro.runtime import scenario_key

        sc = Scenario.from_string(f"{self.PLAIN} | broadcast(source=1)")
        assert scenario_key(sc, salt="") == (
            "88e8c5f52c938f84bc1531db9872ccc72fc9c4664331e685f4fc47f33404c73b"
        )


class TestBuild:
    @pytest.mark.parametrize("graph", GRAPH_STRINGS)
    def test_every_family_builds(self, graph):
        sc = Scenario.from_string(f"{graph} | decay | classic")
        realized = sc.build()
        assert realized.built.graph.n >= 2
        assert 0 <= realized.source < realized.built.graph.n

    def test_chain_meta(self):
        realized = Scenario.from_string("chain(4, 3)").build()
        meta = realized.built.meta
        assert meta["s"] == 4 and meta["layers"] == 3
        assert meta["diameter"] == 8
        assert meta["km_bound"] > 0

    def test_deterministic_graph_seed_passthrough(self):
        # Deterministic family: the protocol seed IS the scenario seed.
        sc = Scenario.from_string("hypercube(4) | decay | classic | seed=5")
        assert sc.seeds == (5, None)

    def test_randomized_graph_seed_split(self):
        from repro._util import spawn_seeds

        sc = Scenario.from_string("chain(4, 2) | decay | classic | seed=5")
        assert sc.seeds == tuple(spawn_seeds(5, 2))

    def test_classic_channel_builds_none(self):
        assert Scenario.from_string("hypercube(4)").build().channel is None
        assert (
            Scenario.from_string("hypercube(4) | decay | erasure(0.1)")
            .build().channel is not None
        )
