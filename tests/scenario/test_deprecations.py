"""The legacy ``rng=`` / ``chain_rng=`` / ``channel_factory=`` kwargs
completed their one-release DeprecationWarning migration and are gone;
the spec-first front doors they pointed at are the only spellings."""

import pytest

from repro.analysis import erasure_degradation
from repro.graphs import hypercube
from repro.radio import DecayProtocol, run_broadcast, run_broadcast_batch
from repro.radio.hop_analysis import hop_time_study
from repro.radio.lower_bound import measure_chain_broadcast


class TestLegacyKwargsRemoved:
    """The shims were one-release bridges; the old spellings now fail
    loudly as unknown keywords instead of silently re-seeding."""

    def test_rng_gone_everywhere(self):
        g = hypercube(3)
        with pytest.raises(TypeError, match="rng"):
            run_broadcast(g, DecayProtocol(), rng=0)
        with pytest.raises(TypeError, match="rng"):
            run_broadcast_batch(g, DecayProtocol(), trials=2, rng=0)
        with pytest.raises(TypeError, match="rng"):
            erasure_degradation([("h", hypercube(3))], [0.1], trials=1, rng=0)

    def test_chain_rng_gone(self):
        with pytest.raises(TypeError, match="chain_rng"):
            measure_chain_broadcast(2, 2, DecayProtocol(), seed=0, chain_rng=1)

    def test_channel_factory_gone(self):
        with pytest.raises(TypeError, match="channel_factory"):
            hop_time_study(
                2, 2, DecayProtocol, repetitions=2, seed=0,
                channel_factory=None)


class TestScenarioFrontDoors:
    def test_hop_time_study_scenario(self):
        from repro.scenario import Scenario

        sc = Scenario.from_string(
            "chain(2, 2) | decay | classic | seed=0 | trials=2")
        study = hop_time_study(scenario=sc, repetitions=4)
        legacy = hop_time_study(
            2, 2, DecayProtocol, repetitions=4, seed=0, trials_per_chain=2)
        assert (study.hop_times == legacy.hop_times).all()

    def test_hop_time_study_rejects_mixed_forms(self):
        from repro.scenario import Scenario

        sc = Scenario.from_string("chain(2, 2)")
        with pytest.raises(TypeError, match="not both"):
            hop_time_study(2, 2, DecayProtocol, scenario=sc)

    def test_hop_time_study_rejects_non_chain(self):
        from repro.scenario import Scenario

        with pytest.raises(ValueError, match="chain-family"):
            hop_time_study(scenario=Scenario.from_string("hypercube(4)"))

    def test_hop_time_study_honours_scenario_max_rounds(self):
        from repro.scenario import Scenario

        sc = Scenario.from_string(
            "chain(2, 2) | round-robin | classic | max_rounds=3")
        # round-robin needs ~n rounds per hop; a 3-round cap cannot finish,
        # so the study's completion check must trip — proving the cap
        # actually reached the engine.
        with pytest.raises(RuntimeError, match="did not complete"):
            hop_time_study(scenario=sc, repetitions=2)

    def test_hop_time_study_rejects_pinned_source(self):
        from repro.scenario import Scenario

        sc = Scenario.from_string(
            "chain(2, 2) | decay | classic | broadcast(source=1)")
        with pytest.raises(ValueError, match="chain root"):
            hop_time_study(scenario=sc, repetitions=2)

    def test_hop_time_study_rejects_scenario_workload(self):
        from repro.scenario import Scenario

        sc = Scenario.from_string("chain(2, 2) | decay | gossip(k=2)")
        with pytest.raises(ValueError, match="chain root"):
            hop_time_study(scenario=sc, repetitions=2)

    def test_erasure_degradation_spec_families(self):
        points = erasure_degradation(
            [("cube", "hypercube(4)")], [0.0, 0.2], trials=2, seed=0)
        assert len(points) == 2
        # p=0 erasure is bit-for-bit the classic baseline (anchor invariant).
        assert points[0].slowdown == 1.0
        assert (points[0].batch.rounds == points[0].baseline.rounds).all()
