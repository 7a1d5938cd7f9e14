"""ExpansionSpec — the measurement-side declarative spec layer."""

import pickle

import numpy as np
import pytest

from repro.expansion import (
    ESTIMATORS,
    ExpansionSpec,
    as_expansion_spec,
    wireless_expansion_exact,
    wireless_expansion_sampled,
)
from repro.graphs import hypercube, random_regular


class TestSpecViews:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_bare_names_round_trip(self, name):
        spec = ExpansionSpec.from_string(name)
        assert spec.estimator == name
        assert ExpansionSpec.from_string(spec.describe()) == spec
        assert ExpansionSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_kwargs_round_trip(self):
        spec = ExpansionSpec.from_string("sampled(samples=200, alpha=0.4)")
        assert spec.samples == 200 and spec.alpha == 0.4
        assert spec.describe() == "sampled(alpha=0.4, samples=200)"
        assert ExpansionSpec.from_string(spec.describe()) == spec

    def test_to_dict_carries_only_consumed_fields(self):
        exact = ExpansionSpec.from_string("exact")
        assert set(exact.to_dict()) == {"estimator", "alpha", "max_set_bits"}
        sampled = ExpansionSpec.from_string("sampled")
        assert "samples" in sampled.to_dict()

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown expansion estimator"):
            ExpansionSpec.from_string("magic")

    def test_positional_args_rejected(self):
        with pytest.raises(ValueError, match="keyword arguments only"):
            ExpansionSpec.from_string("sampled(200)")

    def test_unconsumed_kwarg_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            ExpansionSpec.from_string("exact(samples=50)")

    def test_field_domains_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            ExpansionSpec(alpha=1.5)
        with pytest.raises(ValueError, match="samples"):
            ExpansionSpec(samples=-1)
        with pytest.raises(ValueError, match="max_set_bits"):
            ExpansionSpec(max_set_bits=0)

    def test_as_expansion_spec_coercions(self):
        spec = ExpansionSpec.from_string("portfolio")
        assert as_expansion_spec(spec) is spec
        assert as_expansion_spec("portfolio") == spec
        assert as_expansion_spec(spec.to_dict()) == spec
        with pytest.raises(TypeError):
            as_expansion_spec(42)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown expansion-spec"):
            ExpansionSpec.from_dict({"estimator": "sampled", "bogus": 1})


class TestEstimate:
    def test_exact_matches_direct_call(self):
        g = hypercube(4)
        est = ExpansionSpec.from_string("exact(max_set_bits=16)").estimate(g)
        direct = wireless_expansion_exact(g, 0.5, max_bits=16)
        assert est.value == direct[0]
        assert est.bound == "exact"
        assert np.array_equal(est.subset, direct[1])
        assert est.candidates > 0

    def test_sampled_matches_direct_call(self):
        g = random_regular(40, 4, rng=0)
        spec = ExpansionSpec.from_string("sampled(samples=25)")
        est = spec.estimate(g, rng=3)
        direct = wireless_expansion_sampled(g, 0.5, samples=25, rng=3)
        assert est.value == direct[0]
        assert est.bound == "upper"
        assert np.array_equal(est.subset, direct[1])

    def test_sampled_upper_bounds_exact(self):
        g = hypercube(4)
        exact = ExpansionSpec.from_string("exact(max_set_bits=16)").estimate(g)
        sampled = ExpansionSpec.from_string("sampled(samples=40)").estimate(
            g, rng=1
        )
        assert sampled.value >= exact.value - 1e-12

    def test_portfolio_lower_bounds_sampled(self):
        # Portfolio scores the *same* candidate sequence with certified
        # per-set lower bounds, so its minimum cannot exceed sampled's.
        g = random_regular(60, 6, rng=2)
        sampled = ExpansionSpec.from_string("sampled(samples=30)").estimate(
            g, rng=5
        )
        portfolio = ExpansionSpec.from_string("portfolio(samples=30)").estimate(
            g, rng=5
        )
        # Per-set payoffs lower-bound each set's expansion, so the minimum
        # lower-bounds the candidate minimum (sampled's value on the same
        # candidate sequence) — hence the tag, which deliberately does NOT
        # claim a bound on beta_w itself.
        assert portfolio.bound == "candidate-lower"
        assert portfolio.value <= sampled.value + 1e-12

    def test_portfolio_deterministic_given_seed(self):
        g = random_regular(40, 4, rng=1)
        spec = ExpansionSpec.from_string("portfolio(samples=15)")
        a = spec.estimate(g, rng=7)
        b = spec.estimate(g, rng=7)
        assert a.value == b.value
        assert np.array_equal(a.subset, b.subset)

    def test_portfolio_batch_skips_out_of_cap_sets(self):
        from repro.spokesman import wireless_lower_bounds_of_sets

        g = hypercube(4)
        values = wireless_lower_bounds_of_sets(
            g, [np.arange(6), np.array([0, 1]), np.array([], dtype=np.int64)],
            size_cap=4,
        )
        assert values[0] == np.inf  # wider than the cap
        assert np.isfinite(values[1])
        assert values[2] == np.inf  # empty set

    def test_portfolio_parallel_identical(self):
        from repro.runtime import ParallelExecutor

        g = random_regular(40, 4, rng=1)
        spec = ExpansionSpec.from_string("portfolio(samples=15)")
        serial = spec.estimate(g, rng=7)
        parallel = spec.estimate(g, rng=7, executor=ParallelExecutor(3))
        assert serial.value == parallel.value
        assert np.array_equal(serial.subset, parallel.subset)


class TestExpansionSummaryTask:
    def test_summary_shape(self):
        from repro.scenario import expansion_summary

        out = expansion_summary("hypercube(4)", "sampled(samples=10)", seed=3)
        assert out["n"] == 16
        assert out["graph"] == "hypercube(4)"
        assert out["expansion"] == "sampled(samples=10)"
        assert out["bound"] == "upper"
        assert out["seed"] == 3
        assert out["beta_w"] >= 0
        assert out["subset_size"] >= 1
        assert out["candidates"] > 0

    def test_randomized_graph_seed_split_matches_scenario(self):
        from repro._util import spawn_seeds
        from repro.scenario import GraphSpec, expansion_summary

        # The graph-construction child must be the same one Scenario.run
        # would derive, so expansion and broadcast measurements of one
        # (spec, seed) pair see the same instance.
        out = expansion_summary("random_regular(24, 4)", "sampled(samples=5)",
                                seed=11)
        _, graph_seed = spawn_seeds(11, 2)
        built = GraphSpec.make("random_regular", 24, 4).build(seed=graph_seed)
        assert out["n"] == built.graph.n

    def test_deterministic_and_cacheable(self, tmp_path):
        from repro.runtime import ResultStore
        from repro.scenario import GraphSpec, expansion_summary

        gspec = GraphSpec.make("hypercube", 4)
        espec = "sampled(samples=10)"
        store = ResultStore(tmp_path)
        key = store.expansion_key(gspec, as_spec(espec), seed=2)
        first = expansion_summary(gspec, espec, seed=2)
        store.put(key, first)
        replay = store.get(key)
        assert replay == first
        assert store.hits == 1 and store.misses == 0

    def test_expansion_key_is_spec_equal(self):
        from repro.runtime import expansion_key
        from repro.scenario import GraphSpec

        a = expansion_key(
            GraphSpec.make("hypercube", 4), as_spec("sampled"), seed=0
        )
        b = expansion_key(
            GraphSpec.from_string("hypercube(4)"),
            as_spec("sampled(samples=100)"),  # explicit default
            seed=0,
        )
        assert a == b
        c = expansion_key(
            GraphSpec.make("hypercube", 4), as_spec("sampled"), seed=1
        )
        assert a != c

    def test_bad_graph_fails_fast(self):
        from repro.scenario import expansion_summary

        with pytest.raises(ValueError, match="bad graph spec"):
            expansion_summary("erdos_renyi(10, 1.5)", "sampled", seed=0)


def as_spec(text):
    return ExpansionSpec.from_string(text)
