"""The batched unique-coverage lattice against a pure-Python brute force.

``_best_unique_batch`` scores every candidate of a size group in slabs of
``(rows, 2^k')`` words after forcing dominated bits out of the lattice;
these tests pin it to ``max_{S'} Σ_m w_m·[|S' ∩ m| = 1]`` enumerated
subset by subset.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.expansion.pipeline as pipeline
from repro.expansion import (
    enumerate_candidates,
    evaluate_candidates,
    max_unique_coverage_lattice,
    wireless_expansion_of_set_exact,
)
from repro.expansion.pipeline import (
    MAX_LATTICE_BITS,
    _best_unique_batch,
    evaluate_candidate_shard,
)
from repro.expansion.spec import ExpansionSpec
from repro.graphs import erdos_renyi, hypercube, margulis_expander, random_regular

MAX_K = 10


def brute_force(k, masks, weights):
    best = 0
    for x in range(1 << k):
        covered = sum(
            w for m, w in zip(masks, weights) if (x & m).bit_count() == 1
        )
        best = max(best, covered)
    return best


def multi_bit(k):
    return st.integers(0, (1 << k) - 1).filter(lambda m: m.bit_count() >= 2)


@st.composite
def candidate(draw, k, min_multi=0, max_multi=12, singletons=True):
    """One candidate's boundary: multi masks plus (optionally) singletons,
    each with a multiplicity, listed in arbitrary order."""
    masks = draw(st.lists(multi_bit(k), min_size=min_multi, max_size=max_multi))
    if singletons:
        masks += draw(st.lists(st.sampled_from([1 << b for b in range(k)]),
                               max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(masks),
                            max_size=len(masks)))
    return masks, weights


@st.composite
def forcing_candidate(draw, k):
    """Heavy singletons over light multi masks: most bits are forced, and
    forcing two bits of a mask frees the bits it shared with them."""
    masks = draw(st.lists(multi_bit(k), max_size=16))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(masks),
                            max_size=len(masks)))
    heavy = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    masks += [1 << b for b in range(k)]
    return masks, weights + heavy


@st.composite
def size_group(draw, max_candidates=6, max_multi=12):
    """A size group: ``k`` and several candidates, some possibly empty."""
    k = draw(st.integers(1, MAX_K))
    cands = draw(st.lists(
        st.one_of(candidate(k, max_multi=max_multi),
                  candidate(k, max_multi=0),
                  st.just(([], []))),
        min_size=1, max_size=max_candidates,
    ))
    return k, cands


def run_batch(k, cands):
    cand_of = np.concatenate(
        [np.full(len(m), c, dtype=np.int64) for c, (m, _) in enumerate(cands)]
    )
    masks = np.concatenate([np.asarray(m, dtype=np.uint64) for m, _ in cands])
    weights = np.concatenate([np.asarray(w, dtype=np.int64) for _, w in cands])
    return _best_unique_batch(k, cand_of, masks, weights, len(cands))


class TestAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, MAX_K).flatmap(
        lambda k: st.tuples(st.just(k), candidate(k))))
    def test_single_candidate_weights_above_one(self, case):
        k, (masks, weights) = case
        assert max_unique_coverage_lattice(k, masks, weights) == brute_force(
            k, masks, weights
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(7, MAX_K).flatmap(
        lambda k: st.tuples(st.just(k), candidate(k, min_multi=65,
                                                  max_multi=140))))
    def test_candidate_spanning_several_chunks(self, case):
        # > 64 multi masks: the candidate takes several 64-lane rows,
        # summed before the maximum.
        k, (masks, weights) = case
        assert max_unique_coverage_lattice(k, masks, weights) == brute_force(
            k, masks, weights
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, MAX_K).flatmap(
        lambda k: st.tuples(st.just(k), candidate(k, max_multi=0))))
    def test_all_singleton_candidate(self, case):
        # No multi masks: every bit is free, the optimum is the full sum.
        k, (masks, weights) = case
        assert max_unique_coverage_lattice(k, masks, weights) == sum(weights)
        assert sum(weights) == brute_force(k, masks, weights)

    def test_candidate_without_boundary(self):
        empty = np.array([], dtype=np.uint64)
        assert max_unique_coverage_lattice(4, empty, empty) == 0
        assert run_batch(3, [([], []), ([0b11], [2]), ([], [])]).tolist() == [
            0, 2, 0,
        ]

    @settings(max_examples=60, deadline=None)
    @given(size_group())
    @example((3, [([3], [1]), ([3, 5], [1, 1])]))
    @example((4, [([0b0111, 0b1], [2, 5]), ([], []), ([0b11, 0b1000], [1, 3])]))
    def test_group_with_mixed_involved_widths(self, group):
        # Candidates of one size group differ in k' (involved bits) and
        # land in different slabs; each must match its own brute force.
        k, cands = group
        expected = [brute_force(k, m, w) for m, w in cands]
        assert run_batch(k, cands).tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(size_group(max_candidates=10, max_multi=80))
    def test_group_spanning_several_slabs(self, group):
        # Tiny slabs force several per k' — and a candidate wider than a
        # whole slab still gets one of its own.
        k, cands = group
        expected = [brute_force(k, m, w) for m, w in cands]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_SLAB_CELLS", 1 << 3)
            assert run_batch(k, cands).tolist() == expected

    def test_default_slabs_split_a_large_group(self):
        # 300 candidates at k' = 9: 2^16 / 2^9 = 128 rows a slab, so the
        # group needs three slabs at the default size.
        gen = np.random.default_rng(5)
        k = 9
        cands = []
        for _ in range(300):
            masks = [int(m) for m in gen.integers(3, 1 << k, size=6)]
            masks.append((1 << k) - 1)  # every bit involved
            cands.append((masks, [int(w) for w in gen.integers(1, 4, 7)]))
        expected = [brute_force(k, m, w) for m, w in cands]
        assert run_batch(k, cands).tolist() == expected


class TestForcedBits:
    @pytest.mark.parametrize("k,masks,weights,expected", [
        # Bit 0 is forced (5 ≥ 3); the shared lane 0b11 is then hit once
        # and still live, so bit 1 (1 < 3) is not: {0} scores 8, {0, 1} 6.
        (2, [0b01, 0b10, 0b11], [5, 1, 3], 8),
        # All three bits forced in one pass.
        (3, [1, 2, 4, 0b011, 0b111], [2, 2, 1, 1, 1], 5),
        # A cascade: forcing bits 0 and 1 hits 0b111 twice, which frees
        # bit 2 (1 ≥ 0) on the next pass.
        (3, [1, 2, 4, 0b111], [6, 6, 1, 5], 13),
    ])
    def test_hand_cases(self, k, masks, weights, expected):
        assert brute_force(k, masks, weights) == expected
        assert max_unique_coverage_lattice(k, masks, weights) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, MAX_K).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(
            forcing_candidate(k), min_size=1, max_size=6))))
    def test_heavy_singletons(self, group):
        k, cands = group
        expected = [brute_force(k, m, w) for m, w in cands]
        assert run_batch(k, cands).tolist() == expected

    def test_pre_hit_lanes_span_several_rows(self):
        # Bit 0 is forced, so each of the 127 multi masks through it
        # enters the lattice already hit once; with the other 120 they
        # fill four 64-lane rows, pre-hit lanes in every one.
        k = 8
        masks = [m for m in range(1 << k) if m.bit_count() >= 2]
        weights = [1 + m % 3 for m in masks]
        masks.append(1)
        weights.append(400)
        expected = brute_force(k, masks, weights)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            slab = pipeline._lattice_slab

            def tap(adj, planes, pre_hit, *rest):
                seen.append(pre_hit.copy())
                return slab(adj, planes, pre_hit, *rest)

            mp.setattr(pipeline, "_lattice_slab", tap)
            assert max_unique_coverage_lattice(k, masks, weights) == expected
        (pre_hit,) = seen
        assert pre_hit.size == 4 and pre_hit.all()

    def test_reduction_fires_on_benchmark_sized_candidates(self):
        # Uniform 16-vertex sets of random_regular(200, 8) involve all 16
        # bits; forcing leaves at most 10 to the lattice (seeded).
        graph = random_regular(200, 8, rng=0)
        gen = np.random.default_rng(0)
        candidates = [gen.choice(200, size=16, replace=False)
                      for _ in range(300)]
        widths = []
        with pytest.MonkeyPatch.context() as mp:
            slab = pipeline._lattice_slab

            def tap(adj, *rest):
                widths.append(adj.shape[1])
                return slab(adj, *rest)

            mp.setattr(pipeline, "_lattice_slab", tap)
            evaluate_candidate_shard(graph, candidates, 16)
        assert widths and max(widths) <= 12


class TestNonSetCandidates:
    @pytest.mark.parametrize("bad", [[0, 1, 1], [0, -1], [0, 99]],
                             ids=["repeat", "negative", "past_n"])
    def test_rejected_with_its_index(self, bad):
        # A repeat used to score as a smaller set, a negative id wrapped
        # round to vertex n - 1, and an id past n raised IndexError.
        graph = hypercube(4)
        candidates = [np.array([2, 3]), np.array(bad)]
        with pytest.raises(ValueError, match=r"candidate 1 \(\[0, "):
            evaluate_candidate_shard(graph, candidates, 3)
        with pytest.raises(ValueError, match=r"candidate 1 \(\[0, "):
            evaluate_candidates(graph, candidates, 3)
        with pytest.raises(ValueError, match="not a set of distinct"):
            evaluate_candidates(graph, candidates, 3, executor=2)

    @pytest.mark.parametrize("arm", ["exact", "portfolio"])
    def test_sharded_error_names_the_callers_index(self, arm):
        # The candidates are checked before the shards split them, so the
        # message names the index in the caller's list, not in a shard.
        candidates = [np.array([2, 3]), np.array([0, 1, 1])]
        with pytest.raises(ValueError, match=r"^candidate 1 \(\[0, 1, 1\]\)"):
            if arm == "exact":
                evaluate_candidates(hypercube(4), candidates, 16, executor=2)
            else:
                pipeline.portfolio_candidate_values(
                    hypercube(4), candidates, [0, 1], 16, executor=2
                )

    def test_unscored_widths_are_not_checked(self):
        # Candidates wider than size_cap are skipped, not scored.
        values = evaluate_candidate_shard(
            hypercube(4), [np.array([0, 0, 0, 0]), np.array([0, 1])], 3
        )
        assert values[0] == np.inf and np.isfinite(values[1])


class TestShardEqualsPerSetExact:
    @pytest.mark.parametrize("graph", [
        erdos_renyi(24, 0.2, rng=3),
        hypercube(5),
        margulis_expander(4),
        random_regular(30, 5, rng=2),
    ], ids=["erdos_renyi", "hypercube", "margulis", "random_regular"])
    def test_every_candidate(self, graph):
        # A whole shard — every size group, BFS balls included, repeats
        # deduped — scored in one call equals the one-set exact value.
        candidates, size_cap = enumerate_candidates(
            graph, alpha=0.5, samples=40, rng=11, max_set_bits=10
        )
        values = evaluate_candidate_shard(graph, candidates, size_cap)
        for cand, value in zip(candidates, values):
            if cand.size <= size_cap:
                assert value == wireless_expansion_of_set_exact(graph, cand)[0]
            else:
                assert value == np.inf


class TestLatticeWidthCeiling:
    def test_wide_sampled_fails_fast(self):
        g = random_regular(200, 8, rng=0)
        spec = ExpansionSpec.from_string(
            "sampled(samples=2, max_set_bits=64, include_balls=false)"
        )
        with pytest.raises(ValueError, match="MAX_LATTICE_BITS") as err:
            spec.estimate(g, rng=0)
        assert "portfolio(" in str(err.value)
        with pytest.raises(ValueError, match="MAX_LATTICE_BITS"):
            evaluate_candidates(g, [np.arange(3)], size_cap=64, executor=2)
        with pytest.raises(ValueError, match="MAX_LATTICE_BITS"):
            evaluate_candidate_shard(g, [np.arange(3)], MAX_LATTICE_BITS + 1)

    def test_effective_cap_below_ceiling_still_runs(self):
        # max_set_bits above the ceiling is fine when floor(alpha*n) is not.
        g = random_regular(40, 4, rng=0)
        estimate = ExpansionSpec.from_string(
            "sampled(samples=5, max_set_bits=64, include_balls=false)"
        ).estimate(g, rng=0)
        assert np.isfinite(estimate.value)

    def test_portfolio_keeps_wide_sets(self):
        g = random_regular(200, 8, rng=0)
        estimate = ExpansionSpec.from_string(
            "portfolio(samples=2, max_set_bits=64, include_balls=false)"
        ).estimate(g, rng=0)
        assert estimate.bound == "candidate-lower"
