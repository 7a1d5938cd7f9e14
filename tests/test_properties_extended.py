"""Second wave of hypothesis property tests: schedules, certificates,
batched kernels, and the threshold-partition family."""


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expansion import wireless_certificate, wireless_expansion_of_set_exact
from repro.graphs import BipartiteGraph, BlockBipartite, Graph
from repro.radio import synthesize_broadcast_schedule, synthesize_layer_schedule
from repro.spokesman import (
    nonisolated_right_count,
    spokesman_threshold_partition,
    threshold_population,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bipartite_graphs(draw, max_left=8, max_right=12):
    n_left = draw(st.integers(1, max_left))
    n_right = draw(st.integers(1, max_right))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
            max_size=min(40, n_left * n_right),
        )
    )
    return BipartiteGraph(n_left, n_right, sorted(pairs))


@st.composite
def connected_graphs(draw, max_n=10):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    extra = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=n,
        )
    )
    edges |= extra
    return Graph(n, sorted(edges))


class TestScheduleProperties:
    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs())
    def test_layer_schedule_always_covers(self, gs):
        slots = synthesize_layer_schedule(gs)
        covered = ~(gs.right_degrees >= 1)
        for slot in slots:
            covered |= gs.uniquely_covered(slot)
        assert covered.all()

    @settings(max_examples=25, **COMMON)
    @given(connected_graphs())
    def test_broadcast_schedule_verifies(self, g):
        schedule = synthesize_broadcast_schedule(g, source=0)
        ok, informed = schedule.verify(g)
        assert ok
        # Length floor: BFS depth.
        assert schedule.length >= g.eccentricity(0)


class TestCertificateProperties:
    @settings(max_examples=20, **COMMON)
    @given(connected_graphs(max_n=9), st.data())
    def test_certificate_brackets_exact(self, g, data):
        size = data.draw(st.integers(1, g.n - 1))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        subset = np.sort(gen.choice(g.n, size=size, replace=False))
        cert = wireless_certificate(g, subset, rng=gen)
        exact, _ = wireless_expansion_of_set_exact(g, subset)
        assert cert.lower - 1e-9 <= exact <= cert.upper + 1e-9


class TestBatchProperties:
    @settings(max_examples=25, **COMMON)
    @given(bipartite_graphs(), st.integers(0, 2**31 - 1))
    def test_batch_equals_scalar(self, gs, seed):
        gen = np.random.default_rng(seed)
        batch = gen.random((6, gs.n_left)) < 0.5
        uniques = BlockBipartite.single(gs).row_unique_counts(np.zeros(6, int), batch)
        for i in range(6):
            assert uniques[i] == gs.unique_cover_count(batch[i])


class TestThresholdProperties:
    @settings(max_examples=30, **COMMON)
    @given(bipartite_graphs(), st.floats(min_value=1.1, max_value=16.0))
    def test_population_and_guarantee(self, gs, t):
        gamma = nonisolated_right_count(gs)
        if gamma == 0:
            return
        deg = gs.right_degrees
        delta = float(deg[deg >= 1].mean())
        pop = threshold_population(gs, t)
        m = int(pop.sum())
        # Markov: at least (1 − 1/t)·γ survive the threshold.
        assert m >= (1 - 1 / t) * gamma - 1e-9
        result = spokesman_threshold_partition(gs, t)
        assert result.unique_count >= m / (2 * t * delta) - 1e-9
