"""The per-process graph memo behind ``GraphSpec.build``: keying, the
randomness bypass, registry replacement, the byte cap, and the
read-only arrays that make sharing one instance safe."""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.scenario.spec as spec_module
from repro.graphs import Graph
from repro.obs.metrics import METRICS
from repro.obs.tracing import recording
from repro.scenario import GRAPHS, GraphSpec, clear_graph_memo


@pytest.fixture(autouse=True)
def empty_memo():
    clear_graph_memo()
    yield
    clear_graph_memo()


def _edges(built):
    return built.graph.edges()


class TestKeying:
    def test_same_spec_and_seed_is_the_same_object(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        assert spec.build(seed=7) is spec.build(seed=7)
        # A spec-equal spec parsed separately shares the entry.
        assert GraphSpec.from_string("random_regular(32, 4)").build(
            seed=7
        ) is spec.build(seed=7)

    def test_numpy_int_seed_shares_the_int_entry(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        assert spec.build(seed=np.int64(7)) is spec.build(seed=7)

    def test_different_seed_is_a_different_graph(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        a, b = spec.build(seed=1), spec.build(seed=2)
        assert a is not b
        assert not np.array_equal(_edges(a), _edges(b))

    def test_different_args_are_different_graphs(self):
        a = GraphSpec.from_string("hypercube(3)").build()
        b = GraphSpec.from_string("hypercube(4)").build()
        assert a is not b
        assert (a.graph.n, b.graph.n) == (8, 16)

    def test_deterministic_family_ignores_the_seed(self):
        spec = GraphSpec.from_string("hypercube(4)")
        assert spec.build() is spec.build(seed=3)

    def test_memoized_build_equals_a_fresh_one(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        memoized = spec.build(seed=11)
        clear_graph_memo()
        fresh = spec.build(seed=11)
        assert fresh is not memoized
        np.testing.assert_array_equal(_edges(fresh), _edges(memoized))


class TestBypass:
    def test_unseeded_randomized_build_is_not_memoized(self):
        spec = GraphSpec.from_string("random_regular(64, 4)")
        a, b = spec.build(), spec.build()
        assert a is not b
        assert not np.array_equal(_edges(a), _edges(b))

    def test_generator_seed_bypasses_the_memo(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        before = METRICS.snapshot()
        a = spec.build(seed=np.random.default_rng(5))
        b = spec.build(seed=np.random.default_rng(5))
        assert a is not b
        np.testing.assert_array_equal(_edges(a), _edges(b))
        after = METRICS.snapshot()
        for name in ("graphs.memo.hits", "graphs.memo.misses"):
            assert after.get(name, 0.0) == before.get(name, 0.0)


class TestRegistryReplacement:
    def test_reregistered_family_misses_the_memo(self, monkeypatch):
        monkeypatch.setattr(GRAPHS, "_entries", dict(GRAPHS._entries))
        GRAPHS.register("memo_probe", lambda n: Graph(n, [(0, 1)]))
        spec = GraphSpec("memo_probe", (4,))
        first = spec.build()
        assert spec.build() is first
        GRAPHS.register("memo_probe", lambda n: Graph(n, [(1, 2), (2, 3)]))
        second = spec.build()
        assert second is not first
        assert second.graph.n_edges == 2


class TestByteCap:
    def test_cap_evicts_the_oldest_entry(self, monkeypatch):
        a_spec = GraphSpec.from_string("hypercube(5)")
        b_spec = GraphSpec.from_string("cycle(32)")
        a = a_spec.build()
        # Room for the newest graph only: building b evicts a.
        monkeypatch.setattr(spec_module, "GRAPH_MEMO_BYTES", a.graph.nbytes)
        b = b_spec.build()
        assert b_spec.build() is b
        assert a_spec.build() is not a

    def test_newest_entry_is_kept_even_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(spec_module, "GRAPH_MEMO_BYTES", 1)
        spec = GraphSpec.from_string("hypercube(4)")
        built = spec.build()
        assert spec.build() is built

    def test_cap_under_the_limit_keeps_everything(self):
        specs = [GraphSpec.from_string(f"cycle({n})") for n in (5, 6, 7)]
        built = [s.build() for s in specs]
        assert all(s.build() is b for s, b in zip(specs, built))


class TestThreads:
    def test_concurrent_builds_under_eviction_pressure(self, monkeypatch):
        # The service builds from its worker and HTTP threads at once; a
        # cap that holds about two of the four graphs keeps evicting while
        # eight threads look up, insert and evict entries.
        specs = [
            GraphSpec.from_string(f"random_regular({n}, 4)")
            for n in (32, 34, 36, 38)
        ]
        reference = [_edges(s.build(seed=1)) for s in specs]
        largest = specs[-1].build(seed=1).graph.nbytes
        clear_graph_memo()
        monkeypatch.setattr(spec_module, "GRAPH_MEMO_BYTES", 2 * largest)
        errors = []

        def hammer(offset):
            try:
                for i in range(200):
                    k = (i + offset) % len(specs)
                    built = specs[k].build(seed=1)
                    if not np.array_equal(_edges(built), reference[k]):
                        errors.append(f"spec {k} built a different graph")
            except Exception as exc:  # surfaced by the assert below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(spec_module._GRAPH_MEMO) <= 2


class TestObservability:
    def test_hits_and_misses_are_counted(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        before = METRICS.snapshot()
        spec.build(seed=1)
        spec.build(seed=1)
        spec.build(seed=1)
        after = METRICS.snapshot()
        for name, delta in (("graphs.memo.misses", 1), ("graphs.memo.hits", 2)):
            assert after[name] - before.get(name, 0.0) == delta

    def test_miss_path_records_one_graph_build_span(self):
        spec = GraphSpec.from_string("random_regular(32, 4)")
        with recording() as rec:
            spec.build(seed=1)
            spec.build(seed=1)
        spans = [e for e in rec.events if e.get("kind") == "span"]
        assert [(s["name"], s["meta"]) for s in spans] == [
            ("graph.build", {"family": "random_regular", "n": 32})
        ]
        counters = sorted(
            e["name"] for e in rec.events if e.get("kind") == "counter"
        )
        assert counters == ["graphs.memo.hits", "graphs.memo.misses"]


class TestReadOnly:
    @pytest.mark.parametrize("family", ["random_regular(32, 4)", "chain(4, 2)"])
    def test_csr_arrays_reject_writes(self, family):
        csr = GraphSpec.from_string(family).build(seed=3).graph.csr
        for array in (csr.indptr, csr.indices, csr.degrees):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize(
        "family, kind", [("hypercube(4)", "regular"), ("chain(4, 2)", "general")]
    )
    def test_gather_plan_slots_reject_writes(self, family, kind):
        csr = GraphSpec.from_string(family).build().graph.csr
        plan = csr.gather_plan()
        assert plan[0] == kind
        for array in plan[1:]:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        # The slot walk's writeable alias for np.take is the frozen slots'
        # own storage.
        take = csr._take
        if kind == "regular":
            assert np.shares_memory(take, plan[1])
        else:
            assert take is None

    def test_graph_degrees_reject_writes(self):
        g = GraphSpec.from_string("hypercube(3)").build().graph
        with pytest.raises(ValueError, match="read-only"):
            g.degrees[0] = 0

    def test_from_csr_leaves_the_callers_arrays_writeable(self):
        # Already-narrow arrays pass through narrow_uint uncopied.
        indptr = np.array([0, 1, 3, 4], dtype=np.uint8)
        indices = np.array([1, 0, 2, 1], dtype=np.uint8)
        g = Graph.from_csr(3, indptr, indices, validate=False)
        assert not g.csr.indices.flags.writeable
        assert indptr.flags.writeable and indices.flags.writeable
        indices[0] = 1  # the caller's copy is still theirs to write

    def test_unpickled_graph_is_frozen_too(self):
        g = GraphSpec.from_string("hypercube(3)").build().graph
        g.csr.gather_plan()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert copy.degrees is copy.csr.degrees
        for array in (copy.csr.indptr, copy.csr.indices, copy.degrees):
            assert not array.flags.writeable
