"""Packed-bitset engine: dense equivalence, kernels, budget sharding.

The headline contract: for every supported channel and protocol the
``bitset`` backend of :func:`repro.radio.run_broadcast_batch` is
bit-for-bit identical to ``dense`` — same rounds, same per-trial
trajectories, same first-informed matrix, same energy totals.  The
property is pinned across all registered graph families, both packed
channels, and word-boundary trial counts, then the packed kernels and
the :class:`MemoryBudget` column sharder are unit-tested on their own.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import counter_coin_blocks, counter_coins, parse_byte_size
from repro.graphs import families, path_graph, random_regular
from repro.graphs.graph import CSRAdjacency, Graph
from repro.radio import (
    DecayProtocol,
    FloodingProtocol,
    MemoryBudget,
    RoundRobinProtocol,
    run_broadcast_batch,
)
from repro.radio.bitset import (
    exactly_one_words,
    full_mask_words,
    pack_bool_matrix,
    packed_counter_coins,
    unpack_words,
    word_column_counts,
    word_count,
)
from repro.radio.broadcast import _resolve_engine
from repro.radio.channel import ClassicCollision, CollisionDetection, ErasureChannel
from repro.radio.network import RadioNetwork
from repro.scenario import Scenario

RESULT_FIELDS = (
    "rounds",
    "completed",
    "informed_per_round",
    "first_informed_round",
    "transmissions",
)

#: One small instance of every registered graph family (13 at present —
#: the parametrization below asserts the list stays in sync with the
#: registry, so a newly registered family must join the equivalence net).
FAMILY_SPECS = {
    "chain": "chain(4, 2)",
    "chordal_cycle": "chordal_cycle(11)",
    "complete": "complete(24)",
    "cplus": "cplus(8)",
    "cycle": "cycle(25)",
    "erdos_renyi": "erdos_renyi(40, 0.1)",
    "grid": "grid(5)",
    "hypercube": "hypercube(4)",
    "margulis": "margulis(3)",
    "path": "path(20)",
    "random_regular": "random_regular(40, 4)",
    "star": "star(20)",
    "tree": "tree(3)",
}

#: Word-boundary trial counts: below/at/above one word, and multi-word.
BOUNDARY_TRIALS = (1, 63, 64, 65, 257)


def assert_batches_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), (
            f"{context}: field {field} diverged between engines"
        )


def test_family_specs_cover_registry():
    from repro.scenario import GRAPHS

    assert sorted(FAMILY_SPECS) == GRAPHS.names()


@pytest.mark.parametrize("channel", ["classic", "erasure(0.3)"])
@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_bitset_equals_dense_across_families(family, channel):
    # Every family but erdos_renyi completes within 121 rounds at this
    # seed, so the cap binds only there: that graph never completes, and
    # its runs keep covering the incomplete-run path in 256 rounds each.
    for trials in BOUNDARY_TRIALS:
        spec = (
            f"{FAMILY_SPECS[family]} | decay | {channel} "
            f"| trials={trials} | seed=17 | max_rounds=256"
        )
        dense = Scenario.from_string(f"{spec} | engine=dense").run()
        bitset = Scenario.from_string(f"{spec} | engine=bitset").run()
        assert_batches_equal(dense, bitset, f"{family}/{channel}/T={trials}")
        if family == "erdos_renyi":
            assert not dense.completed.any()
        else:
            assert dense.completed.all()


@pytest.mark.parametrize(
    "graph",
    [
        Graph(1, []),  # single vertex, nothing to inform
        Graph(3, [(0, 1)]),  # isolated vertex 2
        Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # disconnected halves
        Graph(4, []),  # no edges at all
    ],
    ids=["n1", "isolated", "disconnected", "edgeless"],
)
def test_bitset_equals_dense_on_degenerate_graphs(graph):
    for proto in (DecayProtocol(), FloodingProtocol()):
        for trials in (1, 64, 65):
            dense = run_broadcast_batch(
                graph, proto, trials=trials, seed=5,
                max_rounds=64, engine="dense",
            )
            bitset = run_broadcast_batch(
                graph, proto, trials=trials, seed=5,
                max_rounds=64, engine="bitset",
            )
            assert_batches_equal(dense, bitset, f"degenerate n={graph.n}")
            if graph.n > 1:
                assert not dense.completed.any()


# ----------------------------------------------------------------------
# Packed kernels
# ----------------------------------------------------------------------


def test_word_count_and_full_mask():
    assert [word_count(t) for t in (0, 1, 63, 64, 65, 257)] == [0, 1, 1, 1, 2, 5]
    mask = full_mask_words(65)
    assert mask.shape == (2,)
    assert mask[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert mask[1] == np.uint64(1)
    assert full_mask_words(0).shape == (0,)
    with pytest.raises(ValueError, match="non-negative"):
        full_mask_words(-1)


@pytest.mark.parametrize("trials", BOUNDARY_TRIALS)
def test_pack_unpack_round_trip(trials):
    rng = np.random.default_rng(trials)
    mat = rng.random((37, trials)) < 0.4
    words = pack_bool_matrix(mat)
    assert words.shape == (37, word_count(trials))
    assert words.dtype == np.uint64
    assert np.array_equal(unpack_words(words, trials), mat)
    # Tail bits beyond `trials` must be zero (the running-mask invariant).
    tail = unpack_words(words, word_count(trials) * 64)[:, trials:]
    assert not tail.any()


def test_pack_bool_matrix_validates_shape():
    with pytest.raises(ValueError, match="bool matrix"):
        pack_bool_matrix(np.zeros(8, dtype=bool))
    with pytest.raises(ValueError, match="cannot unpack"):
        unpack_words(np.zeros((4, 1), dtype=np.uint64), 65)


#: Row counts on both sides of the unpack cutoff (64) and of the 15-row
#: nibble and 17-word byte groupings of the lane sums.
@pytest.mark.parametrize(
    "shape",
    [(64, 3), (1, 1), (130, 2)]
    + [(n, w) for n in (14, 15, 63, 254, 255, 256, 1021) for w in (1, 3)],
)
def test_word_column_counts_matches_unpacked_sum(shape):
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
    words[::5] = np.uint64(2**64 - 1)  # saturate every lane
    counts = word_column_counts(words)
    expect = unpack_words(words, shape[1] * 64).sum(axis=0)
    assert np.array_equal(counts, expect)
    assert word_column_counts(np.zeros((0, 2), dtype=np.uint64)).sum() == 0


@pytest.mark.parametrize("trials", (1, 64, 65, 130))
def test_packed_counter_coins_matches_dense_coins(trials):
    rng = np.random.default_rng(3)
    n = 57
    keys = rng.integers(0, 2**64, size=trials, dtype=np.uint64)
    for p in (0.0, 1e-9, 0.35, 0.999, 1.0):
        for rows in (None, rng.choice(n, size=19, replace=False)):
            for active in (None, rng.random(trials) < 0.6):
                packed = packed_counter_coins(
                    keys, 4, n, p, rows=rows, active=active
                )
                ref = counter_coins(keys, 4, n, p)
                if active is not None:
                    ref = ref & active[None, :]
                if rows is not None:
                    keep = np.zeros(n, dtype=bool)
                    keep[rows] = True
                    ref = ref & keep[:, None]
                assert np.array_equal(packed, pack_bool_matrix(ref)), (
                    f"p={p} rows={rows is not None} active={active is not None}"
                )


@pytest.mark.parametrize("trials", (1, 8, 63, 64, 65, 130))
def test_packed_counter_coins_match_the_packbits_reference(trials, monkeypatch):
    from repro.radio import bitset

    # Small blocks, so super-blocks and hash chunks both repeat.
    monkeypatch.setattr(bitset, "_COIN_ROW_BLOCK", 4)
    monkeypatch.setattr(bitset, "_COIN_PACK_BLOCK", 8)
    rng = np.random.default_rng(trials)
    n = 45
    keys = rng.integers(0, 2**64, size=trials, dtype=np.uint64)
    w = word_count(trials)
    for p in (0.3, 1.0):
        for rows in (None, rng.choice(n, size=21, replace=False)):
            for active in (None, rng.random(trials) < 0.5):
                ref = counter_coins(keys, 2, n, p)
                if active is not None:
                    ref &= active[None, :]
                if rows is not None:
                    keep = np.zeros(n, dtype=bool)
                    keep[rows] = True
                    ref &= keep[:, None]
                # Row-wise packbits, zero-padded to whole words.
                expect = np.zeros((n, w * 8), dtype=np.uint8)
                packed = np.packbits(ref, axis=1, bitorder="little")
                expect[:, : packed.shape[1]] = packed
                got = packed_counter_coins(keys, 2, n, p, rows=rows, active=active)
                assert np.array_equal(got, expect.view("<u8")), (
                    f"p={p} rows={rows is not None} active={active is not None}"
                )


def test_counter_coin_blocks_matches_sliced_counter_coins():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**64, size=9, dtype=np.uint64)
    rows = rng.choice(100, size=41, replace=False)
    for p in (0.0, 0.4, 1.0):
        full = counter_coins(keys, 2, 100, p, rows=rows)
        rebuilt = np.empty_like(full)
        for start, chunk in counter_coin_blocks(
            keys, 2, 100, p, rows=rows, block=16
        ):
            rebuilt[start : start + chunk.shape[0]] = chunk
        assert np.array_equal(rebuilt, full), f"p={p}"


@pytest.mark.parametrize("regular", [True, False], ids=["regular", "irregular"])
def test_exactly_one_words_matches_neighbor_counts(regular):
    rng = np.random.default_rng(5)
    if regular:
        graph = random_regular(48, 4, rng=2)
    else:
        graph = Graph(
            30, [(u, v) for u in range(30) for v in range(u + 1, 30)
                 if rng.random() < 0.15]
        )
    plan_kind = graph.csr.gather_plan()[0]
    assert plan_kind == ("regular" if regular else "general")
    network = RadioNetwork(graph)
    for trials in (1, 64, 129):
        mask = rng.random((graph.n, trials)) < 0.3
        words = pack_bool_matrix(mask)
        got = exactly_one_words(graph.csr, words)
        counts = network.transmit_counts(mask)
        assert np.array_equal(unpack_words(got, trials), counts == 1)


# ----------------------------------------------------------------------
# Memory budget sharding
# ----------------------------------------------------------------------


def test_memory_budget_max_trials():
    budget = MemoryBudget(10 * 1000 * 4)
    assert budget.max_trials(1000, "bitset") == 4
    assert budget.max_trials(1000, "dense") == 1
    assert MemoryBudget(28 * 1000 * 3).max_trials(1000, "dense") == 3
    assert MemoryBudget(1).max_trials(10**9) == 1  # always at least one
    with pytest.raises(ValueError, match=">= 1 byte"):
        MemoryBudget(0)


@pytest.mark.parametrize("engine", ["dense", "bitset"])
def test_memory_budget_sharding_is_bit_identical(engine):
    graph = random_regular(128, 4, rng=3)
    whole = run_broadcast_batch(
        graph, DecayProtocol(), trials=20, seed=9, engine=engine
    )
    budget = MemoryBudget(
        MemoryBudget._PER_TRIAL_NODE_BYTES[engine] * graph.n * 3
    )
    assert budget.max_trials(graph.n, engine) == 3  # 7 column shards
    sharded = run_broadcast_batch(
        graph, DecayProtocol(), trials=20, seed=9,
        engine=engine, memory_budget=budget,
    )
    assert_batches_equal(whole, sharded, f"{engine} budget sharding")


def test_memory_budget_accepts_plain_bytes():
    graph = random_regular(64, 4, rng=1)
    plain = run_broadcast_batch(
        graph, DecayProtocol(), trials=8, seed=2, engine="bitset",
        memory_budget=10 * graph.n * 2,
    )
    rich = run_broadcast_batch(
        graph, DecayProtocol(), trials=8, seed=2, engine="bitset",
        memory_budget=MemoryBudget(10 * graph.n * 2),
    )
    assert_batches_equal(plain, rich, "int vs MemoryBudget")
    with pytest.raises(TypeError, match="memory_budget"):
        run_broadcast_batch(
            graph, DecayProtocol(), trials=2, seed=2, memory_budget=1.5
        )


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------


def test_explicit_bitset_on_unsupported_channel_warns_and_runs_dense():
    graph = random_regular(48, 4, rng=0)
    with pytest.warns(RuntimeWarning, match="does not support"):
        forced = run_broadcast_batch(
            graph, DecayProtocol(), trials=6, seed=4,
            channel=CollisionDetection(), engine="bitset",
        )
    dense = run_broadcast_batch(
        graph, DecayProtocol(), trials=6, seed=4,
        channel=CollisionDetection(), engine="dense",
    )
    assert_batches_equal(forced, dense, "unsupported-channel fallback")


def test_resolve_engine_auto_rules():
    from repro.workload import AggregateWorkload, BroadcastWorkload

    proto = DecayProtocol()
    classic, detect = ClassicCollision(), CollisionDetection()
    bcast, agg = BroadcastWorkload(), AggregateWorkload()
    assert _resolve_engine("auto", proto, classic, 100_000, bcast) == "bitset"
    assert _resolve_engine("auto", proto, classic, 1_000, bcast) == "dense"
    assert _resolve_engine("auto", proto, detect, 100_000, bcast) == "dense"
    assert _resolve_engine("dense", proto, classic, 100_000, bcast) == "dense"
    # Value workloads fold per-cell payloads the packed engine cannot
    # represent: auto picks dense, explicit bitset warns and falls back.
    assert _resolve_engine("auto", proto, classic, 100_000, agg) == "dense"
    with pytest.warns(RuntimeWarning, match="falling back to dense"):
        assert (
            _resolve_engine("bitset", proto, classic, 100_000, agg) == "dense"
        )
    # A protocol without the packed-word face runs dense: auto picks
    # dense at any size, explicit bitset warns and falls back.
    coins = _BatchOnlyCoins()
    assert _resolve_engine("auto", coins, classic, 100_000, bcast) == "dense"
    with pytest.warns(RuntimeWarning, match="no packed-word face"):
        assert (
            _resolve_engine("bitset", coins, classic, 100_000, bcast)
            == "dense"
        )
    with pytest.raises(ValueError, match="engine must be one of"):
        _resolve_engine("gpu", proto, classic, 10, bcast)


def test_invalid_engine_value_rejected():
    graph = random_regular(16, 4, rng=0)
    with pytest.raises(ValueError, match="engine must be one of"):
        run_broadcast_batch(
            graph, DecayProtocol(), trials=2, seed=1, engine="sparse"
        )


# ----------------------------------------------------------------------
# Scenario / spec / CLI threading
# ----------------------------------------------------------------------


def test_scenario_engine_round_trip_and_default_omission():
    s = Scenario.from_string(
        "star(12) | decay | classic | trials=3 | seed=2 | engine=bitset"
    )
    assert s.engine == "bitset"
    assert "engine=bitset" in s.describe()
    assert Scenario.from_string(s.describe()) == s
    # Default engine stays out of describe() and to_dict() so pre-engine
    # scenario strings and cache keys are unchanged.
    auto = Scenario.from_string("star(12) | decay | classic | trials=3")
    assert auto.engine == "auto"
    assert "engine" not in auto.describe()
    assert "engine" not in auto.to_dict()
    with pytest.raises(ValueError, match="engine"):
        Scenario.from_string("star(12) | decay | classic | engine=warp")


def test_scenario_memory_budget_parses_byte_sizes():
    s = Scenario.from_string(
        "star(12) | decay | classic | trials=3 | memory_budget=1MiB"
    )
    assert s.memory_budget == 2**20
    assert parse_byte_size("2GiB") == 2 * 2**30
    assert parse_byte_size("512") == 512
    with pytest.raises(ValueError):
        parse_byte_size("twelve parsecs")


def test_cli_broadcast_engine_flag(capsys):
    from repro.cli import build_parser, main

    args = build_parser().parse_args(
        ["broadcast", "--scenario", "star(16) | decay", "--engine", "bitset"]
    )
    assert args.engine == "bitset"
    code = main(
        ["broadcast", "--scenario", "star(16) | decay | classic",
         "--trials", "4", "--seed", "3", "--engine", "bitset"]
    )
    assert code == 0
    assert "broadcast" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CSR adjacency and direct-CSR samplers
# ----------------------------------------------------------------------


def test_csr_adjacency_views_and_narrow_dtypes():
    graph = random_regular(200, 6, rng=4)
    csr = graph.csr
    assert isinstance(csr, CSRAdjacency)
    assert csr.n == 200 and csr.nnz == 200 * 6
    assert csr.max_degree == 6
    assert csr.indices.dtype == np.uint8  # narrowest dtype for n=200
    degrees = np.diff(csr.indptr)
    assert (degrees == 6).all()
    assert np.array_equal(np.sort(csr.row(0)), np.sort(graph.neighbors(0)))


def test_graph_from_csr_round_trip_and_validation():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    csr = g.csr
    again = Graph.from_csr(g.n, csr.indptr, csr.indices)
    assert again == g
    with pytest.raises(ValueError, match="indptr"):
        Graph.from_csr(3, np.array([0, 1]), np.array([1]))
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_csr(2, np.array([0, 1, 2]), np.array([5, 0]))


def test_random_regular_builds_direct_csr_at_scale():
    # The direct sampler is the n >= 50,000 path; call it at small n so
    # tier-1 covers it (random_regular itself routes small n elsewhere).
    graph = families._random_regular_direct(5000, 4, np.random.default_rng(0))
    assert (graph.degrees == 4).all()
    assert graph.csr.gather_plan()[0] == "regular"
    edges = graph.edges()
    assert (edges[:, 0] < edges[:, 1]).all()  # simple: no loops
    assert np.unique(edges, axis=0).shape[0] == edges.shape[0]  # no repeats
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3)
    with pytest.raises(ValueError, match="d < n"):
        random_regular(4, 5)


def _csr_digest(graph) -> str:
    h = hashlib.sha256()
    for arr in (graph.csr.indptr, graph.csr.indices):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


#: CSR digests of the direct sampler, recorded with the ``lexsort`` /
#: stable-``argsort`` implementation the single-key sorts replaced.
#: ``(12, 9)`` at seed 3 stalls and breaks up good edges eight times.
DIRECT_SAMPLER_DIGESTS = {
    (1000, 4, 0): "2934dff42fab5425",
    (200, 8, 1): "a81a6726d38f3872",
    (12, 9, 3): "309a69b9170aee97",
    (5000, 16, 2): "125c98d11c3b6d4d",
}


@pytest.mark.parametrize("n, d, seed", sorted(DIRECT_SAMPLER_DIGESTS))
def test_direct_sampler_csr_is_pinned(n, d, seed, monkeypatch):
    def build():
        return families._random_regular_direct(n, d, np.random.default_rng(seed))

    graph = build()
    assert (graph.degrees == d).all()
    assert _csr_digest(graph) == DIRECT_SAMPLER_DIGESTS[(n, d, seed)]
    # A composite key wider than the budget takes the stable-argsort
    # fallback, with the same graph.
    monkeypatch.setattr(families, "_COMPOSITE_KEY_BITS", 8)
    assert _csr_digest(build()) == DIRECT_SAMPLER_DIGESTS[(n, d, seed)]


def test_stable_order_matches_stable_argsort(monkeypatch):
    rng = np.random.default_rng(9)
    for size, bound in ((1, 1), (2, 1), (50, 7), (1000, 40), (4097, 10**6)):
        key = rng.integers(0, bound, size=size, dtype=np.int64)
        expect = np.argsort(key, kind="stable")
        assert np.array_equal(families._stable_order(key, bound), expect)
    # Keys of 2^40 and 2^20 indices need 61 bits: still packed.  A 64-bit
    # budget overrun must fall back rather than wrap.
    key = rng.integers(0, 2**40, size=2**20, dtype=np.int64)
    key[::7] = key[0]  # plenty of ties
    expect = np.argsort(key, kind="stable")
    assert np.array_equal(families._stable_order(key, 2**40), expect)
    calls = []
    original = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda *a, **k: calls.append(k) or original(*a, **k)
    )
    assert np.array_equal(families._stable_order(key, 2**44), expect)
    assert calls == [{"kind": "stable"}]


@pytest.mark.parametrize("side", [7, 20])
def test_margulis_direct_csr_matches_edge_list_path(side, monkeypatch):
    from repro.graphs import margulis_expander

    expect = {7: "06e4d6c67215b42c", 20: "99a33c74aa1a0960"}[side]
    legacy = margulis_expander(side)  # below the threshold: Graph(edges)
    monkeypatch.setattr(families, "_DIRECT_SAMPLER_MIN_N", 1)
    direct = margulis_expander(side)  # straight to CSR
    assert _csr_digest(direct) == expect
    assert np.array_equal(direct.csr.indptr, legacy.csr.indptr)
    assert np.array_equal(direct.csr.indices, legacy.csr.indices)


def test_margulis_expander_is_regular_csr():
    from repro.graphs import margulis_expander

    graph = margulis_expander(20)  # n = 400
    assert graph.n == 400
    assert graph.max_degree <= 8
    assert graph.is_connected()


class TestTelemetryKernels:
    """The restricted gather/scatter kernels the telemetry path leans on."""

    def _setup(self, n=200, d=6, w=2, seed=5):
        rng = np.random.default_rng(seed)
        graph = random_regular(n, d, rng=rng)
        words = rng.integers(0, 2**63, size=(n, w), dtype=np.uint64)
        return graph.csr, words

    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_any_neighbor_words_at_matches_full(self, density):
        from repro.radio.bitset import any_neighbor_words

        csr, words = self._setup()
        rng = np.random.default_rng(1)
        rows = np.flatnonzero(rng.random(words.shape[0]) < density)
        full = any_neighbor_words(csr, words)
        assert np.array_equal(any_neighbor_words(csr, words, rows), full[rows])

    def test_any_neighbor_words_at_single_word(self):
        from repro.radio.bitset import any_neighbor_words

        csr, words = self._setup(w=1)
        rows = np.arange(0, words.shape[0], 3)
        assert np.array_equal(
            any_neighbor_words(csr, words, rows),
            any_neighbor_words(csr, words)[rows],
        )

    def test_any_neighbor_words_at_irregular_plan(self):
        from repro.graphs import cplus_graph
        from repro.radio.bitset import any_neighbor_words

        csr = cplus_graph(9).csr  # irregular degrees: general gather plan
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**63, size=(10, 1), dtype=np.uint64)
        rows = np.array([0, 3, 7])
        assert np.array_equal(
            any_neighbor_words(csr, words, rows),
            any_neighbor_words(csr, words)[rows],
        )

    @pytest.mark.parametrize("w", [1, 3])
    def test_scatter_matches_pull_fold_on_covering_rows(self, w):
        from repro.radio.bitset import any_neighbor_words, scatter_neighbor_words

        csr, words = self._setup(w=w)
        # Sparse support: zero out most rows, push from the survivors.
        rng = np.random.default_rng(3)
        keep = rng.random(words.shape[0]) < 0.1
        words[~keep] = 0
        rows = np.flatnonzero(keep)
        assert np.array_equal(
            scatter_neighbor_words(csr, words, rows),
            any_neighbor_words(csr, words),
        )

    def test_scatter_empty_rows_is_zero(self):
        from repro.radio.bitset import scatter_neighbor_words

        csr, words = self._setup(w=1)
        out = scatter_neighbor_words(
            csr, words, np.empty(0, dtype=np.intp)
        )
        assert out.shape == words.shape and out.sum() == 0


class TestWordColumnCountsBincountPath:
    """word_column_counts on large inputs (SWAR lane sums with row
    remainders) must agree exactly with an unpacked sum."""

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 5000])
    @pytest.mark.parametrize("w", [1, 2, 5])
    def test_paths_agree_around_threshold(self, n, w):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**64, size=(n, w), dtype=np.uint64)
        counts = word_column_counts(words)
        expect = unpack_words(words, w * 64).sum(axis=0)
        assert np.array_equal(counts, expect)

    def test_large_all_ones_and_zeros(self):
        n = 4096
        ones = np.full((n, 1), np.uint64(2**64 - 1), dtype=np.uint64)
        assert (word_column_counts(ones) == n).all()
        assert word_column_counts(np.zeros((n, 1), dtype=np.uint64)).sum() == 0

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        big = rng.integers(0, 2**64, size=(4096, 4), dtype=np.uint64)
        view = big[:, 1:3]  # non-contiguous column slice
        expect = unpack_words(np.ascontiguousarray(view), 128).sum(axis=0)
        assert np.array_equal(word_column_counts(view), expect)


def _push_graphs():
    """One graph per gather plan shape the push walk must handle."""
    from repro.graphs import erdos_renyi, star_graph

    return {
        "regular": random_regular(60, 6, rng=1),
        "erdos_renyi": erdos_renyi(60, 0.1, rng=5),
        "star": star_graph(20),
        # Vertices 6..11 have no edges at all.
        "isolated": Graph(12, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]),
    }


def _push_row_sets(graph, rng):
    """Transmitting row sets: none, sparse, every neighbour of vertex 0
    (all hitting it, and each other's shared neighbours), and dense."""
    n = graph.n
    return {
        "empty": np.empty(0, dtype=np.intp),
        "sparse": np.flatnonzero(rng.random(n) < 0.08),
        "around_0": graph.csr.row(0),
        "dense": np.flatnonzero(rng.random(n) < 0.6),
    }


class TestPushWalk:
    """The CSR push walk (:meth:`CSRAdjacency.push_words`) folds the listed
    rows into their neighbours; it must equal the pull walk's planes."""

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("name", ["regular", "erdos_renyi", "star", "isolated"])
    def test_push_matches_pull_every_fold(self, name, w):
        from repro.graphs.graph import _add_slot
        from repro.radio.bitset import _once_twice_slot, _or_slot

        graph = _push_graphs()[name]
        csr = graph.csr
        assert csr.gather_plan()[0] == ("regular" if name == "regular" else "general")
        rng = np.random.default_rng(w)
        for label, rows in _push_row_sets(graph, rng).items():
            words = np.zeros((graph.n, w), dtype=np.uint64)
            # Few bits per word, so pushed words overlap in some bits and
            # not others: twice must see only the shared ones.
            words[rows] = rng.integers(0, 16, size=(rows.size, w), dtype=np.uint64)
            for update, planes in ((_once_twice_slot, 2), (_or_slot, 1), (_add_slot, 1)):
                pull = csr.fold_words(words, update, planes=planes)
                push = csr.push_words(words, update, rows, planes=planes)
                for a, b in zip(pull, push):
                    assert np.array_equal(a, b), (label, update.__name__)

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("name", ["regular", "erdos_renyi", "star", "isolated"])
    @pytest.mark.parametrize("push_cost", [0, 10**9], ids=["push", "pull"])
    def test_neighbor_fold_words_either_side_of_crossover(
        self, name, w, push_cost, monkeypatch
    ):
        from repro.radio import bitset
        from repro.radio.bitset import neighbor_fold_words

        # 0 pushes every fold, 10^9 pulls every fold with a transmitter.
        monkeypatch.setattr(bitset, "_PUSH_COST", push_cost)
        graph = _push_graphs()[name]
        trials = 64 * w - 3
        rng = np.random.default_rng(7)
        for label, rows in _push_row_sets(graph, rng).items():
            mask = np.zeros((graph.n, trials), dtype=bool)
            mask[rows] = rng.random((rows.size, trials)) < 0.5
            counts = graph.csr.count_neighbors(mask)
            once, twice = neighbor_fold_words(graph.csr, pack_bool_matrix(mask))
            assert np.array_equal(unpack_words(once, trials), counts >= 1), label
            assert np.array_equal(unpack_words(twice, trials), counts >= 2), label
            got = exactly_one_words(graph.csr, pack_bool_matrix(mask))
            assert np.array_equal(unpack_words(got, trials), counts == 1), label

    def test_push_rejects_a_mismatched_word_matrix(self):
        csr = random_regular(20, 4, rng=0).csr
        with pytest.raises(ValueError, match="20-vertex"):
            csr.push_words(np.zeros((19, 1), dtype=np.uint64), None, np.arange(3))


class TestCountAndFoldKernels:
    """The sparse count wrapper, the neighbour-OR kernel choice and the
    bit-sliced first-informed planes."""

    @pytest.mark.parametrize("trials", [64, 130])
    def test_folds_across_row_blocks(self, trials, monkeypatch):
        from repro.graphs import graph as graph_module
        from repro.radio.bitset import any_neighbor_words, neighbor_fold_words

        # Blocks of a few rows, so block edges fall everywhere.
        monkeypatch.setattr(graph_module, "_SLOT_BLOCK_WORDS", 7)
        graph = random_regular(50, 6, rng=4)
        network = RadioNetwork(graph)
        mask = np.random.default_rng(trials).random((50, trials)) < 0.3
        words = pack_bool_matrix(mask)
        # The dense counts walk the same blocks: the oracle is scipy's.
        counts = graph.adjacency @ mask.astype(np.int64)
        once, twice = neighbor_fold_words(graph.csr, words)
        assert np.array_equal(unpack_words(once, trials), counts >= 1)
        assert np.array_equal(unpack_words(twice, trials), counts >= 2)
        got = exactly_one_words(graph.csr, words)
        assert np.array_equal(unpack_words(got, trials), counts == 1)
        heard = any_neighbor_words(graph.csr, words)
        assert np.array_equal(unpack_words(heard, trials), counts >= 1)
        rows = np.arange(49, -1, -3)  # unsorted, across every block edge
        heard = any_neighbor_words(graph.csr, words, rows)
        assert np.array_equal(unpack_words(heard, trials), counts[rows] >= 1)
        assert np.array_equal(network.transmit_counts(mask, rows), counts[rows])

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    def test_sparse_column_counts(self, density):
        from repro.radio.bitset import row_flags, sparse_column_counts

        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(400, 2), dtype=np.uint64)
        words[rng.random(400) >= density] = 0
        counts, nnz = sparse_column_counts(words, 100)
        assert nnz == int(np.count_nonzero(words.any(axis=1)))
        assert np.array_equal(counts, unpack_words(words, 100).sum(axis=0))
        again, _ = sparse_column_counts(words, 100, row_flags(words))
        assert np.array_equal(again, counts)

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("plan", ["regular", "general"])
    def test_neighbor_or_at_every_kernel_choice(self, plan, w):
        from repro.graphs import erdos_renyi
        from repro.radio.bitset import any_neighbor_words, neighbor_or_at

        if plan == "regular":
            graph = random_regular(300, 6, rng=1)
        else:
            graph = erdos_renyi(300, 0.02, rng=5)
        assert graph.csr.gather_plan()[0] == plan
        rng = np.random.default_rng(2)
        full_rows = np.arange(300)
        for src_frac, row_frac in ((0.01, 0.9), (0.9, 0.05), (0.9, 0.9)):
            words = rng.integers(0, 2**64, size=(300, w), dtype=np.uint64)
            words[rng.random(300) >= src_frac] = 0
            src = np.flatnonzero(words.any(axis=1))
            full = any_neighbor_words(graph.csr, words)
            rows = np.flatnonzero(rng.random(300) < row_frac)
            got = neighbor_or_at(graph.csr, words, rows, src)
            assert np.array_equal(got, full[rows])
            assert np.array_equal(neighbor_or_at(graph.csr, words, None, src), full)
            assert np.array_equal(
                neighbor_or_at(graph.csr, words, full_rows, src), full
            )

    def test_neighbor_or_at_irregular_graph(self):
        from repro.graphs import cplus_graph
        from repro.radio.bitset import any_neighbor_words, neighbor_or_at

        csr = cplus_graph(9).csr
        words = np.zeros((csr.n, 1), dtype=np.uint64)
        words[[1, 4]] = np.uint64(5)
        rows = np.array([0, 2, 3])
        assert np.array_equal(
            neighbor_or_at(csr, words, rows, np.array([1, 4])),
            any_neighbor_words(csr, words)[rows],
        )

    @pytest.mark.parametrize("trials", [1, 64, 65, 130])
    def test_first_informed_planes_round_trip(self, trials, monkeypatch):
        from repro.radio import bitset
        from repro.radio.bitset import FirstInformedPlanes

        # Small decode blocks, so the row blocking itself is exercised.
        monkeypatch.setattr(bitset, "_DECODE_ROW_BLOCK", 7)
        n = 40
        rng = np.random.default_rng(trials)
        expect = np.full((n, trials), -1, dtype=np.int64)
        expect[rng.random((n, trials)) < 0.1] = 0  # initially informed
        informed = pack_bool_matrix(expect == 0)
        planes = FirstInformedPlanes(n, informed.shape[1])
        for r in range(1, 300):  # crosses every plane width up to 2^8
            fresh = (expect == -1) & (rng.random((n, trials)) < 0.01)
            if r in (1, 2, 64, 128, 256):
                fresh[r % n] = expect[r % n] == -1
            expect[fresh] = r
            packed = pack_bool_matrix(fresh)
            planes.record(packed, r)
            informed |= packed
        assert (expect == -1).any() and (expect > 255).any()
        assert np.array_equal(planes.decode(informed, trials), expect)


def _run_three_ways(graph, protocol, trials, channel_factory=None, **kw):
    """Dense, bitset, and memory-budget-sharded bitset runs of one batch
    (the shard width is about a third of the batch)."""
    shard = max(1, trials // 3)
    budget = MemoryBudget(
        MemoryBudget._PER_TRIAL_NODE_BYTES["bitset"] * graph.n * shard
    )
    return [
        run_broadcast_batch(
            graph, protocol(), trials=trials, engine=engine,
            memory_budget=mb,
            channel=channel_factory() if channel_factory else None, **kw,
        )
        for engine, mb in (("dense", None), ("bitset", None), ("bitset", budget))
    ]


def _assert_three_equal(runs, context):
    dense, bitset, sharded = runs
    for other, name in ((bitset, "bitset"), (sharded, "sharded")):
        assert_batches_equal(dense, other, f"{context}: {name}")
        assert sorted(dense.extras) == sorted(other.extras), context
        for key in dense.extras:
            assert np.array_equal(dense.extras[key], other.extras[key]), (
                f"{context}: {name} extras {key}"
            )


class _BatchOnlyCoins(DecayProtocol):
    """A randomized protocol without the packed-word face: it runs on the
    dense engine whatever engine is asked for."""

    words_native = False


class TestEngineEquivalenceCases:
    """dense ≡ bitset ≡ sharded, telemetry on and off, over the shapes
    the packed loop's running mask, first-informed planes and telemetry
    counts must get right."""

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
    def test_word_boundaries_and_staggered_completion(self, trials, telemetry):
        graph = random_regular(60, 4, rng=3)
        runs = _run_three_ways(
            graph, DecayProtocol, trials, seed=21, telemetry=telemetry
        )
        _assert_three_equal(runs, f"T={trials}")
        dense = runs[0]
        assert dense.completed.all()
        if trials > 1:
            # Trials finish in different rounds: the running mask changes
            # while the batch is still going.
            assert np.unique(dense.rounds).size > 1

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_row_blocked_folds(self, telemetry, monkeypatch):
        from repro.graphs import graph as graph_module

        monkeypatch.setattr(graph_module, "_SLOT_BLOCK_WORDS", 16)
        graph = random_regular(60, 4, rng=3)
        runs = _run_three_ways(
            graph, DecayProtocol, 65, seed=21, telemetry=telemetry
        )
        _assert_three_equal(runs, "16-word fold blocks")

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_non_completing_run_at_small_cap(self, telemetry):
        graph = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        for cap in (1, 5, 17):
            runs = _run_three_ways(
                graph, DecayProtocol, 70, seed=4, max_rounds=cap,
                telemetry=telemetry,
            )
            _assert_three_equal(runs, f"max_rounds={cap}")
            assert not runs[0].completed.any()
            assert (runs[0].rounds == cap).all()
            assert (runs[0].first_informed_round[4:] == -1).all()

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_round_counts_cross_plane_widths(self, telemetry):
        # Flooding a 70-path takes 69 rounds: first-informed values cross
        # every power of two up to 64.  Decay on the 40-path runs hundreds.
        for spec, protocol in (("path(70)", FloodingProtocol),
                               ("path(40)", DecayProtocol)):
            graph = Scenario.from_string(f"{spec} | decay").graph.build().graph
            runs = _run_three_ways(
                graph, protocol, 65, seed=8, telemetry=telemetry
            )
            _assert_three_equal(runs, spec)
            assert runs[0].first_informed_round.max() >= 64

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_erasure_channel(self, telemetry):
        from repro.radio.channel import ErasureChannel

        graph = random_regular(60, 4, rng=5)
        runs = _run_three_ways(
            graph, DecayProtocol, 65, seed=6, telemetry=telemetry,
            channel_factory=lambda: ErasureChannel(0.3),
        )
        _assert_three_equal(runs, "erasure(0.3)")

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize(
        "protocol", [_BatchOnlyCoins, "collision-backoff"],
        ids=["batch-only", "collision-backoff"],
    )
    def test_protocols_without_word_face_run_dense(self, protocol, telemetry):
        from repro.radio.protocols import CollisionBackoffProtocol

        if protocol == "collision-backoff":
            protocol = CollisionBackoffProtocol
        graph = random_regular(40, 4, rng=7)
        # Both "bitset" runs (whole and budget-sharded) warn and run dense.
        with pytest.warns(RuntimeWarning, match="no packed-word face") as rec:
            runs = _run_three_ways(
                graph, protocol, 65, seed=9, telemetry=telemetry,
                max_rounds=200,
            )
        assert len(rec) == 2
        _assert_three_equal(runs, protocol.__name__)


@st.composite
def _engine_cases(draw):
    """One small batch run: graph, protocol, channel, trial count at a
    word edge, telemetry flag and round cap."""
    if draw(st.booleans()):
        d = draw(st.sampled_from([3, 4]))
        n = draw(st.integers(6, 40).filter(lambda n: n * d % 2 == 0))
        graph = random_regular(n, d, rng=draw(st.integers(0, 2**16)))
    else:
        graph = path_graph(draw(st.integers(2, 16)))
    p = draw(st.none() | st.sampled_from([0.1, 0.3, 0.6]))
    return dict(
        graph=graph,
        protocol=draw(st.sampled_from(
            [FloodingProtocol, RoundRobinProtocol, DecayProtocol]
        )),
        channel_factory=None if p is None else lambda: ErasureChannel(p),
        trials=draw(st.sampled_from([1, 63, 64, 65])),
        seed=draw(st.integers(0, 2**32 - 1)),
        telemetry=draw(st.booleans()),
        # Flooding never completes on a graph with a cycle, so every run
        # is capped: mostly past completion, sometimes mid-run.
        max_rounds=draw(st.just(200) | st.integers(1, 12)),
    )


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_engine_cases())
def test_generated_dense_bitset_sharded_agree(case):
    """dense ≡ bitset ≡ sharded on drawn graphs, protocols and channels:
    both frontiers of the one round loop, cut anywhere by a round cap."""
    graph, protocol, channel_factory = (
        case.pop("graph"), case.pop("protocol"), case.pop("channel_factory")
    )
    runs = _run_three_ways(
        graph, protocol, case.pop("trials"),
        channel_factory=channel_factory, **case,
    )
    _assert_three_equal(runs, f"{protocol.__name__} n={graph.n} {case}")
