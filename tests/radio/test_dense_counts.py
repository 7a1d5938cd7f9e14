"""Dense engine counts: the column-count kernel, the running coverage
counts it feeds, the fold contract they rest on, and an honest
:class:`MemoryBudget`.

The dense round loop counts each trial's satisfied and covered cells
once, then advances them by a per-trial bincount of the round's fresh
cells — exact only because every workload's fold returns cells disjoint
from the satisfied ones.  The remaining per-round column sums go through
:class:`repro.radio.network.ColumnCounter`.  Every check here is against a
from-scratch recount or ``mat.sum(axis=0)``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import hypercube, random_regular
from repro.graphs.graph import Graph
from repro.obs.telemetry import TELEMETRY_PREFIX
from repro.radio import DecayProtocol, MemoryBudget, run_broadcast_batch
from repro.radio import network as network_module
from repro.radio.channel import AdversarialJamming, ErasureChannel, FaultSchedule
from repro.radio.network import ColumnCounter, RadioNetwork
from repro.workload import WORKLOADS, as_workload

RESULT_FIELDS = (
    "rounds",
    "completed",
    "informed_per_round",
    "first_informed_round",
    "transmissions",
)


def assert_runs_equal(a, b, context):
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), (
            f"{context}: {field}"
        )
    assert sorted(a.extras) == sorted(b.extras), context
    for key in a.extras:
        assert np.array_equal(a.extras[key], b.extras[key]), f"{context}: {key}"


def assert_recount(batch, targets=None):
    """Every count the running arrays produced, recounted from scratch
    off the first-informed matrix."""
    fir = batch.first_informed_round
    informed = fir >= 0
    rounds = batch.informed_per_round.shape[0]
    for r in range(rounds):
        expect = (informed & (fir <= r + 1)).sum(axis=0)
        assert np.array_equal(batch.informed_per_round[r], expect), f"round {r}"
    tel = batch.extras.get(TELEMETRY_PREFIX + "newly_informed")
    if tel is not None:
        assert tel.shape[0] == rounds
        for r in range(rounds):
            assert np.array_equal(tel[r], (fir == r + 1).sum(axis=0))
        assert np.array_equal(
            batch.extras[TELEMETRY_PREFIX + "transmitters"].sum(axis=0),
            batch.transmissions,
        )
    # Completion is judged on the covered count: the round a trial
    # completes is the first whose covered count reaches the target size.
    covered_fir = fir if targets is None else fir[targets]
    need = covered_fir.shape[0]
    for t in range(batch.trials):
        col = covered_fir[:, t]

        def covered_at(r):
            return int(((col >= 0) & (col <= r)).sum())

        end = int(batch.rounds[t])
        if batch.completed[t]:
            assert covered_at(end) == need, f"trial {t}"
            if end:
                assert covered_at(end - 1) < need, f"trial {t}"
        else:
            assert covered_at(end) < need, f"trial {t}"


# ----------------------------------------------------------------------
# The column-count kernel
# ----------------------------------------------------------------------


def _check_counts(counter, mat):
    got = counter(mat)
    assert got.dtype == np.int64
    assert got.shape == (mat.shape[1],)
    assert np.array_equal(got, mat.sum(axis=0))


@pytest.mark.parametrize("trials", [1, 3, 16, 63, 64, 65, 256])
def test_column_counter_matches_sum(trials):
    rng = np.random.default_rng(trials)
    counter = ColumnCounter()
    for n in (1, 7, 300, 5000):
        _check_counts(counter, rng.random((n, trials)) < 0.37)


@pytest.mark.parametrize("trials", [1, 3, 16, 63, 64, 65])
def test_column_counter_at_block_edges(trials, monkeypatch):
    monkeypatch.setattr(network_module, "_COLUMN_BLOCK_ELEMS", 64)
    rows = max(1, 64 // trials)
    rng = np.random.default_rng(trials)
    counter = ColumnCounter()
    for n in sorted({1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1} - {0}):
        _check_counts(counter, rng.random((n, trials)) < 0.5)


@pytest.mark.parametrize("fill", [False, True])
def test_column_counter_constant_matrices(fill, monkeypatch):
    counter = ColumnCounter()
    for shape in ((1, 1), (70000, 1), (5000, 3), (300, 256)):
        _check_counts(counter, np.full(shape, fill))
    monkeypatch.setattr(network_module, "_COLUMN_BLOCK_ELEMS", 8)
    _check_counts(counter, np.full((5000, 3), fill))


def test_column_counter_non_contiguous_inputs():
    rng = np.random.default_rng(5)
    big = rng.random((900, 130)) < 0.4
    counter = ColumnCounter()
    strided = big[::3, 1::2]
    assert not strided.flags.c_contiguous
    _check_counts(counter, strided)
    fancy = np.asfortranarray(big)[rng.permutation(900)[:500]][:, [0, 5, 9, 64]]
    _check_counts(counter, fancy)
    _check_counts(counter, big.T[:40])


def test_column_counter_reuses_buffers_across_widths():
    rng = np.random.default_rng(8)
    counter = ColumnCounter()
    for trials in (256, 1, 64, 3, 256):
        _check_counts(counter, rng.random((4100, trials)) < 0.2)
    _check_counts(counter, np.zeros((0, 4), dtype=bool))
    _check_counts(counter, np.zeros((4, 0), dtype=bool))


# ----------------------------------------------------------------------
# Running counts in the dense round loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("channel", [None, "erasure"])
@pytest.mark.parametrize("workload", ["broadcast", "gossip(k=3)"])
def test_dense_running_counts_match_bitset_and_recount(
    workload, channel, telemetry
):
    # Trials finish in different rounds, so the working set is compacted
    # many times while the batch runs.
    graph = random_regular(60, 4, rng=3)
    runs = [
        run_broadcast_batch(
            graph, DecayProtocol(), trials=65, seed=21, engine=engine,
            workload=workload, telemetry=telemetry,
            channel=ErasureChannel(0.2) if channel else None,
        )
        for engine in ("dense", "bitset")
    ]
    assert_runs_equal(*runs, f"{workload} {channel}")
    assert np.unique(runs[0].rounds).size > 1
    assert_recount(runs[0])


@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
def test_crash_faults_keep_running_covered_counts(telemetry):
    # Crashed processors leave the coverage targets, so the covered count
    # is a second running array beside the satisfied count.
    graph = hypercube(5)
    channel = AdversarialJamming(
        FaultSchedule(crashes=((0, (31, 7)), (12, (20,))))
    )
    batch = run_broadcast_batch(
        graph, DecayProtocol(), trials=24, seed=2, channel=channel,
        workload="gossip(k=2)", telemetry=telemetry, max_rounds=4000,
    )
    targets = channel.coverage_targets(RadioNetwork(graph))
    assert targets is not None and targets.sum() == graph.n - 3
    assert batch.completed.all()
    assert np.unique(batch.rounds).size > 1
    assert_recount(batch, targets)


@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
def test_trials_done_before_round_one(telemetry):
    # Six vertices, vertex 5 crashed: a trial whose five gossip sources are
    # exactly the live vertices is covered before round 1 and never enters
    # the round loop; the others run.
    graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    channel = AdversarialJamming(FaultSchedule(crashes=((0, (5,)),)))
    batch = run_broadcast_batch(
        graph, DecayProtocol(), trials=24, seed=1, channel=channel,
        workload="gossip(k=5)", telemetry=telemetry,
    )
    done0 = batch.rounds == 0
    assert done0.any() and not done0.all()
    assert batch.completed.all()
    targets = channel.coverage_targets(RadioNetwork(graph))
    assert_recount(batch, targets)
    # Every trial done at once: the loop never runs.
    instant = run_broadcast_batch(
        graph, DecayProtocol(), trials=5, seed=1, workload="gossip(k=6)",
        telemetry=telemetry,
    )
    assert instant.informed_per_round.shape == (0, 5)
    assert (instant.rounds == 0).all() and instant.completed.all()


@pytest.mark.parametrize("trials", [15, 17])
def test_live_row_fold_matches_full_delivery(trials, monkeypatch):
    # Telemetry off folds only the live rows (still unsatisfied in some
    # running trial); telemetry on delivers every row.  Everything but the
    # telemetry extras must agree, at widths the count kernel pads.
    graph = random_regular(256, 8, rng=5)
    steps = []
    step = RadioNetwork.step

    def spy(self, transmitting, round_index=0, rows=None):
        steps.append(None if rows is None else len(rows))
        return step(self, transmitting, round_index, rows)

    monkeypatch.setattr(RadioNetwork, "step", spy)
    runs = {}
    for telemetry in (False, True):
        steps.clear()
        runs[telemetry] = run_broadcast_batch(
            graph, DecayProtocol(), trials=trials, seed=11, engine="dense",
            workload="gossip(k=4)", channel=ErasureChannel(0.05),
            telemetry=telemetry,
        )
        if telemetry:
            assert set(steps) == {None}
        else:
            # The live rows shrink to a handful by the tail.
            assert min(s for s in steps if s is not None) < graph.n // 20
    off, on = runs[False], runs[True]
    assert np.unique(off.rounds).size > 1
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(off, field), getattr(on, field)), field
    assert sorted(off.extras) == sorted(
        k for k in on.extras if not k.startswith(TELEMETRY_PREFIX)
    )
    for key in off.extras:
        assert np.array_equal(off.extras[key], on.extras[key]), key
    assert_recount(on)
    # The dense telemetry rows are the packed engine's, bit for bit.
    packed = run_broadcast_batch(
        graph, DecayProtocol(), trials=trials, seed=11, engine="bitset",
        workload="gossip(k=4)", channel=ErasureChannel(0.05), telemetry=True,
    )
    assert_runs_equal(on, packed, f"T={trials}")


@pytest.mark.parametrize(
    "workload", ["aggregate(op=max)", "aggregate(op=count)", "pipeline(m=3)"]
)
def test_value_workloads_running_counts(workload):
    graph = random_regular(64, 4, rng=1)
    off, on = (
        run_broadcast_batch(
            graph, DecayProtocol(), trials=40, seed=5, workload=workload,
            telemetry=telemetry,
        )
        for telemetry in (False, True)
    )
    # Telemetry only adds extras: everything else is unchanged.
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(off, field), getattr(on, field)), field
    for key in off.extras:
        assert np.array_equal(off.extras[key], on.extras[key]), key
    assert np.unique(off.rounds).size > 1
    assert_recount(off)
    assert_recount(on)


# ----------------------------------------------------------------------
# The fold contract
# ----------------------------------------------------------------------

#: Specs covering every registered workload (asserted in sync with the
#: registry).
WORKLOAD_SPECS = {
    "aggregate": ("aggregate(op=max)", "aggregate(op=count)"),
    "broadcast": ("broadcast(source=3)",),
    "gossip": ("gossip(k=3)",),
    "pipeline": ("pipeline(m=1)", "pipeline(m=3)"),
}
FOLD_SPECS = [spec for specs in WORKLOAD_SPECS.values() for spec in specs]


def test_workload_specs_cover_registry():
    assert sorted(WORKLOAD_SPECS) == WORKLOADS.names()


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=st.sampled_from(FOLD_SPECS),
    seed=st.integers(0, 2**16),
    trials=st.integers(1, 5),
    transmit=st.floats(0.0, 1.0),
    extra=st.floats(0.0, 0.3),
    erasure=st.booleans(),
)
def test_fold_is_disjoint_from_satisfied(
    spec, seed, trials, transmit, extra, erasure
):
    graph = hypercube(4)
    channel = ErasureChannel(0.3) if erasure else None
    network = RadioNetwork(graph, channel=channel)
    rngs = [np.random.default_rng([seed, t]) for t in range(trials)]
    network.channel.reset(network, rngs)
    state = as_workload(spec).make_state(network, rngs)
    satisfied = state.initial_satisfied().copy()
    draw = np.random.default_rng(seed)
    for round_index in range(6):
        # Any satisfied superset must do: the contract is about the cells
        # handed in, not about how they came to be satisfied.
        satisfied |= draw.random(satisfied.shape) < extra
        eligible = state.transmit_eligible(satisfied)
        mask = (draw.random(satisfied.shape) < transmit) & eligible
        received = network.step(mask, round_index)
        fresh = state.fold(round_index, mask, received, satisfied, network)
        assert fresh.dtype == bool and fresh.shape == satisfied.shape
        assert not (fresh & satisfied).any(), f"{spec} round {round_index}"
        satisfied |= fresh


# ----------------------------------------------------------------------
# MemoryBudget honesty on the dense engine
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_graph():
    return random_regular(4096, 8, rng=0)


@pytest.mark.parametrize(
    "workload, erasure, telemetry",
    [
        (None, False, False),
        (None, False, True),
        (None, True, False),
        (None, True, True),
        ("gossip(k=4)", True, True),
    ],
)
def test_dense_budget_bounds_traced_peak(
    service_graph, workload, erasure, telemetry
):
    budget = MemoryBudget(8 * 2**20)
    trials = budget.max_trials(service_graph.n, "dense")
    # Wide enough that the per-(trial, node) working set, not the fixed
    # kernel buffers, decides the peak.
    assert trials >= 32

    def run(t):
        return run_broadcast_batch(
            service_graph, DecayProtocol(), trials=t, seed=0,
            engine="dense", workload=workload, telemetry=telemetry,
            channel=ErasureChannel(0.05) if erasure else None,
            memory_budget=budget,
        )

    run(2)  # lazy graph caches and imports stay out of the measurement
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        batch = run(trials)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert batch.trials == trials
    assert peak <= budget.limit_bytes, (
        f"traced peak {peak / (trials * service_graph.n):.1f} bytes per "
        "(trial, node) exceeds the dense budget estimate"
    )
