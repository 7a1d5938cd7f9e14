"""E18 — datacenter-scale broadcast: packed-bitset engine vs dense.

The bitset backend packs 64 trials per uint64 word and folds reception
through CSR neighbour-word gathers and popcounts (:mod:`repro.radio.bitset`);
the dense backend keeps ``(n, T)`` bool matrices and counts neighbours
with a lane-packed CSR gather (``CSRAdjacency.count_neighbors``), folding
only the rows still uninformed in some running trial.  This bench pins
what the packed engine still buys over that dense engine, on a
``n = 10^5`` random 16-regular expander at ``T = 64`` Decay trials:

* **memory** — the engine working set (traced allocation peak minus the
  result arrays both engines must hand back) is ``≥ 4.5×`` smaller, and
  the bitset working set stays within the tracked 17.6 MiB;
* **throughput** — the *reception step* (the per-round kernel the engines
  differ in: dense neighbour counts at the live rows vs CSR
  neighbour-word gathers + popcount at every row) is ``≥ 1.3×`` faster,
  measured by clocking each engine's channel-deliver calls in place.

End-to-end wall time is reported, and its ratio asserted ``≥ 1.2×`` as a
looser regression floor: both engines pay the *identical* counter-based
coin hash per round — that sharing is the bit-for-bit contract — so the
full-run ratio is the reception gain diluted by the common RNG cost.

The bars were 5×, 3× and 2× while the dense engine ran a scipy product
over every row each round.  The count kernel and the live-row fold took
the dense reception step from 3.8 s to 1.3–1.8 s and its wall from
6.5 s to 3.8–4.9 s with the bitset side unchanged, so the bars were
restated below the minimum of five full-scale runs (mem 4.94×, step
1.57×, wall 1.45×); each stays above 1, so bitset must still win on all
three.  Those runs delivered in full while more than half the rows were
live; folding at the live rows from the first round raised the dense
working set from 75.9 to 82.0 MiB, and three full-scale runs then read
mem 5.36×, step 1.67–1.87× and wall 1.57–1.75×.

Both runs are asserted bit-for-bit identical first (the equivalence
contract ``tests/radio/test_bitset_engine.py`` pins in detail), so the
comparison is between two implementations of the same computation.  An
optional ``REPRO_BENCH_XL=1`` tier repeats the bitset run at ``n = 10^6``.
"""

import os
import time
import tracemalloc

import numpy as np
from conftest import SMOKE, emit, scaled

from repro.analysis import render_table
from repro.graphs import random_regular
from repro.radio import DecayProtocol, MemoryBudget, run_broadcast_batch
from repro.radio.channel import ClassicCollision


class _TimedClassic(ClassicCollision):
    """Classic collision channel that clocks its own deliver calls.

    Results are bit-for-bit those of :class:`ClassicCollision`; the only
    addition is ``step_seconds``, the summed wall time of the reception
    kernel (dense ``deliver`` / packed ``deliver_words``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.step_seconds = 0.0

    def deliver(self, round_index, transmitting, network, rows=None):
        t0 = time.perf_counter()
        out = super().deliver(round_index, transmitting, network, rows)
        self.step_seconds += time.perf_counter() - t0
        return out

    def deliver_words(self, round_index, transmit_words, network):
        t0 = time.perf_counter()
        out = super().deliver_words(round_index, transmit_words, network)
        self.step_seconds += time.perf_counter() - t0
        return out

N_SCALE = scaled(100_000, 10_000)
#: The bitset working set tracked in ``results/E18_datacenter_scale.*``
#: before the dense bars were restated: the restatement must not come
#: from a heavier bitset engine.
BITSET_OVERHEAD_BYTES = int(17.6 * 2**20)
DEGREE = 16
TRIALS = 64
SEED = 7
XL = os.environ.get("REPRO_BENCH_XL", "0") not in ("", "0")

HEADERS = [
    "engine",
    "n",
    "trials",
    "rounds",
    "wall s",
    "step s",
    "steps/s",
    "peak MiB",
    "overhead MiB",
]

_RESULT_FIELDS = (
    "rounds",
    "completed",
    "informed_per_round",
    "first_informed_round",
    "transmissions",
)


def _result_bytes(batch) -> int:
    """Bytes of the arrays every engine must return regardless of backend
    (dominated by the ``(n, T)`` int64 first-informed matrix)."""
    return sum(getattr(batch, f).nbytes for f in _RESULT_FIELDS)


def _batches_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in _RESULT_FIELDS
    )


def _measure(graph, engine):
    """One engine's (batch, wall s, reception-step s, peak, overhead bytes).

    Timing and memory are separate runs — tracemalloc's bookkeeping slows
    the traced pass severalfold, so it must not pollute the clock.  The
    timing run's channel is :class:`_TimedClassic`, so the reception
    kernel's share of the wall comes out of the same measured run.
    """
    kwargs = dict(trials=TRIALS, seed=SEED, engine=engine)
    channel = _TimedClassic()
    t0 = time.perf_counter()
    batch = run_broadcast_batch(graph, DecayProtocol(), channel=channel, **kwargs)
    wall = time.perf_counter() - t0
    step_s = channel.step_seconds
    tracemalloc.start()
    traced = run_broadcast_batch(graph, DecayProtocol(), **kwargs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert _batches_equal(batch, traced)
    overhead = max(1, peak - _result_bytes(traced))
    return batch, wall, step_s, peak, overhead


def _row(engine, graph, batch, wall, step_s, peak, overhead):
    steps = int(batch.rounds.sum())
    return [
        engine,
        graph.n,
        TRIALS,
        int(batch.rounds.max()),
        round(wall, 3),
        round(step_s, 3),
        int(steps / wall),
        round(peak / 2**20, 1),
        round(overhead / 2**20, 1),
    ]


def test_e18_datacenter_scale(benchmark, results_dir):
    graph = random_regular(N_SCALE, DEGREE, rng=0)
    # Warm the lookup tables / lazy caches out of the measured runs.
    run_broadcast_batch(graph, DecayProtocol(), trials=2, seed=0, engine="bitset")

    def compare():
        dense = _measure(graph, "dense")
        bitset = _measure(graph, "bitset")
        return dense, bitset

    (dense, bitset) = benchmark.pedantic(compare, rounds=1, iterations=1)
    d_batch, d_wall, d_step, d_peak, d_over = dense
    b_batch, b_wall, b_step, b_peak, b_over = bitset
    assert _batches_equal(d_batch, b_batch), "engines diverged at scale"

    rows = [
        _row("dense", graph, *dense),
        _row("bitset", graph, *bitset),
    ]
    mem_ratio = d_over / b_over
    # Reception-step throughput: both engines run the identical round
    # sequence, so the kernel-time ratio is the per-round step speedup.
    step_ratio = d_step / b_step
    wall_ratio = d_wall / b_wall
    emit(
        results_dir,
        "E18_datacenter_scale.txt",
        render_table(
            HEADERS, rows,
            title=(
                f"E18 / datacenter scale: Decay on random_regular"
                f"({graph.n}, {DEGREE}), T={TRIALS} "
                f"[mem {mem_ratio:.1f}x, reception step {step_ratio:.1f}x, "
                f"wall {wall_ratio:.1f}x]"
            ),
        ),
        data={
            "headers": HEADERS,
            "rows": rows,
            "memory_overhead_ratio": mem_ratio,
            "step_throughput_ratio": step_ratio,
            "wall_ratio": wall_ratio,
        },
        engine="bitset",
    )
    if not SMOKE:
        assert mem_ratio >= 4.5, f"memory overhead ratio {mem_ratio:.2f} < 4.5"
        assert b_over <= BITSET_OVERHEAD_BYTES, (
            f"bitset overhead {b_over / 2**20:.1f} MiB > "
            f"{BITSET_OVERHEAD_BYTES / 2**20:.1f} MiB"
        )
        assert step_ratio >= 1.3, (
            f"reception-step throughput ratio {step_ratio:.2f} < 1.3"
        )
        # Looser end-to-end floor: the shared per-round coin hash (bit-
        # identical across engines by contract) dilutes the full-run gain.
        assert wall_ratio >= 1.2, f"end-to-end wall ratio {wall_ratio:.2f} < 1.2"


def test_e18_budget_sharding_identity(results_dir):
    """A tight MemoryBudget shards the batch into columns; the merged
    result must be bit-for-bit the unsharded one on both engines."""
    graph = random_regular(scaled(4096, 512), DEGREE, rng=1)
    for engine in ("dense", "bitset"):
        whole = run_broadcast_batch(
            graph, DecayProtocol(), trials=TRIALS, seed=SEED, engine=engine
        )
        budget = MemoryBudget(
            MemoryBudget._PER_TRIAL_NODE_BYTES[engine] * graph.n * 7
        )
        assert budget.max_trials(graph.n, engine) == 7  # forces 10 shards
        sharded = run_broadcast_batch(
            graph, DecayProtocol(), trials=TRIALS, seed=SEED,
            engine=engine, memory_budget=budget,
        )
        assert _batches_equal(whole, sharded), f"{engine} sharding diverged"


def test_e18_xl_tier(results_dir):
    """``REPRO_BENCH_XL=1``: the bitset engine at ``n = 10^6`` (bitset
    only — the dense working set at this size is the point of avoiding)."""
    if not XL:
        import pytest

        pytest.skip("set REPRO_BENCH_XL=1 for the n=10^6 tier")
    graph = random_regular(1_000_000, DEGREE, rng=0)
    batch, wall, step_s, peak, overhead = _measure(graph, "bitset")
    emit(
        results_dir,
        "E18_datacenter_xl.txt",
        render_table(
            HEADERS,
            [_row("bitset", graph, batch, wall, step_s, peak, overhead)],
            title="E18 / XL tier: bitset Decay at n=10^6",
        ),
        data={"n": graph.n, "wall_s": wall, "peak_bytes": peak},
        engine="bitset",
    )
    assert bool(batch.completed.all())
