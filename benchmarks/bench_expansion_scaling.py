"""E17 — expansion pipeline: βw vs broadcast rounds, and batched speedup.

Two tables:

* ``E17_expansion_vs_broadcast`` sweeps graph families (the Section 5
  chain, a hypercube, a random regular expander, and the Margulis
  expander) computing ``(β̂w, broadcast rounds)`` pairs per instance,
  each β̂w cached under its ``expansion_key`` — the paper's headline empirical
  connection (good wireless expanders broadcast fast; the chained-core
  lower-bound network is slow *because* its expansion is poor).
* ``E17_expansion_speedup`` pins the batched candidate pipeline
  (:mod:`repro.expansion.pipeline`) against the retired serial estimator
  at n=200 / 100 candidate sets: **≥ 10×** at full scale, and bit-for-bit
  identical (value and witness) at every scale.
"""

import time

import numpy as np

from conftest import JOBS, SMOKE, emit, scaled

from repro._util import spawn_seeds
from repro.analysis import render_table
from repro.expansion import (
    wireless_expansion_sampled,
    wireless_expansion_sampled_serial,
)
from repro.expansion.spec import ExpansionSpec
from repro.graphs import random_regular
from repro.runtime import ParallelExecutor, ResultStore
from repro.scenario import (
    GraphSpec,
    Scenario,
    expansion_summary,
    scenario_summary,
)

MASTER = 17

#: (family spec, broadcast trials) per instance; order = table order.
FAMILIES = scaled(
    ["chain(8, 3)", "hypercube(7)", "random_regular(128, 8)", "margulis(6)"],
    ["chain(4, 2)", "hypercube(4)", "random_regular(32, 4)", "margulis(3)"],
)
ESTIMATOR = scaled("sampled(samples=60)", "sampled(samples=10)")
TRIALS = scaled(16, 4)

SPEED_N = scaled(200, 48)
SPEED_SAMPLES = scaled(100, 20)


def test_e17_expansion_vs_broadcast(benchmark, results_dir, tmp_path):
    store = ResultStore(tmp_path / "cache")
    executor = ParallelExecutor(JOBS) if JOBS > 1 else None

    def measure():
        rows = []
        for graph, seed in zip(FAMILIES, spawn_seeds(MASTER, len(FAMILIES))):
            key = store.expansion_key(
                GraphSpec.from_string(graph),
                ExpansionSpec.from_string(ESTIMATOR),
                seed,
            )
            try:
                exp = store.get(key)
            except KeyError:
                exp = expansion_summary(
                    graph, ESTIMATOR, seed=seed, executor=executor
                )
                store.put(key, exp)
            sim = scenario_summary(
                Scenario(graph=graph, trials=TRIALS, seed=MASTER)
            )
            rows.append(
                [graph, exp["n"], round(exp["beta_w"], 3),
                 exp["bound"], round(sim["mean_rounds"], 1),
                 round(sim["completion_rate"], 3)]
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        results_dir,
        "E17_expansion_vs_broadcast.txt",
        render_table(
            ["family", "n", "beta_w", "bound", "mean rounds", "completion"],
            rows,
            title=f"E17 / expansion vs broadcast ({ESTIMATOR}, "
                  f"trials={TRIALS})",
        ),
        data={"rows": rows, "estimator": ESTIMATOR, "seed": MASTER},
    )
    by_family = {row[0].split("(")[0]: row for row in rows}
    # The headline shape: expander families out-expand the Section 5
    # chain, and the chain (built to be slow) broadcasts slowest per
    # diameter class.  Only asserted at full scale — tiny instances are
    # shape checks, not statistics.
    assert all(row[5] == 1.0 for row in rows), "incomplete broadcasts"
    if not SMOKE:
        chain_beta = by_family["chain"][2]
        for family in ("hypercube", "random_regular", "margulis"):
            assert by_family[family][2] > chain_beta, (
                f"{family} should out-expand the chain: "
                f"{by_family[family][2]} vs {chain_beta}"
            )


def test_e17_batched_speedup(benchmark, results_dir):
    graph = random_regular(SPEED_N, 8, rng=0)

    def compare():
        t0 = time.perf_counter()
        serial = wireless_expansion_sampled_serial(
            graph, alpha=0.5, samples=SPEED_SAMPLES, rng=7,
            include_balls=False,
        )
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched = wireless_expansion_sampled(
            graph, alpha=0.5, samples=SPEED_SAMPLES, rng=7,
            include_balls=False,
        )
        t_batched = time.perf_counter() - t0
        return serial, batched, t_serial, t_batched

    serial, batched, t_serial, t_batched = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = t_serial / t_batched
    rows = [
        ["serial", round(t_serial, 3), 1.0, round(serial[0], 4)],
        ["batched", round(t_batched, 3), round(speedup, 1),
         round(batched[0], 4)],
    ]
    emit(
        results_dir,
        "E17_expansion_speedup.txt",
        render_table(
            ["estimator path", "seconds", "speedup", "beta_w"],
            rows,
            title=f"E17 / batched expansion pipeline "
                  f"(n={SPEED_N}, {SPEED_SAMPLES} candidates)",
        ),
        data={"rows": rows, "n": SPEED_N, "samples": SPEED_SAMPLES},
    )
    # The core contract at every scale: the batched pipeline reproduces
    # the serial estimator bit for bit (value and witness set).
    assert batched[0] == serial[0]
    assert np.array_equal(batched[1], serial[1])
    if not SMOKE:
        assert speedup >= 10.0, f"batched pipeline only {speedup:.1f}x"
