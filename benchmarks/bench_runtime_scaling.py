"""E16 — runtime: parallel executor scaling and warm-cache replay.

Runs the same ≥64-task chain-broadcast ``ScenarioSweep`` four ways:
inline serial (the reference), ``ParallelExecutor`` at ``--jobs 4``,
serial with a cold content-addressed cache, and a warm-cache replay.  The
process-wide graph memo is cleared before each variant, and one untimed
run pays the first-use imports, so every variant pays its own graph
builds and none pays the imports.  The acceptance bars are a ≥ 2.5× parallel
speedup (full scale, when ≥ 4 CPUs are actually available — the bar is
recorded but not asserted on smaller machines) and a ≥ 10× warm-over-cold
replay; every variant must reproduce the serial ``ScenarioPoint`` list bit
for bit, which is the runtime layer's core contract.
"""

import os
import time

from conftest import JOBS, SMOKE, emit, scaled

from repro.analysis import render_table
from repro.runtime import ParallelExecutor, ResultStore
from repro.scenario import GraphSpec, Scenario, ScenarioSweep, clear_graph_memo

# The acceptance bar is stated at 4 workers; `repro run E16 --jobs N`
# (REPRO_JOBS) widens the pool beyond it.
PAR_JOBS = max(4, JOBS)
SPACE = {
    "graph": [
        GraphSpec.make("chain", s, layers)
        for s in scaled([2, 4, 8, 16], [2, 4])
        for layers in scaled([2, 4, 6, 8], [2, 3])
    ]
}
REPS = scaled(4, 2)  # 16 grid points x 4 reps = 64 tasks at full scale
TRIALS = scaled(256, 4)
BASE = Scenario(graph=SPACE["graph"][0], trials=TRIALS)
MASTER = 11
SWEEP = ScenarioSweep(base=BASE, grid=SPACE, repetitions=REPS, seed=MASTER)

HEADERS = ["mode", "tasks", "seconds", "speedup", "equal"]


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux


def compare(cache_root):
    timings = {}
    BASE.run()  # untimed: the first-use imports

    def timed(label, **kwargs):
        clear_graph_memo()
        t0 = time.perf_counter()
        points = SWEEP.run(**kwargs)
        timings[label] = time.perf_counter() - t0
        return points

    serial = timed("serial")
    parallel = timed(f"parallel -j{PAR_JOBS}", executor=ParallelExecutor(PAR_JOBS))
    store = ResultStore(cache_root)
    cold = timed("serial + cold cache", cache=store)
    warm = timed("warm cache replay", cache=store)
    variants = {
        f"parallel -j{PAR_JOBS}": parallel,
        "serial + cold cache": cold,
        "warm cache replay": warm,
    }
    rows = [["serial", len(serial), round(timings["serial"], 3), 1.0, True]]
    for label, points in variants.items():
        rows.append(
            [
                label,
                len(points),
                round(timings[label], 3),
                round(timings["serial"] / timings[label], 1),
                points == serial,
            ]
        )
    stats = store.stats()
    return rows, timings, store, stats


def test_e16_runtime_scaling(benchmark, results_dir, tmp_path):
    rows, timings, store, stats = benchmark.pedantic(
        compare, args=(tmp_path / "cache",), rounds=1, iterations=1
    )
    cpus = _cpus()
    emit(
        results_dir,
        "E16_runtime_scaling.txt",
        render_table(
            HEADERS,
            rows,
            title=(
                f"E16 / runtime: {rows[0][1]}-task sweep, serial vs parallel "
                f"vs cached (trials={TRIALS}, cpus={cpus})"
            ),
        ),
        data={"rows": rows, "cpus": cpus, "cache_entries": stats.entries},
    )
    # The core contract, asserted at every scale: parallel and cached runs
    # reproduce the serial ScenarioPoint list bit for bit.
    for row in rows:
        assert row[-1], f"{row[0]} diverged from the serial reference"
    # A ≥64-point sweep at full scale, and the warm replay touched no task:
    # every lookup hit (cold misses == warm hits == task count).
    assert rows[0][1] >= (64 if not SMOKE else 8)
    tasks = rows[0][1]
    assert store.misses == tasks and store.hits == tasks
    assert stats.entries == tasks
    if not SMOKE:
        warm_speedup = timings["serial + cold cache"] / timings["warm cache replay"]
        assert warm_speedup >= 10.0, f"warm cache only {warm_speedup:.1f}x"
        par_speedup = timings["serial"] / timings[f"parallel -j{PAR_JOBS}"]
        if cpus >= PAR_JOBS:
            # Near-linear scaling bar; only meaningful when the CPUs exist.
            assert par_speedup >= 2.5, f"parallel only {par_speedup:.1f}x"
