"""Regenerate the repo-wide refactor guard (``fixtures/pinned.json``).

The fixtures freeze the engine's observable outputs — per-trial rounds,
completion, transmissions, and content digests of every result matrix —
for a spread of scenarios at fixed seeds, the expansion pipeline's
estimates, and each pinned scenario's ``scenario_key`` (its cache
identity).  ``tests/regression/test_pinned_fixtures.py`` replays them, so
a refactor that claims to keep behaviour bit for bit must keep every pin.

Run from the repo root to regenerate (only do this when an intentional,
documented engine-semantics or cache-key change lands)::

    PYTHONPATH=src python tests/regression/make_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: The pinned configurations: diverse enough to cross every routed kernel —
#: both engines, all four channels, all four workloads, trial compaction,
#: word-boundary trial counts, and the memory-budget column sharder.
SCENARIOS = (
    "chain(4, 3) | decay | classic | trials=8 | seed=7",
    "hypercube(6) | decay | erasure(0.2) | trials=8 | seed=3",
    "cplus(16) | collision-backoff | cd | trials=6 | seed=5 | max_rounds=64",
    'hypercube(5) | decay | jamming("jam@0-4:0,1;crash@2:3") | trials=4 | seed=4',
    "margulis(3) | decay | classic | gossip(k=4) | trials=8 | seed=2",
    "chain(4, 2) | decay | classic | aggregate(op=count) | trials=8 | seed=1",
    "chain(4, 2) | decay | classic | pipeline(m=3) | trials=4 | seed=9",
    "hypercube(6) | decay | classic | trials=70 | seed=6 | engine=bitset",
    "hypercube(6) | decay | erasure(0.1) | trials=66 | seed=8 | engine=bitset",
    "random_regular(64, 6) | decay | classic | trials=16 | seed=11 "
    "| memory_budget=65536",
    "grid(6) | flooding | classic | trials=4 | seed=0 | max_rounds=32 "
    "| telemetry=on",
)

#: Expansion-pipeline pins: (graph spec, estimator spec, seed).
EXPANSIONS = (
    ("margulis(4)", "sampled(samples=30)", 1),
    ("hypercube(4)", "sampled(samples=20)", 3),
    ("random_regular(200, 8)",
     "portfolio(samples=40, max_set_bits=64, include_balls=false)", 5),
    ("random_regular(200, 8)",
     "sampled(samples=50, max_set_bits=24, include_balls=false)", 1),
)

#: Seeded boundary graphs ``G_S`` for the per-algorithm portfolio pins:
#: ``(label, graph seed, set size)`` draws a ``random_regular(200, 8)``
#: and a uniform set of that size from ``default_rng(seed)``; sizes span
#: the portfolio arm's candidate range.
PORTFOLIO_CASES = tuple(
    (f"random_regular(200, 8) seed={seed} |S|={size}", seed, size)
    for seed, size in zip(range(20), (
        1, 2, 3, 5, 8, 12, 16, 20, 24, 28,
        32, 36, 40, 44, 48, 52, 56, 60, 64, 100,
    ))
)

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "pinned.json")


def digest(arr) -> dict:
    """Content digest of an array: dtype, shape, and the sha256 of its
    C-contiguous little-endian bytes."""
    arr = np.ascontiguousarray(arr)
    canon = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "sha256": hashlib.sha256(
            np.ascontiguousarray(canon).tobytes()
        ).hexdigest(),
    }


def batch_record(batch) -> dict:
    """The pinned view of one BatchBroadcastResult."""
    return {
        "rounds": [int(r) for r in batch.rounds],
        "completed": [bool(c) for c in batch.completed],
        "transmissions": [int(t) for t in batch.transmissions],
        "informed_per_round": digest(batch.informed_per_round),
        "first_informed_round": digest(batch.first_informed_round),
        "extras": {k: digest(v) for k, v in sorted(batch.extras.items())},
    }


def key_record(spec: str) -> str:
    """The pinned cache identity of one scenario spec.  The empty salt
    pins the canonical dict alone, independent of the installed package
    version that ``code_salt`` would mix in."""
    from repro.runtime import scenario_key
    from repro.scenario import Scenario

    return scenario_key(Scenario.from_string(spec), salt="")


def expansion_record(graph: str, expansion: str, seed: int) -> dict:
    from repro.scenario.tasks import expansion_summary

    out = expansion_summary(graph, expansion=expansion, seed=seed)
    return {
        "beta_w": out["beta_w"],
        "bound": out["bound"],
        "subset_size": out["subset_size"],
        "candidates": out["candidates"],
    }


def portfolio_record(seed: int, size: int) -> dict:
    """Every portfolio member's ``(algorithm, subset, unique_count)`` on
    one seeded ``G_S``."""
    from repro.graphs.families import random_regular
    from repro.spokesman import spokesman_portfolio

    gen = np.random.default_rng(seed)
    graph = random_regular(200, 8, rng=gen)
    subset = gen.choice(200, size=size, replace=False)
    gs, _, _ = graph.boundary_bipartite(subset)
    _, results = spokesman_portfolio(gs, rng=gen)
    return {
        name: {
            "algorithm": res.algorithm,
            "subset": digest(res.subset),
            "unique_count": int(res.unique_count),
        }
        for name, res in sorted(results.items())
    }


def build() -> dict:
    from repro.scenario import Scenario

    return {
        "scenarios": {
            spec: batch_record(Scenario.from_string(spec).run())
            for spec in SCENARIOS
        },
        "expansions": {
            f"{graph} :: {expansion} :: seed={seed}": expansion_record(
                graph, expansion, seed
            )
            for graph, expansion, seed in EXPANSIONS
        },
        "portfolio": {
            label: portfolio_record(seed, size)
            for label, seed, size in PORTFOLIO_CASES
        },
        "keys": {spec: key_record(spec) for spec in SCENARIOS},
    }


def main() -> None:
    payload = build()
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
