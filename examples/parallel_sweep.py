"""Quickstart for the runtime layer: parallel, cached, resumable sweeps.

Runs the same chain-broadcast ``ScenarioSweep`` three ways — inline
serial, process-parallel, and cache-backed — and shows that all three
produce bit-for-bit identical ``ScenarioPoint`` lists while the cached
rerun is a pure replay.

Run it twice to see the cache warm up::

    python examples/parallel_sweep.py            # computes, then replays
    python examples/parallel_sweep.py --jobs 4   # same results, more cores

Equivalent CLI: ``repro sweep --s-values 4,8 --layers 2,4 --jobs 4`` then
``... --resume``; ``repro cache stats`` to inspect the store.
"""

import argparse
import tempfile
import time

from repro.runtime import ParallelExecutor, ResultStore
from repro.scenario import GraphSpec, Scenario, ScenarioSweep

# 4 grid points: the chain graph is the one swept scenario field.
SWEEP = ScenarioSweep(
    base=Scenario.from_string("chain(4, 2) | decay | trials=32"),
    grid={"graph": [GraphSpec.make("chain", s, l) for s in (4, 8) for l in (2, 4)]},
    repetitions=4,
    seed=0,
)


def timed(label, **kwargs):
    t0 = time.perf_counter()
    points = SWEEP.run(**kwargs)
    print(f"{label:>24}: {len(points)} points in {time.perf_counter() - t0:.2f}s")
    return points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    serial = timed("serial")
    parallel = timed(f"parallel (jobs={args.jobs})",
                     executor=ParallelExecutor(args.jobs))
    assert parallel == serial, "executors must agree bit for bit"

    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        cold = timed("cold cache", cache=store)
        warm = timed("warm cache (replay)", cache=store)
        assert cold == warm == serial
        print(f"{'cache':>24}: {store.hits} hits / {store.misses} misses "
              f"({store.stats().entries} entries)")

    best = min(serial, key=lambda p: p.result["mean_rounds"])
    print(f"{'fastest grid point':>24}: {best.overrides['graph'].describe()} "
          f"mean {best.result['mean_rounds']:.1f} rounds")


if __name__ == "__main__":
    # Required guard: ParallelExecutor spawns worker processes that
    # re-import this module.
    main()
