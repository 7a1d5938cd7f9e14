"""Run-to-run spread of the benchmark, and the baseline file it records.

Run from the repository root::

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

For each workload, runs ``run.py`` once per seed (``1 .. runs``) and
reports, per end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread ``(Q3 - Q1) /
median`` that ``BENCHMARK.json``'s bounds are held to; then one traced run
at the default seed gives the per-layer metrics.  ``--out`` writes all of
it, with the host it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` run of ``run_seconds``, as BENCHMARK.json sets it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    out = {
        "host": {"machine": platform.machine(), "processor": platform.processor(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": args.runs, "run_seconds": spec["run_seconds"], "workloads": {},
    }
    for workload in workloads:
        results = [bench(workload, seed, 0)
                   for seed in range(1, args.runs + 1)]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: failed {entry['failed']}/{entry['attempted']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"  {name:14s} median {med:12.4f} {metric['unit']:4s} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}  {flag}")
        traced = bench(workload, 0, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
