"""Repository benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bitset-broadcast --seed 0 --trace 0

Workloads (see ``workloads.py``): ``bitset-broadcast``, ``service-jobs``,
``expansion-n200``.  Every repetition runs in a fresh
interpreter (``rep.py``) with a fresh temporary store and queue under
``.perfbench/``, so peak RSS is per repetition and no in-process memo or
cache carries over.  A run repeats until the next repetition would end
after ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``), with
at least ``MIN_REPS`` repetitions; the reported value of each metric is
its median over them.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:

* ``norm_cpu_s`` — CPU seconds, all threads, of the timed work of one
  repetition (never server start and stop or output checks),
  normalised as below;
* ``setup_s`` — CPU seconds of interpreter start, imports, spec parsing,
  server and queue start, one sample per repetition, normalised;
* ``peak_rss_mib`` — peak resident set of the repetition's process.

Times are process CPU time, not wall, normalised to the speed of the CPU
at the moment.  On a shared virtual machine the host lends its CPUs to
others (steal), which the process clock leaves out; but other tenants of
the same physical core also slow the CPU seconds themselves, by up to
~40% for seconds to minutes at a time.  So every repetition runs pinned
to one CPU beside a speed probe (``probe.py``) that times a fixed loop
every 20 ms, and each time is scaled by ``PROBE_REF_S`` over the probe's
mean over the same interval: seconds on that CPU at the probe's reference
speed.  A change to the program moves the repetition's times and not the
probe's.  Each repetition's raw CPU seconds, wall and probe means are
printed above the JSON line.

Operation latencies are printed above the JSON line with their sample
counts — submit-to-done p50 of the cold and the warm service jobs, and
the warm p95 with the samples beyond it.

``--trace 1`` runs traced repetitions only and reports the median of each
per-layer metric of ``layers.py`` over them, with the share of traced
wall the layers cover and the tracing overhead.  The last traced
repetition's spans are written as JSONL to
``.perfbench/trace-<workload>.jsonl``; ``repro obs summary`` reads it.

Every repetition checks the program's outputs; a failed or mismatching
operation counts in ``failed``.  ``--corrupt`` alters one output before
the checks, to show that they catch it; ``--pin`` rewrites the digests of
the default seed in ``pinned.json``.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
MIN_REPS = 2
#: The probe loop's CPU seconds on an unloaded core of the 2.0 GHz Xeon
#: the baseline was recorded on: the unit of the normalised times.
PROBE_REF_S = 0.0028
#: A run ends within this many seconds: no repetition starts that the
#: slowest one so far says would end later, and a stuck one is killed.
RUN_LIMIT_S = 160.0

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402 - sibling module


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def probe_mean(samples, start: float, end: float) -> float:
    """Mean probe loop CPU seconds over the samples taken in ``[start, end]``."""
    inside = [cpu for t, cpu in samples if start <= t <= end]
    return statistics.fmean(inside or [cpu for _, cpu in samples])


def spawn(args, rep: int, env: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter beside a speed probe, and
    parse its result with its set-up and timed work normalised."""
    traced = bool(args.trace)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(WORK, "tmp"))
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--rep", str(rep), "--tmp", tmp, "--trace", str(int(traced)),
    ]
    if traced:
        cmd += ["--trace-out", os.path.join(WORK, f"trace-{args.workload}.jsonl")]
    if args.corrupt:
        cmd.append("--corrupt")
    if args.pin:
        cmd.append("--unpinned")
    probe = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        probe.stdout.readline()
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        # Closing its standard input stops the probe.
        try:
            samples = json.loads(probe.communicate(timeout=10)[0])
        except (subprocess.TimeoutExpired, ValueError):
            probe.kill()
            probe.wait()
            raise
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"repetition {rep} of {args.workload} exited {proc.returncode}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    r["probe_s"] = [probe_mean(samples, spawned, r["setup_end"]),
                    probe_mean(samples, *r["run_window"])]
    r["norm_setup_s"] = r["setup_s"] * PROBE_REF_S / r["probe_s"][0]
    r["norm_cpu_s"] = r["cpu_s"] * PROBE_REF_S / r["probe_s"][1]
    return r


def report(reps: list[dict]) -> None:
    """Human-readable lines: one per repetition, then pooled latencies."""
    for i, r in enumerate(reps):
        print(f"rep {i}: setup {r['setup_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"wall {r['wall_s']:.3f} s, "
              f"probe {1e3 * r['probe_s'][0]:.3f}/{1e3 * r['probe_s'][1]:.3f} ms, "
              f"peak rss {r['peak_rss_mib']:.1f} MiB, "
              f"failed {len(r['failures'])}/{r['attempted']}")
        for reason in r["failures"]:
            print(f"  FAILED: {reason}")
    for name in reps[0]["latencies"]:
        pooled = [x for r in reps for x in r["latencies"][name]]
        if not pooled:
            continue
        line = f"{name}: n={len(pooled)}, p50 {1e3 * statistics.median(pooled):.2f} ms"
        if len(pooled) >= 200:
            p95 = percentile(pooled, 0.95)
            beyond = sum(x > p95 for x in pooled)
            line += f", p95 {1e3 * p95:.2f} ms ({beyond} beyond)"
        print(line)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one output before the checks")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the default seed's digests in pinned.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs the default seed {DEFAULT_SEED}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # Byte-compile once so no repetition's set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
    env = {**os.environ, **threads}
    # Repetitions and probes inherit this: one CPU, so the probe's speed
    # is the repetition's.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.pin:
        rep = spawn(args, 0, env, deadline)
        if rep["failures"]:
            report([rep])
            return 1
        path = os.path.join(HERE, "pinned.json")
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)
        pinned[args.workload] = rep["digests"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"pinned {len(rep['digests'])} digests for {args.workload}")
        return 0

    reps, slowest = [], 0.0
    while True:
        began = time.monotonic()
        reps.append(spawn(args, len(reps), env, deadline))
        now = time.monotonic()
        slowest = max(slowest, now - began)
        if len(reps) >= MIN_REPS and now + (now - start) / len(reps) > start + args.seconds:
            break
        if now + 1.5 * slowest > deadline:
            break
    report(reps)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in reps)
                  for name in reps[0]["layers"]}
    else:
        values = {
            "norm_cpu_s": statistics.median(r["norm_cpu_s"] for r in reps),
            "setup_s": statistics.median(r["norm_setup_s"] for r in reps),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
