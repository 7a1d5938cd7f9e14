"""One measured repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line:
set-up time (CPU seconds of this process from its start to the end of
the workload's set-up: interpreter start, imports, spec parsing, server
start), the timed work's CPU seconds and wall, the ``time.monotonic()``
readings that bound both (for ``run.py`` to match against its speed
probe), peak RSS of this process, the operation latencies, the output
checks and, with ``--trace 1``, the per-layer metrics of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _dispatch(protocol_name: str) -> tuple:
    """How the engine will route this protocol: the clone adapter or not,
    and whether it has a native packed-word face."""
    from repro.radio.protocols import legacy_hooks_specialized
    from repro.scenario.spec import ProtocolSpec

    protocol = ProtocolSpec.from_string(protocol_name).build()
    return legacy_hooks_specialized(protocol), bool(type(protocol).words_native)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--tmp", required=True, help="fresh temporary directory")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--unpinned", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.rep, args.tmp, args.corrupt)
    # The process clock counts from this process's start, so it covers
    # interpreter start-up and imports too.
    setup_s = time.process_time()
    setup_end = time.monotonic()
    workload.prepare()

    tracer = None
    if args.trace:
        from layers import LayerTracer, span_cost
        from repro.obs.tracing import TraceRecorder

        before = _dispatch("decay")
        tracer = LayerTracer(TraceRecorder())
        tracer.install()
        dispatch_same = _dispatch("decay") == before
    run_start = time.monotonic()
    try:
        watch = workload.run()
    finally:
        if tracer is not None:
            tracer.restore()
    run_end = time.monotonic()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pinned = None
    if args.seed == DEFAULT_SEED and args.rep == 0 and not args.unpinned:
        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)[args.workload]
    outcome, digests = workload.check(pinned)
    if tracer is not None:
        outcome.op(dispatch_same, "tracing changed the protocol dispatch")
    workload.close()

    out = {
        "setup_s": setup_s,
        "cpu_s": watch.cpu,
        "wall_s": watch.elapsed,
        "setup_end": setup_end,
        "run_window": [run_start, run_end],
        "peak_rss_mib": peak_rss_mib,
        "latencies": workload.latencies,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digests": digests,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(watch.elapsed, span_cost())
        if args.trace_out:
            tracer.recorder.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
