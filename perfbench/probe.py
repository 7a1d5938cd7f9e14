"""Speed probe: how fast the CPU it shares with a repetition runs right now.

Started by ``run.py`` on the CPU the repetition is pinned to.  Prints
``ready``, then every ``PERIOD_S`` times a fixed interpreter loop in CPU
seconds until its standard input closes, and prints the samples as one
JSON list of ``[time.monotonic(), cpu_seconds]`` pairs.

On a shared host the CPU seconds of fixed work swing by up to ~40% within
seconds, as the host's other tenants load the core a virtual CPU runs on;
a sample every 20 ms follows those swings.  The loop touches a few hundred
bytes, so it costs the repetition little beyond the CPU time it takes,
which the repetition's own process clock leaves out.
"""

from __future__ import annotations

import json
import select
import sys
import time

PERIOD_S = 0.02
LOOP = 20000


def main() -> int:
    print("ready", flush=True)
    samples = []
    while True:
        start = time.process_time()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        samples.append((time.monotonic(), time.process_time() - start))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
