"""Imports stay cold: scipy loads only where a run uses it.

Importing the package, the scenario layer, the service and the CLI, and
a packed (``engine=bitset``) or dense broadcast of a set workload, a
value workload (``aggregate``) or under jamming with edge events, load
no ``scipy.sparse``, ``scipy.optimize`` or ``networkx``: every CLI call
and every spawned service worker would pay their import time otherwise.
``mg_bound`` loads ``scipy.optimize`` for its numeric maximum.  Each
check runs in a fresh interpreter, since this test process has imported
them long before.
"""

import os
import subprocess
import sys
import textwrap

import repro

HEAVY = ("scipy.optimize", "scipy.sparse", "networkx")

PACKED = textwrap.dedent(
    """
    import sys

    import repro, repro.cli, repro.scenario, repro.service
    from repro.scenario import Scenario

    def loaded():
        return [m for m in sys.argv[1:] if m in sys.modules]

    print("import", loaded())
    result = Scenario.from_string(
        "random_regular(512, 8) | decay | erasure(0.05) | trials=8 | seed=0 "
        "| engine=bitset"
    ).run()
    assert result.completed.all()
    print("bitset", loaded())
    """
)

DENSE = textwrap.dedent(
    """
    import math
    import sys

    from repro.scenario import Scenario

    def loaded():
        return [m for m in sys.argv[1:] if m in sys.modules]

    result = Scenario.from_string(
        "random_regular(512, 8) | decay | erasure(0.05) | trials=8 | seed=0"
    ).run()
    assert result.completed.all()
    print("dense", loaded())
    result = Scenario.from_string(
        "random_regular(512, 8) | decay | aggregate(op=count) | trials=8 "
        "| seed=0"
    ).run()
    assert result.completed.all()
    print("aggregate", loaded())
    result = Scenario.from_string(
        "random_regular(512, 8) | decay | jamming(faults='down@1:0-1;up@3:0-1,2-9') "
        "| trials=8 | seed=0"
    ).run()
    assert result.completed.all()
    print("jamming", loaded())
    from repro.expansion import mg_bound

    value = mg_bound(8.0)
    assert math.isfinite(value) and value > 0
    print("mg_bound", loaded())
    """
)


def _run(script: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *HEAVY],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_imports_and_packed_run_load_no_scipy():
    assert _run(PACKED) == ["import []", "bitset []"]


def test_dense_set_value_and_jamming_runs_load_no_scipy():
    assert _run(DENSE) == [
        "dense []",
        "aggregate []",
        "jamming []",
        "mg_bound ['scipy.optimize', 'scipy.sparse']",
    ]
