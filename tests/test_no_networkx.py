"""The runtime runs without networkx.

``pyproject.toml`` lists only numpy and scipy as dependencies; networkx
is a dev-only test oracle.  This runs canonical scenarios and a store
round trip in a fresh interpreter where ``import networkx`` fails.
"""

import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["networkx"] = None  # any import of it now raises

    import numpy as np
    from repro.runtime import ResultStore
    from repro.scenario import Scenario

    small = Scenario.from_string("random_regular(256, 8) | decay | trials=4")
    service = Scenario.from_string(
        "random_regular(4096, 8) | decay | erasure(0.05) | gossip(k=4) "
        "| trials=16 | seed=0"
    )
    store = ResultStore(sys.argv[1], salt="no-networkx")
    for scenario in (small, service):
        result = scenario.run()
        key = store.scenario_key(scenario)
        store.put(key, result)
        back = store.get(key)
        assert np.array_equal(back.rounds, result.rounds)
        assert back.rounds.dtype == result.rounds.dtype
    print("ok")
    """
)


def test_scenarios_and_store_run_without_networkx(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
