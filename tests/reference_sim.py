"""Reference simulators the vectorized engines are checked against.

Pure-Python loops written for clarity, not speed: each is the oracle a
kernel must match bit for bit.  Importable from any test module (pytest
puts this directory on ``sys.path`` for ``conftest.py``).
"""

import numpy as np


def step_naive(network, transmitting: np.ndarray) -> np.ndarray:
    """Pure-Python reference of the *classic* ``RadioNetwork.step`` (used by
    property tests; channel models are tested against it at p=0)."""
    transmitting = np.asarray(transmitting, dtype=bool)
    out = np.zeros(network.n, dtype=bool)
    for v in range(network.n):
        if transmitting[v]:
            continue
        hits = sum(1 for u in network.graph.neighbors(v) if transmitting[u])
        out[v] = hits == 1
    return out
