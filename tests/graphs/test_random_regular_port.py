"""``random_regular`` below the direct-sampler threshold ≡ networkx.

The small-n sampler is a numpy replay of ``nx.random_regular_graph``'s
pairing-with-repair loop on the same ``random.Random(seed)`` stream.
networkx is a dev-only dependency and serves here as the oracle: the
graph (edge set, CSR arrays and their dtypes) must match what the
networkx call draws for every seed.
"""

import numpy as np
import pytest

from repro._util import as_rng
from repro.graphs import Graph, random_regular
from repro.graphs import families

nx = pytest.importorskip("networkx")


def networkx_random_regular(n: int, d: int, seed: int) -> Graph:
    """What ``random_regular(n, d, rng=seed)`` returned when it called
    networkx directly."""
    nx_seed = int(as_rng(seed).integers(0, 2**32 - 1))
    g = nx.random_regular_graph(d, n, seed=nx_seed)
    return Graph(n, sorted((min(a, b), max(a, b)) for a, b in g.edges()))


SWEEP = (
    [(n, d, s) for n, d in [(10, 3), (20, 4), (40, 4), (64, 6)] for s in range(25)]
    + [(n, d, s) for n, d in [(8, 7), (6, 5), (4, 3), (9, 8)] for s in range(10)]
    + [(n, d, s) for n, d in [(200, 8), (256, 8)] for s in range(5)]
    + [(1000, 10, 0), (4096, 8, 0), (4096, 8, 1)]
)


@pytest.mark.parametrize("n,d,seed", SWEEP)
def test_port_matches_networkx(n, d, seed):
    port = random_regular(n, d, rng=seed)
    oracle = networkx_random_regular(n, d, seed)
    assert port == oracle
    for name in ("indptr", "indices"):
        mine, theirs = getattr(port._csr, name), getattr(oracle._csr, name)
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)
    assert (port.degrees == d).all()


def test_sweep_exercises_repair_and_restarts(monkeypatch):
    """The small dense cases must really take the repair and restart
    branches, or the sweep above would not cover them."""
    calls = {"attempts": 0, "passes": 0}
    real_try, real_suitable = families._try_pairing, families._suitable

    def counting_try(*args):
        calls["attempts"] += 1
        return real_try(*args)

    def counting_suitable(*args):
        calls["passes"] += 1
        return real_suitable(*args)

    monkeypatch.setattr(families, "_try_pairing", counting_try)
    monkeypatch.setattr(families, "_suitable", counting_suitable)
    for seed in range(25):
        random_regular(10, 3, rng=seed)
    assert calls["attempts"] > 25  # some _suitable failure restarted
    assert calls["passes"] > calls["attempts"]  # some pass left repairs


def test_suitable_matches_networkx_semantics():
    # One leftover node cannot pair with itself; two nodes whose edge
    # already exists cannot pair either.
    assert families._suitable(set(), {}, 5)
    assert not families._suitable(set(), {3: 2}, 5)
    assert not families._suitable({1 * 5 + 3}, {3: 1, 1: 1}, 5)
    assert families._suitable(set(), {3: 1, 1: 1}, 5)


@pytest.mark.parametrize("n,d", [(5, 3), (7, 1), (4, 4), (3, 5)])
def test_invalid_degree_raises(n, d):
    with pytest.raises(ValueError):
        random_regular(n, d, rng=0)
