"""The CSR neighbour-count kernel against the sparse product it replaced.

:meth:`repro.graphs.graph.CSRAdjacency.count_neighbors` sums neighbour
rows as lanes of unsigned words, so each case below targets one way that
can go wrong: widths that need padding (any T not filling whole words),
lanes at the edge of their dtype (degree 127 in int8, 128 and 255/256 in
int16), irregular degree plans, edgeless and one-vertex graphs,
non-contiguous inputs and row restrictions of every size.  The same
kernel sums int64 values (one uint64 word per cell), whose wraparound
must be exactly int64's.  The oracle is ``graph.adjacency @ x``.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import hypercube, random_regular
from repro.graphs.graph import Graph


def _complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


#: name -> (builder, expected count dtype, expected plan kind).
GRAPHS = {
    "random_regular(60, 4)": (lambda: random_regular(60, 4, rng=1), np.int8, "regular"),
    "hypercube(4)": (lambda: hypercube(4), np.int8, "regular"),
    "irregular(30)": (
        lambda: Graph(30, [(u, v) for u in range(30) for v in range(u + 1, 30)
                           if (u * 7 + v * 13) % 9 == 0]),
        np.int8, "general",
    ),
    "edgeless(5)": (lambda: Graph(5, []), np.int8, "regular"),
    "single(1)": (lambda: Graph(1, []), np.int8, "regular"),
    "complete(128)": (lambda: _complete(128), np.int8, "regular"),
    "complete(129)": (lambda: _complete(129), np.int16, "regular"),
    "complete(256)": (lambda: _complete(256), np.int16, "regular"),
    "complete(257)": (lambda: _complete(257), np.int16, "regular"),
    "star(127)": (lambda: _star(127), np.int8, "general"),
    "star(128)": (lambda: _star(128), np.int16, "general"),
    "star(255)": (lambda: _star(255), np.int16, "general"),
    "star(256)": (lambda: _star(256), np.int16, "general"),
}


@lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name][0]()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dtype_and_plan_at_the_edges(name):
    graph = _graph(name)
    _, dtype, kind = GRAPHS[name]
    assert graph.csr.count_dtype is dtype
    assert graph.csr.gather_plan()[0] == kind
    # Every neighbour set: each count is the degree, the lane's maximum.
    counts = graph.csr.count_neighbors(np.ones((graph.n, 9), dtype=bool))
    assert counts.dtype == dtype
    assert np.array_equal(counts, np.repeat(graph.degrees[:, None], 9, axis=1))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    n = _graph(name).n
    width = draw(st.one_of(st.none(), st.integers(1, 70)))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.97, 1.0]))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    rows = draw(st.sampled_from(["none", "empty", "one", "few", "half", "all"]))
    return name, n, width, seed, density, layout, rows


def _rows(kind, n, rng):
    if kind == "none":
        return None
    size = {"empty": 0, "one": 1, "few": max(1, n // 20), "half": n // 2,
            "all": n}[kind]
    # Unsorted and with repeats: the kernel must not assume either.
    return rng.integers(0, n, size=size) if kind != "all" else np.arange(n)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_cases())
def test_count_neighbors_matches_sparse_product(case):
    name, n, width, seed, density, layout, rows_kind = case
    graph = _graph(name)
    rng = np.random.default_rng(seed)
    shape = (n,) if width is None else (n, width)
    if layout == "strided":
        # Every other row and column of a wider matrix: not contiguous.
        wide = rng.random((2 * n, 2 * (width or 1))) < density
        x = wide[::2, ::2] if width is not None else wide[::2, 0]
    else:
        x = rng.random(shape) < density
        if layout == "fortran":
            x = np.asfortranarray(x)
    rows = _rows(rows_kind, n, rng)
    expect = graph.adjacency @ x.astype(np.int64)
    if rows is not None:
        expect = expect[rows]
    got = graph.csr.count_neighbors(x, rows)
    assert got.dtype == graph.csr.count_dtype
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)


@pytest.mark.parametrize(
    "name", ["random_regular(60, 4)", "complete(129)", "irregular(30)", "star(128)",
             "edgeless(5)"],
)
@pytest.mark.parametrize("width", [None, 1, 3, 8])
@pytest.mark.parametrize("rows_kind", ["none", "few", "all"])
def test_int64_value_sums_match_sparse_product(name, width, rows_kind):
    graph = _graph(name)
    n = graph.n
    rng = np.random.default_rng(width or 0)
    shape = (n,) if width is None else (n, width)
    # Small values of both signs, and values within 2^10 of ±2^62, whose
    # sums over a few neighbours wrap past ±2^63.
    small = rng.integers(-1000, 1000, size=shape)
    near = rng.choice([-(2**62), 2**62], size=shape) + rng.integers(-1024, 1024, size=shape)
    values = np.where(rng.random(shape) < 0.5, small, near).astype(np.int64)
    rows = _rows(rows_kind, n, rng)
    expect = graph.adjacency @ values
    # scipy's int64 product wraps; so does the uint64 matrix product.
    wrapped = graph.adjacency.toarray().astype(np.uint64) @ values.view(np.uint64)
    assert np.array_equal(expect, wrapped.view(np.int64))
    if rows is not None:
        expect = expect[rows]
    got = graph.csr.count_neighbors(values, rows)
    assert got.dtype == np.int64
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)


def test_count_neighbors_rejects_bad_input():
    csr = hypercube(3).csr
    with pytest.raises(ValueError, match="bool"):
        csr.count_neighbors(np.ones((8, 2), dtype=np.int8))
    with pytest.raises(ValueError, match="int64"):
        csr.count_neighbors(np.ones((8, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="n = 8"):
        csr.count_neighbors(np.ones((7, 2), dtype=bool))
    with pytest.raises(ValueError, match="bool"):
        csr.count_neighbors(np.ones((8, 2, 2), dtype=bool))


def _thinned_regular(n, d, drop, seed):
    """``random_regular(n, d)`` with a share ``drop`` of its edges removed:
    a near-regular graph on the general (irregular) gather plan."""
    graph = random_regular(n, d, rng=seed)
    csr = graph.csr
    rows = np.repeat(np.arange(n), csr.degrees)
    cols = csr.indices.astype(np.int64)
    edges = np.column_stack([rows, cols])[rows < cols]
    keep = np.random.default_rng(seed).random(len(edges)) >= drop
    return Graph(n, edges[keep])


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("rows_kind", ["none", "few", "all"])
def test_general_plan_word_folds_match_sparse_product(w, rows_kind):
    from repro.graphs.graph import _add_slot
    from repro.radio.bitset import _once_twice_slot, _or_slot, unpack_words

    graph = _thinned_regular(200, 8, 0.1, seed=w)
    csr = graph.csr
    assert csr.gather_plan()[0] == "general"
    rng = np.random.default_rng(w)
    rows = _rows(rows_kind, graph.n, rng)
    at = slice(None) if rows is None else rows
    # The add fold on int64 cells, one word each.
    values = rng.integers(-(2**40), 2**40, size=(graph.n, w))
    (acc,) = csr.fold_words(values.view(np.uint64), _add_slot, rows=rows)
    assert np.array_equal(acc.view(np.int64), (graph.adjacency @ values)[at])
    # The OR and once/twice folds on sparse trial bits.
    bits = rng.random((graph.n, 64 * w)) < 0.1
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    counts = (graph.adjacency @ bits.astype(np.int64))[at]
    (heard,) = csr.fold_words(words, _or_slot, rows=rows)
    once, twice = csr.fold_words(words, _once_twice_slot, planes=2, rows=rows)
    assert np.array_equal(unpack_words(heard, 64 * w), counts >= 1)
    assert np.array_equal(unpack_words(once, 64 * w), counts >= 1)
    assert np.array_equal(unpack_words(twice, 64 * w), counts >= 2)
