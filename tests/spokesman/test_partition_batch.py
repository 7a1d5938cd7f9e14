"""Lockstep Procedure Partition: every batch entry equals the serial run.

The oracle is the per-neighbour serial loop ``procedure_partition`` ran
before the batch kernel existed (``oracles.serial_partition``);
:func:`procedure_partition_batch` must reproduce it field for field
(``s_uni``, ``s_tmp``, ``labels``, ``steps``) for every population of a
batch.
"""

import numpy as np
import pytest

from repro.graphs import BipartiteGraph, core_graph, random_bipartite
from repro.spokesman import (
    degree_class_members,
    procedure_partition,
    procedure_partition_batch,
    threshold_population,
)
from repro.spokesman.partition import EXCLUDED, MANY, PartitionState

from oracles import serial_partition  # sibling module; pytest adds this dir to sys.path


def assert_same_state(got: PartitionState, want: PartitionState) -> None:
    for field in ("s_uni", "s_tmp", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert got.steps == want.steps


def family_populations(gs: BipartiteGraph) -> list:
    """The partition family's populations on ``gs``: the threshold
    ladder, the degree classes (as index lists), and all non-isolated."""
    pops = [threshold_population(gs, t) for t in (1.5, 2.0, 3.0, 4.0, 8.0)]
    pops += [members for _, members in degree_class_members(gs, 2.0)]
    pops.append(None)
    return pops


def check_batch(gs: BipartiteGraph, populations) -> list[PartitionState]:
    states = procedure_partition_batch(gs, populations)
    assert len(states) == len(populations)
    for state, population in zip(states, populations):
        assert_same_state(state, serial_partition(gs, population))
    return states


@pytest.mark.parametrize("seed", range(16))
def test_random_bipartite_family(seed):
    gen = np.random.default_rng(4000 + seed)
    gs = random_bipartite(
        int(gen.integers(1, 30)),
        int(gen.integers(1, 40)),
        float(gen.uniform(0.05, 0.7)),
        rng=gen,
    )
    check_batch(gs, family_populations(gs))


@pytest.mark.parametrize("seed", range(8))
def test_random_populations(seed):
    gen = np.random.default_rng(4100 + seed)
    gs = random_bipartite(20, 30, 0.2, rng=gen)
    pops = [gen.random(gs.n_right) < gen.uniform(0.1, 0.9) for _ in range(6)]
    check_batch(gs, pops)


@pytest.mark.parametrize("s", [4, 8, 16, 32])
def test_core_graph_family(s):
    gs = core_graph(s)
    check_batch(gs, family_populations(gs))


def test_empty_batch(core8):
    assert procedure_partition_batch(core8, []) == []


def test_single_population_is_procedure_partition(core8):
    (state,) = check_batch(core8, [None])
    assert_same_state(procedure_partition(core8), state)


def test_duplicate_empty_and_isolated_populations():
    # Right vertices 3 and 4 are isolated.
    gs = BipartiteGraph(3, 5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    isolated = np.array([False, False, False, True, True])
    states = check_batch(
        gs, [None, None, [], isolated, np.zeros(5, dtype=bool), [0, 2], None]
    )
    assert_same_state(states[0], states[1])
    for empty in states[2:5]:
        assert empty.steps == 0
        assert not empty.s_uni.any()
        assert (empty.labels == EXCLUDED).all()


def test_index_list_and_mask_agree(tiny_bipartite):
    mask = np.array([True, False, True, True, False])
    by_mask, by_list = check_batch(tiny_bipartite, [mask, [0, 2, 3]])
    assert_same_state(by_mask, by_list)


def test_empty_left_side():
    gs = BipartiteGraph(0, 4, [])
    states = check_batch(gs, [None, [1, 2]])
    for state in states:
        assert state.s_uni.shape == (0,)
        assert state.steps == 0


def test_states_do_not_alias(core8):
    states = procedure_partition_batch(core8, [None, None, [0, 1, 2]])
    arrays = [
        getattr(state, field)
        for state in states
        for field in ("s_uni", "s_tmp", "labels")
    ]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    states[0].s_uni[:] = True
    states[0].labels[:] = MANY
    assert_same_state(states[1], serial_partition(core8))
