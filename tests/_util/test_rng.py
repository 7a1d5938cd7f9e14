"""Unit tests for the seeding helpers."""

import math
import warnings

import numpy as np
import pytest

from repro._util.rng import (
    _GOLDEN,
    _counter_bits,
    _key_round_hashes,
    _splitmix,
    _threshold_exact_without_final_shift,
    as_rng,
    counter_cell_coins,
    counter_coin_blocks,
    counter_coins,
    counter_uniforms,
    spawn_seeds,
)
from repro.radio.bitset import pack_bool_matrix, packed_counter_coins


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        gen = as_rng(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            as_rng("seed")


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(123, 10)
        b = spawn_seeds(123, 10)
        assert a == b
        assert len(set(a)) == 10

    def test_count_zero(self):
        assert spawn_seeds(0, 0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_independent_of_consumption_order(self):
        seeds = spawn_seeds(9, 4)
        streams = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(streams)) == 4


#: Both shortcut conditions at and around their edges, plus two
#: thresholds where the final xor-shift does matter.
SHORTCUT_THRESHOLDS = (
    1,
    2**16 - 1,
    2**16,
    2**16 + 1,
    3 * 2**16,
    2**31,
    math.ceil(0.3 * 2**32),
)


def _full_finalizer(z: np.ndarray) -> np.ndarray:
    return z ^ (z >> np.uint32(16))


class TestExactCoinShortcut:
    """Skipping murmur's final ``z ^= z >> 16`` is exact for thresholds
    that are multiples of 2^16 or at most 2^16 — the step keeps the top
    16 bits, and keeps ``z`` whole when they are zero."""

    def test_shortcut_condition(self):
        applies = {
            thr: _threshold_exact_without_final_shift(thr)
            for thr in SHORTCUT_THRESHOLDS
        }
        assert applies == {
            1: True,
            2**16 - 1: True,
            2**16: True,
            2**16 + 1: False,
            3 * 2**16: True,
            2**31: True,
            math.ceil(0.3 * 2**32): False,
        }

    @pytest.mark.parametrize("thr", SHORTCUT_THRESHOLDS)
    def test_comparison_unchanged_near_every_boundary(self, thr):
        # Pre-finalizer values straddling the threshold and every 2^16
        # boundary around it, plus a uniform sample.
        rng = np.random.default_rng(thr)
        near = np.arange(-3, 4, dtype=np.int64)
        hi = thr >> 16
        anchors = [thr, hi << 16, (hi + 1) << 16, thr & 0xFFFF]
        probes = np.concatenate(
            [(a + near) % 2**32 for a in anchors]
            + [rng.integers(0, 2**32, size=200_000, dtype=np.int64)]
        ).astype(np.uint32)
        skip = probes < np.uint32(thr)
        full = _full_finalizer(probes) < np.uint32(thr)
        if _threshold_exact_without_final_shift(thr):
            assert np.array_equal(skip, full)
        else:
            assert not np.array_equal(skip, full)

    @pytest.mark.parametrize("thr", SHORTCUT_THRESHOLDS)
    def test_counter_coins_match_the_full_hash(self, thr):
        keys = np.random.default_rng(5).integers(
            0, 2**64, size=7, dtype=np.uint64
        )
        p = thr / 2**32
        assert math.ceil(p * 2.0**32) == thr
        for round_index in (0, 3, 17):
            full = _counter_bits(keys, round_index, 300) < np.uint32(thr)
            assert np.array_equal(counter_coins(keys, round_index, 300, p), full)
            blocks = np.concatenate(
                [c for _, c in counter_coin_blocks(keys, round_index, 300, p, block=64)]
            )
            assert np.array_equal(blocks, full)
            assert np.array_equal(
                packed_counter_coins(keys, round_index, 300, p),
                pack_bool_matrix(full),
            )

    def test_counter_uniforms_keep_the_full_hash(self):
        keys = np.arange(1, 5, dtype=np.uint64)
        bits = _counter_bits(keys, 2, 50)
        shortcut = _counter_bits(keys, 2, 50, final_shift=False)
        assert np.array_equal(bits, _full_finalizer(shortcut))
        assert np.array_equal(
            counter_uniforms(keys, 2, 50), bits * 2.0**-32
        )


class TestCounterCellCoins:
    """The cell form hashes only the named ``(node, trial)`` cells and must
    agree with the full lattice there, on either side of the shortcut."""

    @pytest.mark.parametrize("thr", SHORTCUT_THRESHOLDS)
    def test_matches_the_lattice_at_each_cell(self, thr):
        gen = np.random.default_rng(thr)
        keys = gen.integers(0, 2**64, size=5, dtype=np.uint64)
        rows = gen.integers(0, 300, size=400)
        cols = gen.integers(0, 5, size=400)
        p = thr / 2**32
        for round_index in (0, 9):
            full = counter_coins(keys, round_index, 300, p)
            cells = counter_cell_coins(keys, round_index, 300, p, rows, cols)
            assert np.array_equal(cells, full[rows, cols])

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_probabilities(self, p):
        keys = np.arange(1, 4, dtype=np.uint64)
        cells = counter_cell_coins(keys, 2, 10, p, np.arange(6), np.arange(6) % 3)
        assert cells.dtype == bool
        assert np.array_equal(cells, np.full(6, p == 1.0))

    def test_no_cells(self):
        keys = np.arange(1, 4, dtype=np.uint64)
        empty = np.zeros(0, dtype=np.int64)
        assert counter_cell_coins(keys, 2, 10, 0.3, empty, empty).shape == (0,)


class TestKeyRoundHashes:
    """The key/round lane hashes wrap in 64 bits without a warning."""

    @staticmethod
    def _reference(keys, round_index):
        # The uint64 array formula, with overflow warnings silenced.
        with np.errstate(over="ignore"):
            ctr = np.full(1, round_index + 1, dtype=np.uint64) * _GOLDEN
            lanes = (_splitmix(keys + ctr) >> np.uint64(32)).astype(np.uint32)
        return lanes ^ (lanes >> np.uint32(16))

    @pytest.mark.parametrize("round_index", [0, 1, 17, 2**40, 2**63, 2**64 - 2])
    def test_wraps_silently_and_matches_the_array_formula(self, round_index):
        keys = np.array(
            [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _key_round_hashes(keys, round_index)
        assert got.dtype == np.uint32
        assert np.array_equal(got, self._reference(keys, round_index))
