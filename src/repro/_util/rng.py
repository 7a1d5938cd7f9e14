"""Seeding discipline for all randomized components.

Every randomized function in :mod:`repro` accepts an ``rng`` argument that is
either ``None`` (fresh entropy), an integer seed, or an existing
:class:`numpy.random.Generator`.  Centralizing the coercion keeps experiment
sweeps reproducible: the analysis harness spawns independent child seeds with
:func:`spawn_seeds` so that parallel arms of a sweep never share streams.

The batched simulation engine additionally needs *counter-based* randomness:
a protocol running ``T`` trials at once must produce, for trial ``t``, the
exact bit stream a standalone run seeded with trial ``t``'s seed would see —
otherwise batched and looped experiments are not comparable.  Stateful
generators cannot be vectorized across independent streams, so per-run
randomness is reduced to a pure function ``uniform(key, round, node)``
(:func:`counter_uniforms`, a splitmix64-style hash): one ``(n, T)`` array op
evaluates all trials' draws at once, and a single-trial run evaluating the
same function column-wise agrees bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; every run seeds here

__all__ = [
    "as_rng",
    "counter_cell_coins",
    "counter_coin_blocks",
    "counter_coins",
    "counter_uniforms",
    "derive_keys",
    "spawn_seeds",
]

RngLike = "np.random.Generator | int | None"


def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, or a ``Generator`` which is
        returned unchanged (so callers can thread one stream through a whole
        experiment).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed, or a numpy Generator; "
        f"got {type(rng).__name__}"
    )


def spawn_seeds(rng: np.random.Generator | int | None, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from ``rng``.

    Used by sweeps so that each (parameter point, repetition) pair owns a
    deterministic child stream regardless of evaluation order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    gen = as_rng(rng)
    return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]


# Splitmix64 constants (Steele–Lea–Flood) for the cheap per-(key, round)
# mixing, and the murmur3 32-bit finalizer for the (n, T) lane pass — 32-bit
# multiplies vectorize far better than 64-bit ones, and 32 bits of entropy
# per (node, round, trial) coin is ample for a simulation stream.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_GOLDEN32 = np.uint32(0x9E3779B9)
_MURMUR_A = np.uint32(0x85EBCA6B)
_MURMUR_B = np.uint32(0xC2B2AE35)
_INV_2_32 = np.float64(2.0**-32)
_MASK64 = (1 << 64) - 1


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


# Pre-mixed per-node lane hashes, keyed by n.  Round-invariant, so caching
# them halves the per-round mixing work of the batched hot path; a handful
# of distinct n values per process keeps this tiny.
_NODE_HASH_CACHE: dict[int, np.ndarray] = {}


def _node_hashes(n: int) -> np.ndarray:
    """``(n, 1)`` uint32 node lane hashes, murmur's first step applied.

    A lattice cell starts as ``node ^ key_round`` and the finalizer's
    first step is ``z ^= z >> 16``.  A right shift distributes over xor,
    so that step is the same step applied to each side before they meet —
    here once per ``n`` and in :func:`_key_round_hashes` once per ``(T,)``
    key vector — and the ``(rows, T)`` lattice skips it.
    """
    cached = _NODE_HASH_CACHE.get(n)
    if cached is None:
        with np.errstate(over="ignore"):
            mixed = _splitmix(np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN)
        lanes = (mixed >> np.uint64(32)).astype(np.uint32)
        cached = (lanes ^ (lanes >> np.uint32(16)))[:, None]
        _NODE_HASH_CACHE[n] = cached
    return cached


def _key_round_hashes(keys: np.ndarray, round_index: int) -> np.ndarray:
    """``(T,)`` uint32 key/round lane hashes, murmur's first step applied
    (the other half of :func:`_node_hashes`).  Mixed in 64 bits on the
    cheap ``(T,)`` side.  The counter product wraps in Python ints and
    the array ops wrap silently, so no errstate guard is needed."""
    ctr = np.uint64((round_index + 1) * int(_GOLDEN) & _MASK64)
    lanes = (_splitmix(keys + ctr) >> np.uint64(32)).astype(np.uint32)
    return lanes ^ (lanes >> np.uint32(16))


def _lattice_blocks(
    keys: np.ndarray,
    round_index: int,
    nh: np.ndarray,
    block: int,
    out: np.ndarray | None = None,
):
    """Yield ``(start, z)``: consecutive ``block``-row pieces of the
    ``(len(nh), T)`` hash lattice, finalized except for murmur's last
    ``z ^= z >> 16`` (:func:`_finish`).

    Each piece lands in the matching rows of ``out`` when given, else in
    one reused buffer (consume it before the next step).  It starts as a
    contiguous tiled key row xored with a broadcast node column — the
    other way round, broadcasting the short key row, costs a numpy inner
    loop per lattice row.  Array ufuncs wrap silently, so the passes need
    no errstate guard.
    """
    count = nh.shape[0]
    rows = min(block, count)
    tiled = np.tile(_key_round_hashes(keys, round_index), (rows, 1))
    tmp = np.empty_like(tiled)
    buf = np.empty_like(tiled) if out is None else None
    for s in range(0, count, block):
        m = min(block, count - s)
        dest = buf[:m] if out is None else out[s : s + m]
        z = np.bitwise_xor(tiled[:m], nh[s : s + m], out=dest)
        yield s, _murmur_passes(z, tmp[:m])


def _murmur_passes(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Murmur's middle passes, in place on seeded cells ``z`` (node hash
    xor key/round hash), with ``tmp`` a scratch array of ``z``'s shape.
    Shared by the lattice (:func:`_lattice_blocks`) and the cell form
    (:func:`counter_cell_coins`), so the two cannot drift."""
    z *= _MURMUR_A
    z ^= np.right_shift(z, np.uint32(13), out=tmp)
    z *= _MURMUR_B
    return z


def _finish(z: np.ndarray) -> np.ndarray:
    """Murmur's last step, in place (skippable for thresholds that pass
    :func:`_threshold_exact_without_final_shift`)."""
    z ^= z >> np.uint32(16)
    return z


def derive_keys(rngs) -> np.ndarray:
    """One 64-bit counter key per generator, as a ``(len(rngs),)`` uint64 array.

    Each key is a single ``integers`` draw from its generator, so a batch of
    generators seeded with :func:`spawn_seeds` children and a standalone
    generator seeded with one of those children derive identical keys —
    the anchor of the batched/looped bit-for-bit equivalence guarantee.
    """
    return np.array(
        [as_rng(g).integers(0, 2**64, dtype=np.uint64) for g in rngs],
        dtype=np.uint64,
    )


#: Row-block size (in lattice elements) for the murmur finalizer: small
#: enough that a block and its shift/multiply temporaries stay cache-
#: resident across the passes, which is ~3× faster than streaming the
#: whole ``(n, T)`` lattice through memory once per pass.  At 128 KiB of
#: uint32 the temporaries also stay under glibc's mmap threshold, so they
#: reuse heap memory instead of faulting in fresh pages on every call
#: (twice the size measured ~2.5× slower on ``(4096, 16)`` lattices).
_BLOCK_ELEMS = 1 << 15


def _threshold_exact_without_final_shift(threshold: int) -> bool:
    """Whether ``hash < threshold`` can skip murmur's last ``z ^= z >> 16``.

    That step leaves the top 16 bits of ``z`` unchanged, and leaves ``z``
    itself unchanged when they are zero.  So the comparison is the same
    before and after it when the threshold is a multiple of ``2^16`` (only
    the top bits decide) or at most ``2^16`` (both sides are below it only
    with zero top bits).  Decay's ``2^(32-i)`` thresholds always qualify.
    """
    return threshold <= 1 << 16 or threshold & 0xFFFF == 0


def _counter_bits(
    keys: np.ndarray,
    round_index: int,
    n: int,
    rows: np.ndarray | None = None,
    final_shift: bool = True,
) -> np.ndarray:
    """``(n, len(keys))`` uint32 hash lattice over (key, round, node).

    ``rows`` (an int array of node ids) restricts the node axis: the
    result is exactly the full lattice indexed at those rows — the hash is
    a pure elementwise function of ``(key, round, node)``, so a restricted
    evaluation is bit-identical to slicing the full one.
    ``final_shift=False`` omits the finalizer's last xor-shift, for
    threshold comparisons it cannot change
    (:func:`_threshold_exact_without_final_shift`).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    nh = _node_hashes(n)
    if rows is not None:
        nh = nh[np.asarray(rows)]
    out = np.empty((nh.shape[0], keys.shape[0]), dtype=np.uint32)
    # Key and round are mixed on the cheap (T,) side, nodes once per n
    # (cached); the only (rows, T) work is the row-blocked murmur3
    # finalizer in 32-bit lanes.
    block = max(1, _BLOCK_ELEMS // max(1, keys.shape[0]))
    for _, z in _lattice_blocks(keys, round_index, nh, block, out=out):
        if final_shift:
            _finish(z)
    return out


def counter_uniforms(
    keys: np.ndarray, round_index: int, n: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Uniform ``[0, 1)`` draws ``u[v, t] = hash(keys[t], round_index, v)``.

    Returns an ``(n, len(keys))`` float64 array.  Being a pure function of
    ``(key, round, node)``, the same entries come out whether a caller
    evaluates one trial (``len(keys) == 1``) or a whole batch — randomized
    protocols use this (via :func:`counter_coins`) for their per-round
    transmission coin flips.  ``rows`` restricts the node axis (see
    :func:`counter_coins`).
    """
    return _counter_bits(keys, round_index, n, rows) * _INV_2_32


def counter_coins(
    keys: np.ndarray,
    round_index: int,
    n: int,
    p: float,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Bernoulli(``p``) coins ``coin[v, t] = (uniform(v, t) < p)``.

    Equivalent to ``counter_uniforms(...) < p`` but compares the raw hash
    against an integer threshold, skipping the float conversion on the
    batched hot path.  ``rows`` (an int array of node ids) evaluates only
    those rows of the lattice, bit-identically to
    ``counter_coins(...)[rows]`` — callers that know which nodes matter
    (e.g. only informed nodes may transmit) skip the rest of the hash.
    """
    trials = np.asarray(keys).shape[0]
    count = n if rows is None else np.asarray(rows).shape[0]
    threshold = math.ceil(p * 2.0**32)
    if threshold >= 2**32:
        return np.ones((count, trials), dtype=bool)
    if threshold <= 0:
        return np.zeros((count, trials), dtype=bool)
    final_shift = not _threshold_exact_without_final_shift(threshold)
    bits = _counter_bits(keys, round_index, n, rows, final_shift)
    return bits < np.uint32(threshold)


def counter_cell_coins(
    keys: np.ndarray,
    round_index: int,
    n: int,
    p: float,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Bernoulli(``p``) coins at the lattice cells ``(rows[i], cols[i])``.

    Bit-identical to ``counter_coins(keys, round_index, n, p)[rows, cols]``
    but hashes only the named cells: a caller whose coins matter at a
    sparse set of (node, trial) cells (erasures of delivered messages)
    skips the rest of the ``(n, T)`` lattice.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    threshold = math.ceil(p * 2.0**32)
    if threshold >= 2**32 or threshold <= 0:
        return np.full(rows.shape, threshold >= 2**32, dtype=bool)
    keys = np.asarray(keys, dtype=np.uint64)
    z = _node_hashes(n).ravel()[rows] ^ _key_round_hashes(keys, round_index)[cols]
    _murmur_passes(z, np.empty_like(z))
    if not _threshold_exact_without_final_shift(threshold):
        _finish(z)
    return z < np.uint32(threshold)


def counter_coin_blocks(
    keys: np.ndarray,
    round_index: int,
    n: int,
    p: float,
    rows: np.ndarray | None = None,
    block: int = 2048,
):
    """Yield ``(start, coins)`` row-chunks of :func:`counter_coins`.

    Equivalent to slicing ``counter_coins(keys, round_index, n, p, rows)``
    into consecutive ``block``-row pieces (``start`` indexes into the
    restricted row list), but the per-chunk invariants — the key/round
    mixing and the node-hash gather — are hoisted out of the loop, the
    murmur passes run in one reused cache-resident buffer, and no
    full-size lattice is ever materialized.  This is the coin source of
    the packed engine (:func:`repro.radio.bitset.packed_counter_coins`),
    which packs each chunk straight into words.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    trials = keys.shape[0]
    nh = _node_hashes(n)
    if rows is not None:
        nh = nh[np.asarray(rows)]
    count = nh.shape[0]
    threshold = math.ceil(p * 2.0**32)
    if threshold >= 2**32 or threshold <= 0:
        template = np.full(
            (min(block, count), trials), threshold >= 2**32, dtype=bool
        )
        for s in range(0, count, block):
            yield s, template[: min(block, count - s)]
        return
    thr = np.uint32(threshold)
    final_shift = not _threshold_exact_without_final_shift(threshold)
    for s, z in _lattice_blocks(keys, round_index, nh, block):
        yield s, (_finish(z) if final_shift else z) < thr
