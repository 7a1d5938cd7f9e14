"""Packed-bitset kernels for the memory-lean broadcast engine.

The dense batch engine carries trial state as ``(n, T)`` bool matrices and
pays one sparse ``(n, T)`` integer product per round.  At datacenter scale
(``n = 10^5 .. 10^6``) that working set — and the scipy cast behind it —
dominates memory.  This module provides the word-packed alternative: trial
``t`` lives in bit ``t % 64`` of word column ``t // 64``, so transmit /
informed / received state is an ``(n, ceil(T/64))`` uint64 matrix, 8× the
trial density of a bool matrix, and reception is computed by *gathering
neighbour words over CSR* — no per-neighbour integer count matrix is ever
materialized.

Exactly-one detection uses the classic ``x & (x - 1)`` saturating-
accumulator trick in vectorized form: fold neighbour words into ``once``
(seen at least once) and ``twice`` (seen at least twice) via
``twice |= once & w; once |= w``; exactly-one is ``once & ~twice``.  The
fold iterates *degree slots* — slot ``k`` gathers the ``k``-th neighbour
of every vertex whose degree exceeds ``k`` (precomputed by
:meth:`repro.graphs.graph.CSRAdjacency.gather_plan`) — so the kernel runs
``max_degree`` vectorized gathers, not ``n`` Python loops.

Per-trial column counts (informed sizes, transmission energy) come from a
vectorized 64×64 bit transpose plus :func:`repro._util.popcount_u64`
(:func:`word_column_counts`), keeping per-round transients at ``O(n·W)``
words instead of an ``(n, T)`` unpack.

All functions are pure and layout-stable: ``pack_bool_matrix`` /
``unpack_words`` round-trip bit for bit on any platform (packing goes
through little-endian bytes explicitly).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import ceil_div, popcount_u64
from repro._util.dtypes import WORD_BITS, WORD_DTYPE
from repro._util.rng import _GOLDEN, _MURMUR_A, _MURMUR_B, _node_hashes, _splitmix

__all__ = [
    "TransmissionTally",
    "any_neighbor_words",
    "any_neighbor_words_at",
    "exactly_one_words",
    "full_mask_words",
    "neighbor_fold_words",
    "pack_bool_matrix",
    "packed_counter_coins",
    "scatter_neighbor_words",
    "unpack_words",
    "word_column_counts",
    "word_count",
]


def word_count(trials: int) -> int:
    """Words needed for ``trials`` trial bits: ``ceil(trials / 64)``
    (the :data:`repro._util.dtypes.WORD_BITS` layout)."""
    return ceil_div(int(trials), WORD_BITS)


def full_mask_words(trials: int) -> np.ndarray:
    """``(W,)`` uint64 with exactly the first ``trials`` bits set."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    w = word_count(trials)
    mask = np.full(w, WORD_DTYPE(0xFFFFFFFFFFFFFFFF), dtype=WORD_DTYPE)
    rem = trials % WORD_BITS
    if w and rem:
        mask[-1] = WORD_DTYPE((1 << rem) - 1)
    return mask


def pack_bool_matrix(mat: np.ndarray) -> np.ndarray:
    """Pack an ``(n, T)`` bool matrix into ``(n, ceil(T/64))`` uint64 words.

    Bit ``t % 64`` of word ``[v, t // 64]`` is ``mat[v, t]``; tail bits
    beyond ``T`` are zero.
    """
    mat = np.ascontiguousarray(mat, dtype=bool)
    if mat.ndim != 2:
        raise ValueError("expected an (n, T) bool matrix")
    n, trials = mat.shape
    w = word_count(trials)
    packed = np.packbits(mat, axis=1, bitorder="little")
    if packed.shape[1] != w * 8:
        packed = np.concatenate(
            [packed, np.zeros((n, w * 8 - packed.shape[1]), dtype=np.uint8)],
            axis=1,
        )
    # Little-endian byte view → native uint64 (no copy on LE platforms).
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64, copy=False)


def unpack_words(words: np.ndarray, trials: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`: ``(n, W)`` words → ``(n, trials)``
    bool."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("expected an (n, W) uint64 word matrix")
    n, w = words.shape
    if trials > w * 64:
        raise ValueError(f"cannot unpack {trials} trials from {w} words")
    as_bytes = words.astype("<u8", copy=False).view(np.uint8).reshape(n, w * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :trials].astype(bool)


# Hacker's Delight bit-matrix transpose, vectorized over leading axes: at
# step j the mask selects the bit positions i with (i & j) == 0, and word
# pairs (k, k+j) with (k & j) == 0 swap their off-diagonal j-blocks.
_TRANSPOSE_STEPS = [
    (np.uint64(_j), np.uint64(sum(1 << i for i in range(64) if not (i & _j))))
    for _j in (32, 16, 8, 4, 2, 1)
]


def _transpose64(blocks: np.ndarray) -> None:
    """In-place bit-transpose of each trailing 64-word block.

    ``blocks[..., i]`` holds row ``i`` of a 64×64 bit matrix; afterwards
    ``blocks[..., t]`` holds column ``t`` of the original.  ``blocks``
    must be contiguous: the word pairs ``(k, k + j)`` with ``(k & j) == 0``
    are addressed as reshape *views* ``(..., 64/(2j), 2, j)``, so the
    swaps run in place with no index arrays and no gather copies.
    """
    lead = blocks.shape[:-1]
    for j, mask in _TRANSPOSE_STEPS:
        step = int(j)
        v = blocks.reshape(lead + (64 // (2 * step), 2, step))
        a = v[..., 0, :]
        b = v[..., 1, :]
        # LSB-first mirror of the textbook (MSB-first) swap: exchange
        # (word k, bit i+j) with (word k+j, bit i) for (i & j) == 0.
        t = ((a >> j) ^ b) & mask
        a ^= t << j
        b ^= t


#: ``_BYTE_BIT_COUNTS[b, i]`` is bit ``i`` of byte value ``b`` — one
#: 256×8 table turns a byte-value histogram into per-bit set counts.
_BYTE_BIT_COUNTS = ((np.arange(256, dtype=np.int64)[:, None] >> np.arange(8)) & 1)

#: Row threshold above which the byte-histogram path beats the bit
#: transpose (histogram cost is O(n) per byte column with no padding or
#: transpose shuffles; below this the 256-bin bincounts dominate).
_BINCOUNT_MIN_ROWS = 2048


def word_column_counts(words: np.ndarray) -> np.ndarray:
    """Per-trial-bit set counts of an ``(n, W)`` word matrix.

    Returns a ``(64 * W,)`` int64 vector: entry ``64*w + t`` is the number
    of rows whose word ``w`` has bit ``t`` set — i.e. the per-trial column
    sum, without ever unpacking an ``(n, T)`` bool matrix.  Small inputs
    run a vectorized 64×64 bit transpose over ``ceil(n/64)`` row blocks
    followed by one :func:`repro._util.popcount_u64` pass; large inputs
    histogram each little-endian byte column and contract the histogram
    against the byte→bit table (same counts, no padding or transpose).
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("expected an (n, W) uint64 word matrix")
    n, w = words.shape
    if n == 0 or w == 0:
        return np.zeros(64 * w, dtype=np.int64)
    if n >= _BINCOUNT_MIN_ROWS:
        as_bytes = np.ascontiguousarray(
            words.astype("<u8", copy=False)
        ).view(np.uint8).reshape(n, w * 8)
        counts = np.empty((w * 8, 8), dtype=np.int64)
        for j in range(w * 8):
            counts[j] = np.bincount(as_bytes[:, j], minlength=256) @ _BYTE_BIT_COUNTS
        return counts.reshape(w * 64)
    blocks = ceil_div(n, 64)
    padded = np.zeros((blocks * 64, w), dtype=np.uint64)
    padded[:n] = words
    # arr[b, w, i] = word w of row 64b+i; transpose turns bit t into the
    # per-trial word whose bit i marks row 64b+i.
    arr = np.ascontiguousarray(padded.reshape(blocks, 64, w).transpose(0, 2, 1))
    _transpose64(arr)
    counts = popcount_u64(arr).sum(axis=0, dtype=np.int64)  # (w, 64)
    return counts.reshape(w * 64)


#: Node rows per murmur-finalizer chunk: the chunk's uint32 lattice and
#: its shift/multiply temporaries stay L2-resident across the six passes.
_COIN_ROW_BLOCK = 1024

#: Node rows per packbits super-block (a multiple of the hash chunk):
#: comparisons land in one reused bool buffer and the byte-packing /
#: word-store dispatch overhead is paid once per super-block, not once
#: per cache chunk.
_COIN_PACK_BLOCK = 8192


def packed_counter_coins(
    keys: np.ndarray,
    round_index: int,
    n: int,
    p: float,
    rows: np.ndarray | None = None,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Counter-based Bernoulli coins, packed: ``(n, ceil(T/64))`` words.

    Bit ``t`` of row ``v`` equals
    ``counter_coins(keys[t:t+1], round_index, n, p)[v]`` exactly — the
    packed face of the engine's counter-randomness discipline.  Rows are
    consumed in small chunks so no ``(n, T)`` transient is ever
    materialized.

    ``rows`` (int node ids) and ``active`` (bool ``(T,)`` trial mask)
    restrict which bits are computed; the rest stay zero.  Callers use
    them when the skipped bits are masked away anyway (only informed nodes
    transmit, completed trials are frozen) — the computed bits are
    unchanged, the hash being a pure function of ``(key, round, node)``.

    Implementation is the fused face of
    :func:`repro._util.rng.counter_coin_blocks`: the same murmur
    finalizer runs over L2-sized row chunks (sharing the private mixing
    primitives of :mod:`repro._util.rng` — drift between the two would
    break the dense/bitset bit-identity), comparisons land in a reused
    bool buffer, and byte-packing is amortized over
    :data:`_COIN_PACK_BLOCK`-row super-blocks.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    trials = keys.shape[0]
    w = word_count(trials)
    out = np.zeros((n, w), dtype=np.uint64)
    threshold = math.ceil(p * 2.0**32)
    if threshold <= 0 or n == 0 or trials == 0:
        return out
    cols = None
    act_keys = keys
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape != (trials,):
            raise ValueError(
                f"active mask has shape {active.shape} for {trials} trials"
            )
        if active.all():
            active = None
        else:
            cols = np.flatnonzero(active)
            act_keys = keys[cols]
            if cols.size == 0:
                return out
    if rows is not None:
        rows = np.asarray(rows)
        if rows.size == n:
            rows = None  # full node set: slices beat gathers
        elif rows.size == 0:
            return out
    count = n if rows is None else rows.size
    # Inactive trials' bit columns stay zero: comparisons only ever write
    # the active columns of the reused buffer.
    coins = np.zeros((min(_COIN_PACK_BLOCK, count), trials), dtype=bool)
    sure = threshold >= 2**32
    if sure:
        if cols is None:
            coins[:] = True
        else:
            coins[:, cols] = True
    else:
        thr = np.uint32(threshold)
        nh = _node_hashes(n)
        if rows is not None:
            nh = nh[rows]
        with np.errstate(over="ignore"):
            ctr = np.full(1, round_index + 1, dtype=np.uint64) * _GOLDEN
            kr = (_splitmix(act_keys + ctr) >> np.uint64(32)).astype(np.uint32)
        hbuf = np.empty(
            (min(_COIN_ROW_BLOCK, count), kr.shape[0]), dtype=np.uint32
        )
    for ps in range(0, count, _COIN_PACK_BLOCK):
        pm = min(_COIN_PACK_BLOCK, count - ps)
        if not sure:
            # Murmur passes wrap silently on arrays, so no errstate is
            # needed in the hot loop (matching counter_coin_blocks).
            for s in range(ps, ps + pm, _COIN_ROW_BLOCK):
                hi = min(s + _COIN_ROW_BLOCK, ps + pm)
                z = np.bitwise_xor(nh[s:hi], kr[None, :], out=hbuf[: hi - s])
                z ^= z >> np.uint32(16)
                z *= _MURMUR_A
                z ^= z >> np.uint32(13)
                z *= _MURMUR_B
                z ^= z >> np.uint32(16)
                if cols is None:
                    np.less(z, thr, out=coins[s - ps : hi - ps])
                else:
                    coins[s - ps : hi - ps, cols] = z < thr
        # Inlined pack_bool_matrix: the buffer is C-contiguous bool, so
        # the validation/copy branches would only add per-block overhead.
        # Same bit layout (little-endian bytes → uint64 words).
        pb = np.packbits(coins[:pm], axis=1, bitorder="little")
        if pb.shape[1] != w * 8:
            padded = np.zeros((pm, w * 8), dtype=np.uint8)
            padded[:, : pb.shape[1]] = pb
            pb = padded
        packed = pb.view("<u8")
        if rows is None:
            out[ps : ps + pm] = packed
        else:
            out[rows[ps : ps + pm]] = packed
    return out


class TransmissionTally:
    """Bit-sliced per-(node, trial) tallies over packed transmit rounds.

    Summing transmission energy per trial needs, per round, the column
    popcounts of the ``(n, W)`` transmit words — but only their *total*
    over the run is reported, so the per-round 64×64 transpose is wasted
    work.  This tally instead accumulates each round's words into binary
    counter planes (``planes[i]`` holds bit ``i`` of every ``(node,
    trial)`` cell's round count) with a vectorized ripple-carry add —
    three word ops per touched plane, and amortized O(1) planes touched
    per round since plane ``i`` only carries every ``2^i`` rounds.  The
    transpose/popcount reduction runs once per :meth:`drain` (every few
    dozen rounds, and at the end) over ``log2`` many planes instead of
    once per round.
    """

    def __init__(self) -> None:
        self._planes: list[np.ndarray] = []

    def add(self, words: np.ndarray) -> None:
        """Ripple-carry ``words`` (an ``(n, W)`` 0/1-bit layer) into the
        counter planes.  ``words`` itself is never mutated."""
        carry = words
        for plane in self._planes:
            nxt = plane & carry
            plane ^= carry
            carry = nxt
            if not carry.any():
                return
        if carry.any():
            self._planes.append(carry.copy() if carry is words else carry)

    def drain(self, trials: int) -> np.ndarray | None:
        """Per-trial totals accrued since the last drain (``(trials,)``
        int64), resetting the planes; ``None`` if nothing accrued."""
        if not self._planes:
            return None
        total = word_column_counts(self._planes[0])[:trials]
        for i, plane in enumerate(self._planes[1:], start=1):
            total = total + (word_column_counts(plane)[:trials] << np.int64(i))
        self._planes.clear()
        return total


def exactly_one_words(csr, transmit_words: np.ndarray) -> np.ndarray:
    """Per-vertex words marking trials with *exactly one* transmitting
    neighbour.

    ``csr`` is a :class:`repro.graphs.graph.CSRAdjacency`;
    ``transmit_words`` is the packed ``(n, W)`` transmit state.  Folds
    neighbour words through the ``once``/``twice`` saturating accumulators
    over the CSR gather plan — the bitset engine's reception kernel.
    """
    transmit_words = np.asarray(transmit_words, dtype=np.uint64)
    n, w = transmit_words.shape
    if n != csr.n:
        raise ValueError(f"word matrix has {n} rows for an {csr.n}-vertex graph")
    plan = csr.gather_plan()
    if plan[0] == "regular":
        slots = csr.take_slots()
        if w == 1:
            # Single-word batches (T ≤ 64) fold flat 1-D gathers — the
            # fancy-indexing fast path, ~2× the 2-D column gathers.
            flat = np.ascontiguousarray(transmit_words[:, 0])
            once = np.zeros(n, dtype=np.uint64)
            twice = np.zeros(n, dtype=np.uint64)
            buf = np.empty(n, dtype=np.uint64)
            tmp = np.empty(n, dtype=np.uint64)
            for k in range(slots.shape[0]):
                # take(out=, mode="clip") skips the allocation and bounds
                # branch of fancy indexing (plan indices are always valid,
                # so clip semantics never engage), and the explicit out=
                # accumulator ops keep the fold allocation-free.
                nbr_words = np.take(flat, slots[k], out=buf, mode="clip")
                np.bitwise_and(once, nbr_words, out=tmp)
                np.bitwise_or(twice, tmp, out=twice)
                np.bitwise_or(once, nbr_words, out=once)
            np.invert(twice, out=twice)
            np.bitwise_and(once, twice, out=twice)
            return twice[:, None]
        once = np.zeros((n, w), dtype=np.uint64)
        twice = np.zeros((n, w), dtype=np.uint64)
        buf = np.empty((n, w), dtype=np.uint64)
        tmp = np.empty((n, w), dtype=np.uint64)
        for k in range(slots.shape[0]):
            nbr_words = np.take(transmit_words, slots[k], axis=0, out=buf, mode="clip")
            np.bitwise_and(once, nbr_words, out=tmp)
            np.bitwise_or(twice, tmp, out=twice)
            np.bitwise_or(once, nbr_words, out=once)
    else:
        once = np.zeros((n, w), dtype=np.uint64)
        twice = np.zeros((n, w), dtype=np.uint64)
        _, order, starts, slot_counts = plan
        indices = csr.indices
        for k, m in enumerate(slot_counts):
            rows = order[:m]
            nbr = indices[starts[:m] + np.int64(k)]
            nbr_words = transmit_words[nbr]
            seen = once[rows]
            twice[rows] |= seen & nbr_words
            once[rows] = seen | nbr_words
    return once & ~twice


def neighbor_fold_words(
    csr, transmit_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(once, twice)`` saturating accumulators of the exactly-one
    fold, returned unreduced.

    Same gather plan and fold as :func:`exactly_one_words`, but both
    ``(n, W)`` planes come back: bit ``t`` of ``once[v]`` marks ≥ 1
    transmitting neighbour, of ``twice[v]`` ≥ 2 — so exactly-one is
    ``once & ~twice`` and the collision-victim mask is ``twice & ~tw``.
    Telemetry uses this to get reception *and* collision structure from
    one fold (the engine re-derives exactly-one from the pair, so the
    channel's own fold is skipped on telemetry rounds).
    """
    transmit_words = np.asarray(transmit_words, dtype=np.uint64)
    n, w = transmit_words.shape
    if n != csr.n:
        raise ValueError(f"word matrix has {n} rows for an {csr.n}-vertex graph")
    plan = csr.gather_plan()
    if plan[0] == "regular":
        slots = csr.take_slots()
        if w == 1:
            flat = np.ascontiguousarray(transmit_words[:, 0])
            once = np.zeros(n, dtype=np.uint64)
            twice = np.zeros(n, dtype=np.uint64)
            buf = np.empty(n, dtype=np.uint64)
            tmp = np.empty(n, dtype=np.uint64)
            for k in range(slots.shape[0]):
                nbr_words = np.take(flat, slots[k], out=buf, mode="clip")
                np.bitwise_and(once, nbr_words, out=tmp)
                np.bitwise_or(twice, tmp, out=twice)
                np.bitwise_or(once, nbr_words, out=once)
            return once[:, None], twice[:, None]
        once = np.zeros((n, w), dtype=np.uint64)
        twice = np.zeros((n, w), dtype=np.uint64)
        buf = np.empty((n, w), dtype=np.uint64)
        tmp = np.empty((n, w), dtype=np.uint64)
        for k in range(slots.shape[0]):
            nbr_words = np.take(
                transmit_words, slots[k], axis=0, out=buf, mode="clip"
            )
            np.bitwise_and(once, nbr_words, out=tmp)
            np.bitwise_or(twice, tmp, out=twice)
            np.bitwise_or(once, nbr_words, out=once)
        return once, twice
    once = np.zeros((n, w), dtype=np.uint64)
    twice = np.zeros((n, w), dtype=np.uint64)
    _, order, starts, slot_counts = plan
    indices = csr.indices
    for k, m in enumerate(slot_counts):
        rows = order[:m]
        nbr = indices[starts[:m] + np.int64(k)]
        nbr_words = transmit_words[nbr]
        seen = once[rows]
        twice[rows] |= seen & nbr_words
        once[rows] = seen | nbr_words
    return once, twice


def any_neighbor_words(csr, words: np.ndarray) -> np.ndarray:
    """Per-vertex OR over neighbour words: bit ``t`` of row ``v`` is set
    iff some neighbour of ``v`` has bit ``t`` set in ``words``.

    The packed face of ``(A @ x) > 0`` — a single OR-only fold over the
    CSR gather plan, one accumulator instead of the exactly-one pair.
    Telemetry uses it on the *received* words: a transmitter with no
    receiving neighbour is a wasted transmission.
    """
    words = np.asarray(words, dtype=np.uint64)
    n, w = words.shape
    if n != csr.n:
        raise ValueError(f"word matrix has {n} rows for an {csr.n}-vertex graph")
    plan = csr.gather_plan()
    if plan[0] == "regular":
        slots = csr.take_slots()
        if w == 1:
            flat = np.ascontiguousarray(words[:, 0])
            acc = np.zeros(n, dtype=np.uint64)
            buf = np.empty(n, dtype=np.uint64)
            for k in range(slots.shape[0]):
                nbr_words = np.take(flat, slots[k], out=buf, mode="clip")
                np.bitwise_or(acc, nbr_words, out=acc)
            return acc[:, None]
        acc = np.zeros((n, w), dtype=np.uint64)
        buf = np.empty((n, w), dtype=np.uint64)
        for k in range(slots.shape[0]):
            nbr_words = np.take(words, slots[k], axis=0, out=buf, mode="clip")
            np.bitwise_or(acc, nbr_words, out=acc)
        return acc
    acc = np.zeros((n, w), dtype=np.uint64)
    _, order, starts, slot_counts = plan
    indices = csr.indices
    for k, m in enumerate(slot_counts):
        rows = order[:m]
        nbr = indices[starts[:m] + np.int64(k)]
        acc[rows] |= words[nbr]
    return acc


def any_neighbor_words_at(csr, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`any_neighbor_words` evaluated only at the given rows.

    Returns the ``(len(rows), W)`` restriction of the neighbour OR — the
    telemetry fast path: wasted transmissions only need the fold at
    transmitter rows, and decay keeps those sparse in most rounds, so the
    gather touches ``d * len(rows)`` edges instead of all ``d * n``.
    Exact by construction (the restriction of the same fold), so callers
    may mix it freely with the full fold without changing any count.
    """
    words = np.asarray(words, dtype=np.uint64)
    rows = np.asarray(rows, dtype=np.intp)
    n, w = words.shape
    if n != csr.n:
        raise ValueError(f"word matrix has {n} rows for an {csr.n}-vertex graph")
    if rows.size == 0:
        return np.zeros((0, w), dtype=np.uint64)
    plan = csr.gather_plan()
    if plan[0] != "regular":
        # Irregular degree plans (chains, C⁺) only arise at small n where
        # the full fold is already cheap — restrict its output instead.
        return any_neighbor_words(csr, words)[rows]
    slots = plan[1][:, rows]
    return _or_reduce_slots(words, slots)


def _or_reduce_slots(words: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """OR-fold ``words`` over a ``(d, m)`` neighbour-id matrix."""
    w = words.shape[1]
    if slots.shape[0] == 0:
        return np.zeros((slots.shape[1], w), dtype=np.uint64)
    if w == 1:
        flat = np.ascontiguousarray(words[:, 0])
        acc = flat[slots[0]]
        buf = np.empty_like(acc)
        for k in range(1, slots.shape[0]):
            np.take(flat, slots[k], out=buf, mode="clip")
            np.bitwise_or(acc, buf, out=acc)
        return acc[:, None]
    acc = words[slots[0]]
    buf = np.empty_like(acc)
    for k in range(1, slots.shape[0]):
        np.take(words, slots[k], axis=0, out=buf, mode="clip")
        np.bitwise_or(acc, buf, out=acc)
    return acc


def scatter_neighbor_words(csr, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Push-side :func:`any_neighbor_words`: OR each listed row's word
    into all of that row's neighbours.

    ``rows`` must cover every nonzero row of ``words`` — then the result
    equals ``any_neighbor_words(csr, words)`` exactly (zero rows push
    nothing, and adjacency is symmetric, so pushing from the nonzero rows
    is the whole fold).  The scatter touches ``d * len(rows)`` edges, so
    it wins when the nonzero rows are scarce — the blast rounds, where
    nearly everyone transmits and nearly nobody receives.
    """
    words = np.asarray(words, dtype=np.uint64)
    rows = np.asarray(rows, dtype=np.intp)
    n, w = words.shape
    if n != csr.n:
        raise ValueError(f"word matrix has {n} rows for an {csr.n}-vertex graph")
    acc = np.zeros((n, w), dtype=np.uint64)
    if rows.size == 0:
        return acc
    plan = csr.gather_plan()
    if plan[0] != "regular":
        return any_neighbor_words(csr, words)
    nbrs = plan[1][:, rows]
    if w == 1:
        flat = acc[:, 0]
        np.bitwise_or.at(flat, nbrs.ravel(), np.broadcast_to(
            words[rows, 0], nbrs.shape
        ).ravel())
        return acc
    np.bitwise_or.at(acc, nbrs.reshape(-1), np.broadcast_to(
        words[rows], nbrs.shape + (w,)
    ).reshape(-1, w))
    return acc
