"""Packed-bitset kernels for the memory-lean broadcast engine.

The dense batch engine carries trial state as ``(n, T)`` bool matrices and
pays one ``(n, T)`` integer neighbour count per round.  At datacenter scale
(``n = 10^5 .. 10^6``) that working set dominates memory.  This module
provides the word-packed alternative: trial ``t`` lives in bit ``t % 64``
of word column ``t // 64``, so transmit / informed / received state is an
``(n, ceil(T/64))`` uint64 matrix, 8× the trial density of a bool matrix,
and reception is computed by *gathering neighbour words over CSR* — no
per-neighbour integer count matrix is ever materialized.

Every neighbour fold here is one per-slot update on the CSR slot walk
(:meth:`repro.graphs.graph.CSRAdjacency.fold_words`): slot ``k`` gathers
the ``k``-th neighbour's words of every vertex whose degree exceeds
``k``, so a fold runs ``max_degree`` vectorized gathers, not ``n`` Python
loops.  Exactly-one detection uses the classic ``x & (x - 1)``
saturating-accumulator trick in vectorized form: fold neighbour words
into ``once`` (seen at least once) and ``twice`` (seen at least twice)
via ``twice |= once & w; once |= w``; exactly-one is ``once & ~twice``.
The neighbour OR is the one-accumulator fold ``acc |= w``.  Both folds
also run on the CSR push walk
(:meth:`~repro.graphs.graph.CSRAdjacency.push_words`), which scatters
the few nonzero rows' words instead of pulling every row's: decay's tail
rounds, where few rows transmit, push the exactly-one fold.

Per-trial column counts (informed sizes, transmission energy, telemetry)
come from SWAR lane sums across rows (:func:`word_column_counts`),
keeping per-round transients at ``O(n·W)`` words instead of an ``(n, T)``
unpack.

All functions are pure and layout-stable: ``pack_bool_matrix`` /
``unpack_words`` round-trip bit for bit on any platform (packing goes
through little-endian bytes explicitly).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import ceil_div
from repro._util.dtypes import WORD_BITS, WORD_DTYPE
from repro._util.rng import (
    _finish,
    _lattice_blocks,
    _node_hashes,
    _threshold_exact_without_final_shift,
)

__all__ = [
    "FirstInformedPlanes",
    "any_neighbor_words",
    "exactly_one_words",
    "full_mask_words",
    "neighbor_fold_words",
    "neighbor_or_at",
    "pack_bool_matrix",
    "packed_counter_coins",
    "row_flags",
    "scatter_neighbor_words",
    "sparse_column_counts",
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


#: One bit per 4-bit lane, and the low nibble of every byte.
_NIBBLE_LANES = np.uint64(0x1111111111111111)
_BYTE_LANES = np.uint64(0x0F0F0F0F0F0F0F0F)

#: Below this many rows the counts come from a plain unpack and sum.
_LANE_SUM_MIN_ROWS = 64


def word_column_counts(words: np.ndarray) -> np.ndarray:
    """Per-trial-bit set counts of an ``(n, W)`` word matrix.

    Returns a ``(64 * W,)`` int64 vector: entry ``64*w + t`` is the number
    of rows whose word ``w`` has bit ``t`` set — i.e. the per-trial column
    sum, without ever unpacking an ``(n, T)`` bool matrix.

    The sums run in SWAR lanes.  For each shift ``s < 4``,
    ``(x >> s) & 0x1111...`` puts bit ``4q + s`` of a word in the low bit
    of its 4-bit lane ``q``; summing 15 such words cannot carry out of a
    lane, so one vectorized row sum counts 16 bit positions at once.  The
    nibble lanes are then split into even and odd bytes and summed 17
    words at a time (at most 255 per byte) before the final int64 byte
    sums.  Rows are grouped arbitrarily — sums commute — so every grouping
    is a reshape view: about a dozen streaming passes over the input and
    no transpose.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("expected an (n, W) uint64 word matrix")
    n, w = words.shape
    if n < _LANE_SUM_MIN_ROWS or w == 0:
        return unpack_words(words, 64 * w).sum(axis=0, dtype=np.int64)
    words = np.ascontiguousarray(words)
    body_rows = n - n % 15
    m = body_rows // 15
    # Flattened (rows, W) trailing axes: the passes are elementwise, and
    # 2-D reductions run faster than 3-D ones.
    body = words[:body_rows].reshape(15, m * w)
    nibbles = np.empty((4, m * w), dtype=np.uint64)
    lane = np.empty_like(body)
    for s in range(4):
        if s:
            np.right_shift(body, np.uint64(s), out=lane)
            lane &= _NIBBLE_LANES
        else:
            np.bitwise_and(body, _NIBBLE_LANES, out=lane)
        np.add.reduce(lane, axis=0, out=nibbles[s])
    nibbles = nibbles.reshape(4, m, w)
    # byte_lanes[h, s]: byte k of each word counts bit 8k + 4h + s.
    byte_lanes = np.empty((2, 4, m, w), dtype=np.uint64)
    np.bitwise_and(nibbles, _BYTE_LANES, out=byte_lanes[0])
    np.right_shift(nibbles, np.uint64(4), out=byte_lanes[1])
    byte_lanes[1] &= _BYTE_LANES
    whole = m - m % 17
    parts = (
        byte_lanes[:, :, :whole].reshape(2, 4, 17, -1, w).sum(axis=2),
        byte_lanes[:, :, whole:],
    )
    counts = np.zeros((2, 4, w, 8), dtype=np.int64)
    for part in parts:
        as_bytes = part.astype("<u8", copy=False).view(np.uint8)
        counts += as_bytes.reshape(2, 4, -1, w, 8).sum(axis=2, dtype=np.int64)
    # counts[h, s, w, k] -> bit 8k + 4h + s of word column w.
    out = counts.transpose(2, 3, 0, 1).reshape(w, 64)
    if body_rows < n:
        out = out + unpack_words(words[body_rows:], 64 * w).sum(axis=0).reshape(w, 64)
    return out.reshape(64 * w)


def row_flags(words: np.ndarray) -> np.ndarray:
    """``(n,)`` bool: which rows of an ``(n, W)`` word matrix carry any
    bit (a bool vector, so ``np.flatnonzero`` on it takes numpy's fast
    path).  Word columns are ORed first: ``any(axis=1)`` over a short row
    runs ~14× slower at ``W = 2``."""
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=bool)
    acc = words[:, 0]
    for j in range(1, words.shape[1]):
        acc = acc | words[:, j]
    return acc != 0


def sparse_column_counts(
    words: np.ndarray, trials: int, flags: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """:func:`word_column_counts` truncated to ``trials``, plus the number
    of nonzero rows.

    One SIMD probe counts the nonzero rows (``flags``, if the caller
    already has :func:`row_flags`); when fewer than a quarter of the rows
    carry any bit, only those are gathered and counted (all-zero rows add
    nothing to any column), otherwise the whole matrix is counted in
    place.  The row count comes back so callers can pick their next kernel
    by the same measured density.
    """
    if flags is None:
        flags = row_flags(words)
    nnz = int(np.count_nonzero(flags))
    if nnz == 0:
        return np.zeros(trials, dtype=np.int64), 0
    if 4 * nnz < words.shape[0]:
        words = words[np.flatnonzero(flags)]
    return word_column_counts(words)[:trials], nnz


#: Per-row cost of the restricted neighbour kernels relative to a full
#: pull, measured on 16-regular graphs at ``n = 10^4`` and ``10^5``
#: (DESIGN.md, "Bitset engine"): the full pull streams every slot, a pull
#: at chosen rows first takes their slot columns, and a push (the CSR
#: push walk) scatters its rows' edges in layers.  The push cost is the
#: crossover of both the exactly-one fold and the neighbour OR: they push
#: when the pushed rows are under ``n / _PUSH_COST``.
_PULL_AT_COST = 5
_PUSH_COST = 12

#: Node rows per first-informed decode block: bounds the unpacked
#: ``(rows, T)`` transients however large ``n`` is.
_DECODE_ROW_BLOCK = 2048


class FirstInformedPlanes:
    """First-informed rounds of every ``(node, trial)`` cell, bit-sliced.

    Plane ``b`` is an ``(n, W)`` word matrix holding bit ``b`` of each
    cell's first-informed round.  A cell is informed exactly once, so
    :meth:`record` only ORs the round's fresh words into the planes of the
    round number's set bits — a few streaming word ops per round, instead
    of unpacking the fresh bits and scattering them into an ``(n, T)``
    int64 matrix.  :meth:`decode` builds that matrix once at the end.
    """

    def __init__(self, n: int, words: int) -> None:
        self._shape = (int(n), int(words))
        self._planes: list[np.ndarray] = []

    def record(self, fresh: np.ndarray, round_index: int) -> None:
        """Mark the set bits of ``fresh`` as first informed in
        ``round_index`` (each bit must be recorded at most once)."""
        for b in range(int(round_index).bit_length()):
            if b == len(self._planes):
                self._planes.append(np.zeros(self._shape, dtype=np.uint64))
            if round_index >> b & 1:
                self._planes[b] |= fresh

    def decode(self, informed_words: np.ndarray, trials: int) -> np.ndarray:
        """The ``(n, trials)`` int64 first-informed matrix: the recorded
        round, ``0`` for cells informed but never recorded (the initial
        ones), ``-1`` for cells never informed.  Decoded in row blocks, so
        no transient beyond one block's ``(rows, trials)`` is allocated.

        The planes are shifted and ORed in the narrowest unsigned lane
        that holds ``2^planes - 1`` (uint8 for rounds below 256: an eighth
        of int64's bytes per pass), then cast once into the int64 block."""
        n = self._shape[0]
        out = np.empty((n, trials), dtype=np.int64)
        lane = np.min_scalar_type((1 << len(self._planes)) - 1)
        acc_buf = np.empty((min(n, _DECODE_ROW_BLOCK), trials), dtype=lane)
        shifted = np.empty_like(acc_buf)
        for s in range(0, n, _DECODE_ROW_BLOCK):
            hi = min(s + _DECODE_ROW_BLOCK, n)
            acc, buf = acc_buf[: hi - s], shifted[: hi - s]
            acc.fill(0)
            for b, plane in enumerate(self._planes):
                bits = _unpack_bits(plane[s:hi], trials)
                np.left_shift(bits, b, out=buf, dtype=lane)
                acc |= buf
            block = out[s:hi]
            block[...] = acc
            block[_unpack_bits(informed_words[s:hi], trials) == 0] = -1
        return out


def _unpack_bits(words: np.ndarray, trials: int) -> np.ndarray:
    """``(rows, trials)`` uint8 0/1 view of packed words (the
    :func:`unpack_words` layout without the bool cast)."""
    rows, w = words.shape
    as_bytes = np.ascontiguousarray(words).astype("<u8", copy=False)
    bits = np.unpackbits(
        as_bytes.view(np.uint8).reshape(rows, w * 8), axis=1, bitorder="little"
    )
    return bits[:, :trials]


#: Node rows per murmur-finalizer chunk: the chunk's uint32 lattice and
#: its shift/multiply temporaries stay L2-resident across the passes.
_COIN_ROW_BLOCK = 1024

#: Node rows per packing super-block (a multiple of the hash chunk):
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

    The hash comes from the row-blocked lattice generator that
    :func:`repro._util.rng.counter_coins` also uses — one implementation,
    so the dense and packed engines cannot drift apart — with the same
    exact final-step shortcut, over the running trials' keys only; the
    bits are packed by :func:`_pack_coin_rows`.  At ``p = 1`` no hash is
    needed: every computed row is the running mask.
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
    dest = out if rows is None else np.empty((rows.size, w), dtype=np.uint64)
    if threshold >= 2**32:
        # Every computed bit is set: each row is the running mask.
        dest[:] = (
            full_mask_words(trials) if active is None
            else pack_bool_matrix(active[None, :])[0]
        )
    else:
        _pack_coin_rows(act_keys, round_index, n, threshold, rows, cols, dest)
    if rows is not None:
        out[rows] = dest
    return out


def _pack_coin_rows(keys, round_index, n, threshold, rows, cols, dest) -> None:
    """The hashed half of :func:`packed_counter_coins`: write the coins of
    ``keys`` (the running trials', at trial columns ``cols``, or all of
    them for ``None``) at node ``rows`` into the ``(len(rows), W)`` words
    ``dest``.

    Comparisons of each :data:`_COIN_PACK_BLOCK`-row super-block land in
    one reused bool buffer whose rows are padded to whole bytes, which
    packs as one flat bit stream (a row-wise ``packbits`` costs ~3.5× as
    much).  At full width the buffer rows are padded to whole words, so
    the stream *is* the words.  With trials retired it holds the compact
    running-width lattice instead, and each packed byte is deposited at
    its trials' bit positions through a 256-entry table
    (:func:`_deposit_tables`): one ``take`` and one OR per byte, where a
    fancy column write into a full-width buffer costs ~4× as much.
    """
    count = dest.shape[0]
    if cols is None:
        width = dest.shape[1] * WORD_BITS
    else:
        width = 8 * ceil_div(keys.shape[0], 8)
        if keys.shape[0] > 1:
            # Running lanes padded to whole bytes with repeats of their
            # keys: a compare into a strided row costs ~5 ns a row more
            # than hashing the pad lanes, and the deposit tables drop
            # their bits.  One lane is a strided column, numpy's fast
            # path.
            keys = np.resize(keys, width)
        tables = _deposit_tables(cols, dest.shape[1])
        spare = np.empty_like(dest[: min(_COIN_PACK_BLOCK, count)])
    k = keys.shape[0]
    # At full width the pad lanes past the T trials stay zero: comparisons
    # only ever write the first T columns of the reused buffer.
    coins = np.zeros((min(_COIN_PACK_BLOCK, count), width), dtype=bool)
    lanes = coins[:, :k]
    thr = np.uint32(threshold)
    final_shift = not _threshold_exact_without_final_shift(threshold)
    nh = _node_hashes(n)
    if rows is not None:
        nh = nh[rows]
    # A hash chunk holds about as many cells as _COIN_ROW_BLOCK rows at
    # full 64-trial width: a few running trials take longer chunks, so
    # the per-chunk dispatch stays amortised.  Chunks tile the pack block
    # exactly (its size is a power-of-two multiple of theirs).
    chunk = _COIN_ROW_BLOCK
    while chunk < _COIN_PACK_BLOCK and 2 * chunk * k <= _COIN_ROW_BLOCK * WORD_BITS:
        chunk *= 2
    blocks = _lattice_blocks(keys, round_index, nh, chunk)
    for ps in range(0, count, _COIN_PACK_BLOCK):
        pm = min(_COIN_PACK_BLOCK, count - ps)
        for s in range(ps, ps + pm, chunk):
            _, z = next(blocks)
            if final_shift:
                _finish(z)
            np.less(z, thr, out=lanes[s - ps : s - ps + z.shape[0]])
        # Row v's bytes in the flat stream are its lanes, little-endian
        # (the pack_bool_matrix layout).
        packed = np.packbits(coins[:pm], bitorder="little")
        block = dest[ps : ps + pm]
        if cols is None:
            block[:] = packed.view("<u8").reshape(pm, -1)
            continue
        packed = packed.reshape(pm, -1)
        tmp = spare[:pm]
        tables[0].take(packed[:, 0], 0, block, "clip")
        for j in range(1, packed.shape[1]):
            tables[j].take(packed[:, j], 0, tmp, "clip")
            block |= tmp


def _deposit_tables(cols: np.ndarray, words: int) -> np.ndarray:
    """``(ceil(len(cols) / 8), 256, words)`` uint64 deposit tables:
    ``tables[j, b]`` is the word row with bit ``cols[8j + i]`` set for
    every set bit ``i`` of byte value ``b`` — compact byte ``j`` of a
    packed running-width row, moved to its trials' bit positions.  Built
    by doubling: the entries for ``[2^i, 2^(i+1))`` are the first
    ``2^i`` with bit ``i``'s word ORed in."""
    kb = ceil_div(cols.size, 8)
    single = np.zeros((kb * 8, words), dtype=np.uint64)
    single[np.arange(cols.size), cols // WORD_BITS] = np.left_shift(
        np.uint64(1), (cols % WORD_BITS).astype(np.uint64)
    )
    single = single.reshape(kb, 8, words)
    tables = np.zeros((kb, 256, words), dtype=np.uint64)
    for i in range(8):
        np.bitwise_or(
            tables[:, : 1 << i], single[:, i, None], out=tables[:, 1 << i : 2 << i]
        )
    return tables


def exactly_one_words(csr, transmit_words: np.ndarray) -> np.ndarray:
    """Per-vertex words marking trials with *exactly one* transmitting
    neighbour.

    ``csr`` is a :class:`repro.graphs.graph.CSRAdjacency`;
    ``transmit_words`` is the packed ``(n, W)`` transmit state.  Folds
    neighbour words through the ``once``/``twice`` saturating accumulators
    (:func:`neighbor_fold_words`) and returns ``once & ~twice`` — the
    bitset engine's reception kernel.
    """
    once, twice = neighbor_fold_words(csr, transmit_words)
    np.invert(twice, out=twice)
    twice &= once
    return twice


def neighbor_fold_words(
    csr, transmit_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(once, twice)`` saturating accumulators of the exactly-one
    fold.

    Both ``(n, W)`` planes come back: bit ``t`` of ``once[v]`` marks ≥ 1
    transmitting neighbour, of ``twice[v]`` ≥ 2 — so exactly-one is
    ``once & ~twice`` and the collision-victim mask is ``twice & ~tw``.
    Telemetry uses the pair to get reception *and* collision structure
    from one fold.  The first value folded into a row *is* ``once`` and
    the second seeds ``twice``, so only later ones pay the full
    ``twice |= once & w; once |= w`` update.

    The fold is pushed from the transmitting rows when they are fewer than
    ``n / _PUSH_COST`` (decay's tail rounds), and pulled over every row
    otherwise; both give the same planes.
    """
    words = np.asarray(transmit_words, dtype=np.uint64)
    flags = row_flags(words)
    if _PUSH_COST * np.count_nonzero(flags) < csr.n:
        once, twice = csr.push_words(
            words, _once_twice_slot, np.flatnonzero(flags), planes=2
        )
    else:
        once, twice = csr.fold_words(words, _once_twice_slot, planes=2)
    return once, twice


def _once_twice_slot(k, accs, got, spare) -> None:
    once, twice = accs
    if k == 1:
        np.bitwise_and(once, got, out=twice)
    else:
        np.bitwise_and(once, got, out=spare)
        twice |= spare
    once |= got


def any_neighbor_words(
    csr, words: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per-vertex OR over neighbour words: bit ``t`` of row ``v`` is set
    iff some neighbour of ``v`` has bit ``t`` set in ``words``.

    The packed face of ``(A @ x) > 0`` — the OR fold of the CSR slot
    walk, one accumulator instead of the exactly-one pair — at ``rows``
    only when given (``(len(rows), W)``).  Telemetry uses it on the
    *received* words: a transmitter with no receiving neighbour is a
    wasted transmission, so the fold is only needed at transmitter rows,
    which decay keeps sparse in most rounds.
    """
    (acc,) = csr.fold_words(np.asarray(words, dtype=np.uint64), _or_slot, rows=rows)
    return acc


def _or_slot(k, accs, got, spare) -> None:
    accs[0] |= got


def scatter_neighbor_words(csr, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Push-side :func:`any_neighbor_words`: OR each listed row's word
    into all of that row's neighbours — the OR fold of the CSR push walk
    (:meth:`repro.graphs.graph.CSRAdjacency.push_words`).

    ``rows`` must cover every nonzero row of ``words`` — then the result
    equals ``any_neighbor_words(csr, words)`` exactly (zero rows push
    nothing, and adjacency is symmetric, so pushing from the nonzero rows
    is the whole fold).  The walk touches the edges of ``rows`` only, so
    it wins when the nonzero rows are scarce — the blast rounds, where
    nearly everyone transmits and nearly nobody receives.
    """
    (acc,) = csr.push_words(np.asarray(words, dtype=np.uint64), _or_slot, rows)
    return acc


def neighbor_or_at(
    csr, words: np.ndarray, rows: np.ndarray | None, source_rows: np.ndarray
) -> np.ndarray:
    """``any_neighbor_words(csr, words)[rows]`` by the cheapest kernel
    (``rows=None``: all rows, unindexed).

    ``source_rows`` must cover every nonzero row of ``words``.  Three
    kernels compute the same OR: a full pull over all ``n`` rows, a pull
    at ``rows`` only (:func:`any_neighbor_words` with ``rows``), and a
    push from ``source_rows`` (:func:`scatter_neighbor_words`).  Each
    touches the edges of the rows it walks, so the choice is the smallest
    of ``n``, ``len(rows)`` and ``len(source_rows)`` weighted by the
    kernels' measured per-edge costs.
    """
    n = csr.n
    pull_at = n if rows is None else _PULL_AT_COST * rows.size
    if _PUSH_COST * source_rows.size < min(n, pull_at):
        heard = scatter_neighbor_words(csr, words, source_rows)
    elif pull_at < n:
        return any_neighbor_words(csr, words, rows)
    else:
        heard = any_neighbor_words(csr, words)
    return heard if rows is None else heard[rows]
