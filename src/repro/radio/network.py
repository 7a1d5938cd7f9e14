"""Synchronous radio network with pluggable channel semantics.

A radio network is an undirected multihop network of processors operating in
synchronous rounds.  Per round each processor either transmits or stays
silent; what a silent processor *hears* is decided by the network's
:class:`~repro.radio.channel.ChannelModel`.  The default,
:class:`~repro.radio.channel.ClassicCollision`, is the paper's Section 1.1
model: a processor receives iff it stays silent and **exactly one** of its
neighbours transmits — collisions (≥ 2 transmitting neighbours) are
indistinguishable from silence.  Other channels add collision-detection
feedback, i.i.d. erasures, or adversarial jamming/crash/link faults (see
:mod:`repro.radio.channel`).

The classic round step is one neighbour count over the graph's CSR:
``counts = A @ transmit``; ``received = (counts == 1) & ~transmit`` — so
simulating a round of an ``n``-vertex network costs ``O(m)`` regardless of
protocol complexity.  The count, the value workloads' int64 sums and the
bitset engine's word folds are one numpy slot walk over that CSR
(:meth:`repro.graphs.graph.CSRAdjacency.fold_words`), with no sparse
matrix library behind it.

The step also accepts an ``(n, T)`` transmit *matrix*: column ``t`` is an
independent trial, and one count advances all ``T`` trials at once.  This
is the kernel the batched broadcast engine
(:func:`repro.radio.broadcast.run_broadcast_batch`) builds on — amortizing
the Python and indexing overhead across trials is where the
order-of-magnitude multi-trial speedup comes from.  ``rows`` restricts a
step to the listed receivers: the engine folds only the rows still
unsatisfied in some running trial.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.radio.channel import ChannelModel, ClassicCollision

__all__ = ["ColumnCounter", "RadioNetwork"]

#: Elements per float32 row block of :class:`ColumnCounter`.  A block's
#: column sums are at most its row count, far below 2^24, so every float32
#: partial sum is an exact integer whatever order BLAS adds in.
_COLUMN_BLOCK_ELEMS = 1 << 15


class ColumnCounter:
    """Per-column ``True`` counts of ``(n, T)`` bool matrices, as int64.

    Equal to ``mat.sum(axis=0)``, several times faster on the tall, narrow
    matrices of the dense engine: row blocks of at most
    ``_COLUMN_BLOCK_ELEMS`` elements are cast into one reused float32
    buffer, reduced by a ``ones @ block`` sgemv and added into the int64
    result.  Exact at any ``n`` (each block's sums stay below 2^24), and
    no ``(n, T)`` transient is allocated.  One instance serves a whole run;
    its buffers grow to the widest block seen.
    """

    __slots__ = ("_buf", "_ones")

    def __init__(self) -> None:
        self._buf = np.empty(0, dtype=np.float32)
        self._ones = np.empty(0, dtype=np.float32)

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        n, T = mat.shape
        out = np.zeros(T, dtype=np.int64)
        rows = max(1, min(n, _COLUMN_BLOCK_ELEMS // max(1, T)))
        if self._buf.size < rows * T:
            self._buf = np.empty(rows * T, dtype=np.float32)
        if self._ones.size < rows:
            self._ones = np.ones(rows, dtype=np.float32)
        buf = self._buf[: rows * T].reshape(rows, T)
        for start in range(0, n, rows):
            block = mat[start : start + rows]
            k = block.shape[0]
            np.copyto(buf[:k], block)
            out += (self._ones[:k] @ buf[:k]).astype(np.int64)
        return out


class RadioNetwork:
    """Wraps a :class:`~repro.graphs.graph.Graph` with radio semantics.

    ``channel`` selects the reception model; ``None`` means the paper's
    classic collision model.  Stateful channels (erasure, jamming) must be
    reset with per-trial generators before stepping — the broadcast engine
    does this automatically.
    """

    __slots__ = (
        "graph",
        "channel",
        "_tc_key",
        "_tc_val",
        "_eow_key",
        "_eow_val",
    )

    def __init__(self, graph: Graph, channel: ChannelModel | None = None) -> None:
        self.graph = graph
        self.channel = channel if channel is not None else ClassicCollision()
        # Identity-keyed single-entry caches: when telemetry computes the
        # round's counts / exactly-one fold first, the channel's own call
        # with the *same* transmit object reuses it instead of re-running
        # the count kernel.  Keying on object identity is exact — any
        # channel that filters transmitters (jamming crashes) builds a new
        # array and correctly misses.
        self._tc_key = None
        self._tc_val = None
        self._eow_key = None
        self._eow_val = None

    @property
    def n(self) -> int:
        """Number of processors."""
        return self.graph.n

    @property
    def count_dtype(self) -> type:
        """Narrowest integer dtype that holds this graph's neighbour counts
        (the dtype of :meth:`transmit_counts`)."""
        return self.graph.csr.count_dtype

    def transmit_counts(
        self, transmitting: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Transmitting-neighbour counts, at ``rows`` only when given — the
        shared kernel every channel's reception rule is built from
        (:meth:`~repro.graphs.graph.CSRAdjacency.count_neighbors`)."""
        if self._tc_key is transmitting:
            return self._tc_val if rows is None else self._tc_val[rows]
        return self.graph.csr.count_neighbors(transmitting, rows)

    def value_counts(self, values: np.ndarray) -> np.ndarray:
        """Exact delivered-value product ``A @ values`` for int64
        ``values`` — the kernel the value workloads (aggregate, pipeline)
        fold each round: the add fold of the CSR slot walk over int64
        cells, one to a uint64 word
        (:meth:`~repro.graphs.graph.CSRAdjacency.count_neighbors`)."""
        return self.graph.csr.count_neighbors(values)

    def prime_transmit_counts(
        self, transmitting: np.ndarray, counts: np.ndarray
    ) -> None:
        """Cache ``counts`` for the next :meth:`transmit_counts` call made
        with this exact ``transmitting`` object (telemetry shares its fold
        with the channel).  Callers must not mutate either array while the
        entry is live; each prime replaces the previous one."""
        self._tc_key = transmitting
        self._tc_val = counts

    def exactly_one_words(self, transmit_words: np.ndarray) -> np.ndarray:
        """Packed-word sibling of ``transmit_counts(...) == 1``: per-vertex
        words marking trials with exactly one transmitting neighbour,
        gathered over the graph's CSR (no count matrix)."""
        if self._eow_key is transmit_words:
            return self._eow_val
        from repro.radio.bitset import exactly_one_words

        return exactly_one_words(self.graph.csr, transmit_words)

    def prime_exactly_one_words(
        self, transmit_words: np.ndarray, exactly_one: np.ndarray
    ) -> None:
        """Packed sibling of :meth:`prime_transmit_counts`: cache the
        exactly-one words derived from this exact ``transmit_words``
        object."""
        self._eow_key = transmit_words
        self._eow_val = exactly_one

    def step(
        self,
        transmitting: np.ndarray,
        round_index: int = 0,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """One synchronous round, for one trial or a whole batch.

        Parameters
        ----------
        transmitting:
            Bool mask of processors that transmit this round — either an
            ``(n,)`` vector (one trial) or an ``(n, T)`` matrix whose
            columns are ``T`` independent trials advanced together by a
            single neighbour count.
        round_index:
            The current round number; round-indexed channels (erasure
            coins, fault schedules) condition on it.  Irrelevant under the
            classic model, hence optional.
        rows:
            Optional int array of receivers: only their receptions are
            computed and returned.  ``None`` means every processor.

        Returns
        -------
        numpy.ndarray
            Bool mask of processors that *receive* the message this round,
            as decided by the active channel model: the input's shape, or
            ``(len(rows),)`` / ``(len(rows), T)`` at ``rows``.
        """
        transmitting = np.asarray(transmitting)
        if (
            transmitting.dtype != bool
            or transmitting.ndim not in (1, 2)
            or transmitting.shape[0] != self.n
        ):
            raise ValueError(
                f"transmitting must be a bool (n,) mask or (n, T) matrix "
                f"with n = {self.n}"
            )
        if rows is None:
            return self.channel.deliver(round_index, transmitting, self)
        return self.channel.deliver(round_index, transmitting, self, rows)

    def step_words(
        self, transmit_words: np.ndarray, round_index: int = 0
    ) -> np.ndarray:
        """Packed-bitset sibling of :meth:`step`.

        ``transmit_words`` is an ``(n, W)`` uint64 matrix holding 64 trial
        bits per word column (trial ``t`` in bit ``t % 64`` of column
        ``t // 64``); the returned received words have the same layout.
        Requires a channel with
        :attr:`~repro.radio.channel.ChannelModel.supports_bitset`.
        """
        transmit_words = np.asarray(transmit_words)
        if (
            transmit_words.dtype != np.uint64
            or transmit_words.ndim != 2
            or transmit_words.shape[0] != self.n
        ):
            raise ValueError(
                f"transmit_words must be a uint64 (n, W) matrix with n = {self.n}"
            )
        return self.channel.deliver_words(round_index, transmit_words, self)
