"""Pluggable channel & fault models for the radio simulation engine.

The paper's results live in the classic no-collision-detection radio model
(Section 1.1): a silent processor receives iff **exactly one** neighbour
transmits, and collisions are indistinguishable from silence.  The
expansion machinery, however, is model-agnostic, and robustness of
expander topologies under faults and jamming is what makes them attractive
in practice — so the engine's reception semantics are factored into a
:class:`ChannelModel` strategy that :meth:`repro.radio.network.RadioNetwork.step`
delegates to.

Concrete models:

* :class:`ClassicCollision` — the paper's model, bit-for-bit identical to
  the pre-channel engine (the default everywhere).
* :class:`CollisionDetection` — same reception rule, but receivers can
  distinguish silence from collision; the collision bit is published as
  per-round *feedback* that protocols may exploit (see
  :class:`repro.radio.protocols.CollisionBackoffProtocol`).
* :class:`ErasureChannel` — each successfully received message is
  independently dropped with probability ``p`` (lossy links).
* :class:`AdversarialJamming` — deterministic round-indexed faults from a
  :class:`FaultSchedule`: jammed-vertex windows (a jammed vertex hears
  only noise), node crashes (a crashed vertex neither transmits nor
  receives from its crash round on), and edge up/down dynamics.

Batching contract
-----------------
``deliver`` accepts an ``(n,)`` transmit mask (one trial) or an ``(n, T)``
matrix (``T`` trials advanced together) and returns a received mask of the
same shape — or, given ``rows``, of those rows only (``(len(rows),)`` or
``(len(rows), T)``), so the engine can fold just the receivers that can
still change state.  Stateful channels prepare per-trial state in :meth:`reset`
(one generator per trial, mirroring the protocol hooks) and drop completed
trials in :meth:`select_trials` when the engine compacts its working set.

RNG discipline
--------------
Randomized channels follow the engine's counter-based discipline
(:func:`repro._util.counter_coins`): :meth:`reset` derives one 64-bit key
per trial from that trial's generator — *after* the protocol has derived
its own keys, since the engine resets the protocol first — and each
round's erasure coins are a pure hash of ``(key, round, node)``.  A batch
of ``T`` trials therefore reproduces, bit for bit, the streams of ``T``
standalone single-trial runs seeded with the same children, and
``ErasureChannel(p=0)`` is bit-for-bit identical to
:class:`ClassicCollision`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro._util import counter_cell_coins, derive_keys
from repro.graphs.graph import Graph

__all__ = [
    "CHANNELS",
    "AdversarialJamming",
    "ChannelModel",
    "ChannelSpec",
    "ClassicCollision",
    "CollisionDetection",
    "ErasureChannel",
    "FaultSchedule",
    "make_channel",
    "parse_fault_spec",
]


class ChannelModel(ABC):
    """Reception semantics for one synchronous radio round.

    Subclasses implement :meth:`deliver`; the remaining hooks default to
    stateless no-ops so that pure-function channels stay one method long.
    """

    #: Registry name (used by the CLI and experiment tables).
    name: str = "abstract"

    #: Whether :meth:`deliver_words` implements this channel's semantics on
    #: packed uint64 trial words.  Channels that need per-trial feedback or
    #: per-round structure rewrites (collision detection, jamming) leave
    #: this ``False`` and the engine falls back to the dense path.
    supports_bitset: bool = False

    #: Per-round feedback published to protocols (``None`` when the
    #: channel provides no feedback beyond reception, as in the classic
    #: model).  Channels that do provide it (collision detection) store a
    #: bool mask of the same shape as the transmit mask after each
    #: :meth:`deliver` call.
    feedback: np.ndarray | None = None

    def reset(self, network, rngs) -> None:
        """Prepare per-run state for ``len(rngs)`` trials.

        Called by the engine after the protocol's own reset, with the same
        per-trial generators — a stateful channel draws its keys from the
        streams the protocol has already advanced, keeping batched and
        standalone runs aligned.
        """

    def select_trials(self, keep: np.ndarray) -> None:
        """Drop per-trial state for trials compacted out of the batch."""

    def effective_transmitters(
        self, round_index: int, transmitting: np.ndarray
    ) -> np.ndarray:
        """Filter the transmit mask before energy is spent.

        Fault channels override this to silence crashed processors; the
        engine counts transmissions *after* this filter, so dead nodes do
        not accrue energy cost.
        """
        return transmitting

    def coverage_targets(self, network) -> np.ndarray | None:
        """Vertices a broadcast must inform to count as complete.

        ``None`` means all of them (every non-faulty channel).  Crash
        faults return a mask excluding crashed processors — they can never
        receive, so requiring them would turn every faulty run into a
        round-cap timeout.
        """
        return None

    @abstractmethod
    def deliver(
        self, round_index: int, transmitting: np.ndarray, network, rows=None
    ) -> np.ndarray:
        """Map a transmit mask to the received mask for this round.

        ``transmitting`` is a bool ``(n,)`` vector or ``(n, T)`` matrix;
        the result has the same shape.  Column ``t`` of a batched call
        must equal what a standalone trial ``t`` would receive.

        ``rows`` (an int array, or ``None`` for every row) names the
        receivers the caller reads: the result is then the ``rows``
        restriction of the full one, bit for bit.  Transmitters are always
        the whole mask.  A channel that cannot compute less computes the
        full result and indexes it, and any per-round state it keeps
        (:attr:`feedback`) stays full.  ``rows`` is only ever passed when
        set, so a subclass whose ``deliver`` lacks the parameter still
        runs: the engine then delivers to every row.
        """

    def deliver_words(
        self, round_index: int, transmit_words: np.ndarray, network
    ) -> np.ndarray:
        """Packed-word face of :meth:`deliver` for the bitset engine.

        ``transmit_words`` is an ``(n, W)`` uint64 matrix with trial ``t``
        in bit ``t % 64`` of word column ``t // 64``; the result has the
        same layout and must agree bit for bit with :meth:`deliver` on the
        unpacked matrix.  Only implemented when :attr:`supports_bitset`.
        """
        raise NotImplementedError(
            f"channel {self.name!r} does not support the bitset engine"
        )


class ClassicCollision(ChannelModel):
    """Section 1.1 semantics: receive iff silent with exactly one
    transmitting neighbour; collisions are indistinguishable from silence.

    This is the engine's default and is bit-for-bit identical to the
    pre-channel ``RadioNetwork.step``.
    """

    name = "classic"
    supports_bitset = True

    def deliver(
        self, round_index: int, transmitting: np.ndarray, network, rows=None
    ) -> np.ndarray:
        counts = network.transmit_counts(transmitting, rows)
        silent = ~(transmitting if rows is None else transmitting[rows])
        return (counts == 1) & silent

    def deliver_words(
        self, round_index: int, transmit_words: np.ndarray, network
    ) -> np.ndarray:
        return network.exactly_one_words(transmit_words) & ~transmit_words


class CollisionDetection(ChannelModel):
    """Classic reception plus a collision-detection bit.

    Reception is unchanged, so any feedback-blind protocol behaves exactly
    as under :class:`ClassicCollision`; additionally, every silent
    processor with two or more transmitting neighbours learns it stood in
    a collision.  That bit is published via :attr:`feedback` after each
    round and forwarded to the protocol's ``channel_feedback_batch``.
    """

    name = "collision-detection"

    def deliver(
        self, round_index: int, transmitting: np.ndarray, network, rows=None
    ) -> np.ndarray:
        # Feedback reaches every silent processor, so counts run in full.
        counts = network.transmit_counts(transmitting)
        silent = ~transmitting
        self.feedback = (counts >= 2) & silent
        received = (counts == 1) & silent
        return received if rows is None else received[rows]


class ErasureChannel(ChannelModel):
    """Classic reception, then each delivered message is independently
    dropped with probability ``p``.

    Erasure coins are counter-based (pure hash of ``(trial key, round,
    node)``), so batched and standalone runs agree bit for bit, and
    ``p = 0`` reproduces :class:`ClassicCollision` exactly.
    """

    name = "erasure"
    supports_bitset = True

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
        self.p = float(p)
        self._keys: np.ndarray | None = None

    def reset(self, network, rngs) -> None:
        self._keys = derive_keys(rngs)

    def select_trials(self, keep: np.ndarray) -> None:
        if self._keys is not None:
            self._keys = self._keys[keep]

    def deliver(
        self, round_index: int, transmitting: np.ndarray, network, rows=None
    ) -> np.ndarray:
        if self._keys is None:
            raise RuntimeError(
                "ErasureChannel must be reset with per-trial generators "
                "before stepping (the broadcast engine does this; direct "
                "users call channel.reset(network, [rng]))"
            )
        trials = 1 if transmitting.ndim == 1 else transmitting.shape[1]
        if self._keys.shape[0] != trials:
            raise ValueError(
                f"channel was reset for {self._keys.shape[0]} trials but "
                f"stepped with {trials}"
            )
        tx = transmitting if rows is None else transmitting[rows]
        # A C-ordered result, so its flat view below writes through.
        received = np.empty(tx.shape, dtype=bool)
        np.equal(network.transmit_counts(transmitting, rows), 1, out=received)
        received &= ~tx
        # Erasure coins only matter where something was received: hash
        # those cells alone (identical bits, a fraction of the lattice).
        flat = received.reshape(-1)
        cells = np.flatnonzero(flat)
        at, cols = np.divmod(cells, trials)
        nodes = at if rows is None else np.asarray(rows)[at]
        dropped = counter_cell_coins(
            self._keys, round_index, network.n, self.p, nodes, cols
        )
        flat[cells[dropped]] = False
        return received

    def deliver_words(
        self, round_index: int, transmit_words: np.ndarray, network
    ) -> np.ndarray:
        from repro.radio.bitset import packed_counter_coins, word_count

        if self._keys is None:
            raise RuntimeError(
                "ErasureChannel must be reset with per-trial generators "
                "before stepping (the broadcast engine does this; direct "
                "users call channel.reset(network, [rng]))"
            )
        if word_count(self._keys.shape[0]) != transmit_words.shape[1]:
            raise ValueError(
                f"channel was reset for {self._keys.shape[0]} trials but "
                f"stepped with {transmit_words.shape[1]} word columns"
            )
        received = network.exactly_one_words(transmit_words) & ~transmit_words
        # Erasure coins only matter where something was received — restrict
        # the hash to those rows (identical bits, less work).
        rows = np.flatnonzero(received.any(axis=1))
        if rows.size:
            dropped = packed_counter_coins(
                self._keys, round_index, transmit_words.shape[0], self.p,
                rows=rows,
            )
            received &= ~dropped
        return received


@dataclass(frozen=True)
class FaultSchedule:
    """Deterministic round-indexed fault plan for :class:`AdversarialJamming`.

    Attributes
    ----------
    jam_windows:
        ``(first_round, last_round, vertices)`` triples — each listed
        vertex hears only noise during rounds ``first..last`` inclusive.
    crashes:
        ``(round, vertices)`` pairs — each vertex neither transmits nor
        receives from ``round`` on.
    edge_events:
        ``(round, up, edges)`` triples — the listed edges go up
        (``up=True``) or down at the start of ``round`` and stay that way
        until a later event flips them.
    """

    jam_windows: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    crashes: tuple[tuple[int, tuple[int, ...]], ...] = ()
    edge_events: tuple[tuple[int, bool, tuple[tuple[int, int], ...]], ...] = field(
        default_factory=tuple
    )

    def jammed_mask(self, round_index: int, n: int) -> np.ndarray:
        """Bool mask of vertices jammed in ``round_index``."""
        mask = np.zeros(n, dtype=bool)
        for first, last, verts in self.jam_windows:
            if first <= round_index <= last:
                mask[list(verts)] = True
        return mask

    def crashed_mask(self, round_index: int, n: int) -> np.ndarray:
        """Bool mask of vertices crashed at or before ``round_index``."""
        mask = np.zeros(n, dtype=bool)
        for at, verts in self.crashes:
            if at <= round_index:
                mask[list(verts)] = True
        return mask

    def ever_crashed_mask(self, n: int) -> np.ndarray:
        """Bool mask of vertices that crash at any point of the schedule."""
        mask = np.zeros(n, dtype=bool)
        for _, verts in self.crashes:
            mask[list(verts)] = True
        return mask

    def validate(self, n: int) -> None:
        """Reject vertex/edge ids outside ``0..n-1`` (negative ids would
        silently wrap via Python indexing) and malformed windows."""

        def check_vertex(v: int, what: str) -> None:
            if not 0 <= v < n:
                raise ValueError(
                    f"fault schedule {what} vertex {v} out of range for an "
                    f"{n}-vertex network"
                )

        for first, last, verts in self.jam_windows:
            if first < 0 or last < first:
                raise ValueError(f"bad jam window rounds {first}-{last}")
            for v in verts:
                check_vertex(v, "jam")
        for at, verts in self.crashes:
            if at < 0:
                raise ValueError(f"bad crash round {at}")
            for v in verts:
                check_vertex(v, "crash")
        for at, _, edges in self.edge_events:
            if at < 0:
                raise ValueError(f"bad edge-event round {at}")
            for u, v in edges:
                check_vertex(u, "edge")
                check_vertex(v, "edge")
                if u == v:
                    raise ValueError(f"edge event on self-loop {u}-{v}")

    @property
    def is_empty(self) -> bool:
        """True when the schedule contains no faults at all."""
        return not (self.jam_windows or self.crashes or self.edge_events)


def parse_fault_spec(text: str) -> FaultSchedule:
    """Parse the CLI's compact ``--faults`` grammar into a schedule.

    Semicolon-separated segments, each ``kind@rounds:targets``:

    * ``jam@A-B:v,v,...`` — jam the vertices during rounds ``A..B``
      (``jam@A:...`` jams a single round);
    * ``crash@A:v,v,...`` — crash the vertices at round ``A``;
    * ``down@A:u-v,u-v,...`` / ``up@A:u-v,...`` — edge down/up events.

    Example: ``"jam@0-9:0,1,2;crash@5:7;down@3:0-1,2-3"``.
    """
    jams: list[tuple[int, int, tuple[int, ...]]] = []
    crashes: list[tuple[int, tuple[int, ...]]] = []
    events: list[tuple[int, bool, tuple[tuple[int, int], ...]]] = []
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        try:
            head, targets = segment.split(":", 1)
            kind, rounds = head.split("@", 1)
        except ValueError:
            raise ValueError(
                f"bad fault segment {segment!r} (expected kind@rounds:targets)"
            ) from None
        kind = kind.strip().lower()
        if kind == "jam":
            first, sep, last = rounds.partition("-")
            lo = int(first)
            hi = int(last) if sep else lo
            if hi < lo:
                raise ValueError(f"empty jam window in {segment!r}")
            verts = tuple(int(v) for v in targets.split(",") if v.strip())
            jams.append((lo, hi, verts))
        elif kind == "crash":
            verts = tuple(int(v) for v in targets.split(",") if v.strip())
            crashes.append((int(rounds), verts))
        elif kind in ("down", "up"):
            edges = []
            for pair in targets.split(","):
                if not pair.strip():
                    continue
                u, _, v = pair.partition("-")
                edges.append((int(u), int(v)))
            events.append((int(rounds), kind == "up", tuple(edges)))
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected jam/crash/down/up)"
            )
    return FaultSchedule(
        jam_windows=tuple(jams),
        crashes=tuple(crashes),
        edge_events=tuple(sorted(events, key=lambda e: e[0])),
    )


class AdversarialJamming(ChannelModel):
    """Classic reception under a deterministic :class:`FaultSchedule`.

    Per round: edge events up to the round are applied to a private copy
    of the adjacency structure, crashed processors are muted on both
    sides, and jammed or crashed processors receive nothing.  Faults are
    shared across all trials of a batch — the adversary is a fixed
    worst-case environment, not a random one — so every trial of a batch
    experiences the same fault pattern, exactly as ``T`` standalone runs
    would.
    """

    name = "jamming"

    def __init__(self, schedule: FaultSchedule | str) -> None:
        if isinstance(schedule, str):
            schedule = parse_fault_spec(schedule)
        self.schedule = schedule
        self._graph = None
        self._events_applied = 0
        # Single-entry per-round mask cache: the engine queries the same
        # round from effective_transmitters and deliver back to back.
        self._mask_round = -1
        self._masks = None

    def reset(self, network, rngs) -> None:
        self.schedule.validate(network.n)
        self._graph = None
        self._events_applied = 0
        self._mask_round = -1
        self._masks = None

    def _round_masks(self, round_index: int, n: int):
        """``(crashed, deaf)`` bool masks for this round, cached."""
        if round_index != self._mask_round or self._masks is None:
            crashed = self.schedule.crashed_mask(round_index, n)
            deaf = self.schedule.jammed_mask(round_index, n) | crashed
            self._mask_round = round_index
            self._masks = (crashed, deaf)
        return self._masks

    def coverage_targets(self, network) -> np.ndarray | None:
        if not self.schedule.crashes:
            return None
        return ~self.schedule.ever_crashed_mask(network.n)

    def effective_transmitters(
        self, round_index: int, transmitting: np.ndarray
    ) -> np.ndarray:
        crashed, _ = self._round_masks(round_index, transmitting.shape[0])
        if not crashed.any():
            return transmitting
        if transmitting.ndim == 2:
            crashed = crashed[:, None]
        return transmitting & ~crashed

    def _current_csr(self, round_index: int, network):
        """The CSR adjacency with all edge events ≤ round applied (``None``
        without edge events: the caller uses the network's own kernel).

        The current edge set is kept as a :class:`Graph`; each batch of
        newly applied events builds one new graph, whose CSR counts in the
        dtype its own max degree needs (``up`` events can push a degree
        past the base graph's).
        """
        events = self.schedule.edge_events
        if not events:
            return None
        pending = [e for e in sorted(events) if e[0] <= round_index]
        if self._graph is None or len(pending) < self._events_applied:
            # First use, or a non-monotone round query: rebuild from base.
            self._graph = network.graph
            self._events_applied = 0
        if len(pending) > self._events_applied:
            n = self._graph.n
            keys = self._graph.edges() @ np.array([n, 1])
            for _, up, edges in pending[self._events_applied :]:
                pairs = np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2))
                change = pairs @ np.array([n, 1])
                keys = np.union1d(keys, change) if up else np.setdiff1d(keys, change)
            self._graph = Graph(n, np.column_stack(np.divmod(keys, n)))
            self._events_applied = len(pending)
        return self._graph.csr

    def deliver(
        self, round_index: int, transmitting: np.ndarray, network, rows=None
    ) -> np.ndarray:
        n = transmitting.shape[0]
        # Idempotent re-filter so direct network.step callers get crash
        # semantics too (the engine has already applied it).
        transmitting = self.effective_transmitters(round_index, transmitting)
        csr = self._current_csr(round_index, network)
        if csr is None:
            counts = network.transmit_counts(transmitting)
        else:
            counts = csr.count_neighbors(transmitting)
        received = (counts == 1) & ~transmitting
        _, deaf = self._round_masks(round_index, n)
        if deaf.any():
            received[deaf] = False
        return received if rows is None else received[rows]


#: CLI/registry channel names mapped to short descriptions.
CHANNELS: dict[str, str] = {
    "classic": "Section 1.1 no-collision-detection model (the default)",
    "collision-detection": "classic reception + per-round collision feedback",
    "erasure": "classic reception, deliveries dropped i.i.d. with prob. p",
    "jamming": "classic reception under a deterministic fault schedule",
}


def make_channel(
    name: str,
    erasure_p: float = 0.1,
    faults: FaultSchedule | str | None = None,
) -> ChannelModel:
    """Build a channel by registry name.

    ``erasure_p`` feeds the erasure channel; ``faults`` (a schedule or a
    :func:`parse_fault_spec` string) feeds jamming.  ``cd`` is accepted as
    shorthand for ``collision-detection``.
    """
    key = name.strip().lower()
    if key == "cd":
        key = "collision-detection"
    if key == "classic":
        return ClassicCollision()
    if key == "collision-detection":
        return CollisionDetection()
    if key == "erasure":
        return ErasureChannel(erasure_p)
    if key == "jamming":
        return AdversarialJamming(faults if faults is not None else FaultSchedule())
    raise ValueError(
        f"unknown channel {name!r}; known channels: {', '.join(sorted(CHANNELS))}"
    )


@dataclass(frozen=True)
class ChannelSpec:
    """A picklable, content-addressable channel *factory*.

    Channels hold per-run state, so anything scheduling runs (the CLI, the
    runtime executor) passes a factory rather than an instance.  Closures
    cannot cross process boundaries or enter cache keys; this frozen
    dataclass can do both — calling it builds a fresh channel via
    :func:`make_channel`.  ``faults`` stays in its
    :func:`parse_fault_spec` string form for the same reason.

    ``ChannelSpec`` speaks the declarative spec interface shared with
    :class:`repro.scenario.GraphSpec` / :class:`repro.scenario.ProtocolSpec`:
    a compact string form (:meth:`from_string` / :meth:`describe`) and a
    lossless canonical-dict form (:meth:`to_dict` / :meth:`from_dict`) —
    the dict is what scenario cache keys hash, so it carries only the
    parameters the named channel actually consumes (``erasure_p`` on a
    classic channel cannot perturb the key)::

        ChannelSpec.from_string("erasure(0.05)")          # loss model
        ChannelSpec.from_string('jamming("jam@0-9:0,1")')  # fault schedule
        ChannelSpec.from_string("cd").describe()  # 'collision-detection'
    """

    name: str = "classic"
    erasure_p: float = 0.1
    faults: str | None = None

    #: Spec-interface discriminator (mirrors GraphSpec/ProtocolSpec).
    kind = "channel"

    def __call__(self) -> ChannelModel:
        return make_channel(self.name, erasure_p=self.erasure_p, faults=self.faults)

    # Alias so all spec classes share one verb for "make the live object".
    build = __call__

    @staticmethod
    def _canonical_name(name: str) -> str:
        key = name.strip().lower()
        if key == "cd":
            key = "collision-detection"
        if key not in CHANNELS:
            raise ValueError(
                f"unknown channel {name!r}; known channels: "
                f"{', '.join(sorted(CHANNELS))} (cd = collision-detection)"
            )
        return key

    @classmethod
    def from_string(cls, text: str) -> "ChannelSpec":
        """Parse the compact form: ``classic``, ``cd``, ``erasure(0.05)``,
        ``jamming("jam@0-9:0,1;crash@5:7")``."""
        from repro._util import parse_call

        name, args, kwargs = parse_call(text)
        name = cls._canonical_name(name)
        if name == "erasure":
            if len(args) > 1 or set(kwargs) - {"p"}:
                raise ValueError(f"erasure takes one probability, got {text!r}")
            p = args[0] if args else kwargs.get("p", 0.1)
            return cls(name=name, erasure_p=float(p))
        if name == "jamming":
            if len(args) > 1 or set(kwargs) - {"faults"}:
                raise ValueError(f"jamming takes one fault spec, got {text!r}")
            faults = args[0] if args else kwargs.get("faults")
            if faults is not None:
                parse_fault_spec(faults)  # validate the grammar eagerly
            return cls(name=name, faults=faults)
        if args or kwargs:
            raise ValueError(f"channel {name!r} takes no arguments, got {text!r}")
        return cls(name=name)

    def describe(self) -> str:
        """The canonical string form (``from_string(describe())`` is the
        identity on canonical specs)."""
        from repro._util import format_call

        name = self._canonical_name(self.name)
        if name == "erasure":
            return format_call(name, (self.erasure_p,))
        if name == "jamming" and self.faults:
            return format_call(name, (self.faults,))
        return name

    def to_dict(self) -> dict:
        """Canonical plain-data form — only the parameters the named
        channel consumes, so spec-equal channels always encode alike."""
        name = self._canonical_name(self.name)
        out: dict = {"name": name}
        if name == "erasure":
            out["erasure_p"] = float(self.erasure_p)
        if name == "jamming" and self.faults:
            out["faults"] = self.faults
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSpec":
        """Inverse of :meth:`to_dict`."""
        extra = set(data) - {"name", "erasure_p", "faults"}
        if extra:
            raise ValueError(f"unknown channel-spec fields {sorted(extra)}")
        return cls(
            name=cls._canonical_name(data.get("name", "classic")),
            erasure_p=float(data.get("erasure_p", 0.1)),
            faults=data.get("faults"),
        )
