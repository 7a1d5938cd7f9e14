"""Broadcast runner: drives a protocol over a radio network and records
everything the experiments need (completion round, per-round progress,
first-informed times).

Two entry points share one engine:

* :func:`run_broadcast_batch` — the trial-vectorized engine.  ``T``
  independent trials advance together and come back as a
  :class:`BatchBroadcastResult` (per-trial rounds/completion/energy plus
  aggregate quantiles).
* :func:`run_broadcast` — the classic single-run API, now the ``T = 1``
  special case of the batch engine.

One round loop drives every run; ``engine`` picks the frontier it
advances — the trial-state representation and one round's work:

* ``dense`` — trial state as ``(n, T)`` bool matrices, one neighbour count
  per round over the graph's CSR, completed trials compacted out of the
  working set, and (telemetry off, set workloads) delivery folded only at
  the rows still unsatisfied in some running trial.
* ``bitset`` — trial state packed 64-to-a-word (``(n, ceil(T/64))``
  uint64), reception via CSR neighbour-word gathers with popcount-based
  counting (:mod:`repro.radio.bitset`), no ``(n, T)`` transients — the
  datacenter-scale path.  Completed trials are frozen by a packed
  ``running`` mask instead of compaction (counter-based randomness makes
  the remaining trials' streams independent of it).
* ``auto`` — bitset when the channel and protocol support it natively and
  the graph is large enough to benefit; dense otherwise.

The loop owns the reset order, completion, per-trial rounds, the
informed-count rows and the result; both frontiers keep full-width
per-trial counts and count each round's transmitters, which are both the
energy totals and the telemetry row.

Both backends are bit-for-bit identical on every channel/protocol the
bitset path supports — the property ``tests/radio/test_bitset_engine.py``
pins across families, channels and word-boundary trial counts.

Seeding contract: ``run_broadcast_batch(..., trials=T, seed=master)``
derives per-trial seeds with :func:`repro._util.spawn_seeds` and is
bit-for-bit identical to ``T`` standalone ``run_broadcast`` calls seeded
with those children — the property the equivalence tests pin down.  The
contract extends to channel models (:mod:`repro.radio.channel`): the
runner resets the active channel with the same per-trial generators right
after the protocol, so randomized channels (erasure) follow the same
counter-based discipline.  :class:`MemoryBudget` leans on the same
anchor: a budgeted run derives the full per-trial generator list once and
slices it into column shards, so shard boundaries cannot perturb any
trial's stream and the merged result is bit-for-bit the unsharded one.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import as_rng, spawn_seeds
from repro.graphs.graph import Graph
from repro.obs.telemetry import TELEMETRY_PREFIX, TelemetryAccumulator
from repro.radio.bitset import (
    FirstInformedPlanes,
    full_mask_words,
    neighbor_fold_words,
    neighbor_or_at,
    pack_bool_matrix,
    row_flags,
    sparse_column_counts,
    word_column_counts,
)
from repro.radio.channel import ChannelModel, ClassicCollision
from repro.radio.network import ColumnCounter, RadioNetwork
from repro.radio.protocols import BroadcastProtocol, legacy_hooks_specialized
from repro.workload import BroadcastWorkload, WorkloadState, as_workload

__all__ = [
    "BatchBroadcastResult",
    "BroadcastResult",
    "MemoryBudget",
    "merge_batches",
    "run_broadcast",
    "run_broadcast_batch",
]

#: Recognized engine selectors.
_ENGINES = ("auto", "dense", "bitset")

#: ``engine="auto"`` switches to the bitset backend at this vertex count.
#: Below it the dense engine's trial compaction usually wins; above it the
#: packed working set and CSR gathers dominate.
_AUTO_BITSET_MIN_N = 32768


@dataclass(frozen=True)
class BroadcastResult:
    """Trace of one broadcast execution.

    Attributes
    ----------
    rounds:
        Rounds executed (= rounds to full coverage when ``completed``).
    completed:
        Whether every processor was informed before the round cap.
    informed_per_round:
        ``informed_per_round[r]`` = informed count *after* round ``r``
        (index 0 is the state after the first round; the initial state has
        exactly the source informed).
    first_informed_round:
        Per-vertex round at which the vertex first became informed
        (``0`` for the source, ``-1`` if never).
    transmissions:
        Total number of (node, round) transmissions — the energy cost.
    """

    rounds: int
    completed: bool
    informed_per_round: np.ndarray
    first_informed_round: np.ndarray
    transmissions: int

    def rounds_to_fraction(self, fraction: float, total: int | None = None) -> int:
        """First round index (1-based) at which the informed count reaches
        ``fraction`` of ``total`` (default: all vertices); ``-1`` if never."""
        target = fraction * (
            total if total is not None else self.first_informed_round.size
        )
        reached = np.flatnonzero(self.informed_per_round >= target)
        return int(reached[0]) + 1 if reached.size else -1


@dataclass(frozen=True)
class BatchBroadcastResult:
    """Traces of ``T`` independent broadcast trials run as one batch.

    Attributes
    ----------
    trials:
        Number of trials ``T``.
    rounds:
        ``(T,)`` int64 — rounds each trial executed before completing (or
        the round cap for incomplete trials).
    completed:
        ``(T,)`` bool — whether each trial reached full coverage.
    informed_per_round:
        ``(R, T)`` int64 where ``R = rounds.max()``; entry ``[r, t]`` is
        trial ``t``'s informed count after round ``r``.  Rows past a
        trial's completion stay at its final count (``n`` except under
        crash-fault channels, whose coverage excludes dead processors).
    first_informed_round:
        ``(n, T)`` int64 — per-vertex, per-trial first-informed round
        (``0`` for the source, ``-1`` if never).
    transmissions:
        ``(T,)`` int64 — per-trial total (node, round) transmissions.
    extras:
        Workload-specific result arrays (trial axis last), e.g. gossip's
        ``sources`` or aggregate's ``estimate``; empty for broadcast.
    """

    trials: int
    rounds: np.ndarray
    completed: np.ndarray
    informed_per_round: np.ndarray
    first_informed_round: np.ndarray
    transmissions: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that informed everyone."""
        return float(self.completed.mean()) if self.trials else 0.0

    @property
    def mean_rounds(self) -> float:
        """Mean rounds across trials."""
        return float(self.rounds.mean())

    def round_quantiles(
        self, qs: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> np.ndarray:
        """Quantiles of the per-trial round counts (the aggregate view the
        paper's w.h.p. statements call for)."""
        return np.quantile(self.rounds, np.asarray(qs, dtype=float))

    def trial(self, t: int) -> BroadcastResult:
        """Extract trial ``t`` as a standalone :class:`BroadcastResult`."""
        if not 0 <= t < self.trials:
            raise IndexError(f"trial {t} out of range [0, {self.trials})")
        r = int(self.rounds[t])
        return BroadcastResult(
            rounds=r,
            completed=bool(self.completed[t]),
            informed_per_round=self.informed_per_round[:r, t].copy(),
            first_informed_round=self.first_informed_round[:, t].copy(),
            transmissions=int(self.transmissions[t]),
        )


def merge_batches(parts: Sequence[BatchBroadcastResult]) -> BatchBroadcastResult:
    """Concatenate per-shard batch results back into one batch.

    Shards may have run different numbers of rounds; shorter
    ``informed_per_round`` matrices are padded by repeating their final
    row, matching the engine's own semantics (rows past a trial's
    completion hold its final informed count).  Used by both the
    process-parallel scenario sharder
    (:func:`repro.scenario.tasks.run_scenario_sharded`) and the
    :class:`MemoryBudget` column sharder below.
    """
    if not parts:
        raise ValueError("merge_batches needs at least one shard")
    if len(parts) == 1:
        return parts[0]
    rounds_cap = max(p.informed_per_round.shape[0] for p in parts)
    padded = []
    for p in parts:
        have = p.informed_per_round.shape[0]
        if have == rounds_cap:
            padded.append(p.informed_per_round)
        else:
            padded.append(
                np.pad(
                    p.informed_per_round,
                    ((0, rounds_cap - have), (0, 0)),
                    mode="edge",
                )
            )
    keys = set().union(*(p.extras.keys() for p in parts))
    if any(set(p.extras) != keys for p in parts):
        raise ValueError("shards carry mismatched extras keys")
    # Extras arrays put the trial axis last by convention, so shards
    # concatenate the same way the per-trial result vectors do.  Telemetry
    # matrices additionally need their round axis aligned: a shard that
    # finished early records zero activity in the missing rounds (frozen
    # trials transmit nothing), so zero-padding reproduces the unsharded
    # run bit for bit.
    extras = {}
    for key in sorted(keys):
        arrays = [np.asarray(p.extras[key]) for p in parts]
        if key.startswith(TELEMETRY_PREFIX):
            cap = max(a.shape[0] for a in arrays)
            arrays = [
                a
                if a.shape[0] == cap
                else np.pad(a, ((0, cap - a.shape[0]), (0, 0)))
                for a in arrays
            ]
        extras[key] = np.concatenate(arrays, axis=-1)
    return BatchBroadcastResult(
        trials=sum(p.trials for p in parts),
        rounds=np.concatenate([p.rounds for p in parts]),
        completed=np.concatenate([p.completed for p in parts]),
        informed_per_round=np.concatenate(padded, axis=1),
        first_informed_round=np.concatenate(
            [p.first_informed_round for p in parts], axis=1
        ),
        transmissions=np.concatenate([p.transmissions for p in parts]),
        extras=extras,
    )


@dataclass(frozen=True)
class MemoryBudget:
    """Byte ceiling for one batch run's trial working set.

    The engine's per-round working set scales as ``trials × n``:
    roughly 28 bytes per (trial, node) on the dense backend and roughly 10
    on the bitset backend (the int64 first-informed output dominates;
    packed state adds ~0.5).  Dense counts the int64 first-informed
    output (8), a round's uint32 coin lattice (4) and bool or int8
    matrices (coins, transmit, neighbour counts, receptions, fresh cells),
    and the first-informed scatter's int64 indices, which grow with the
    round's fresh cells.  Set workloads peak at ~26 under tracemalloc
    (decay gossip on ``random_regular(4096, 8)``, T = 64, erasure and
    telemetry on); value workloads (aggregate, pipeline) add their own
    int64 per-cell state on top.  :meth:`max_trials` inverts that
    estimate, and :func:`run_broadcast_batch` splits any larger batch into
    sequential column shards of at most that many trials, merging the
    shard results with :func:`merge_batches` — bit-for-bit equal to the
    unsharded run, because the per-trial generator list is derived once
    and sliced.
    """

    limit_bytes: int

    # Working-set estimates, bytes per (trial, node); deliberately coarse —
    # the budget is a planning ceiling, not an allocator.
    _PER_TRIAL_NODE_BYTES = {"dense": 28, "bitset": 10}

    def __post_init__(self) -> None:
        if int(self.limit_bytes) < 1:
            raise ValueError(
                f"memory budget must be >= 1 byte, got {self.limit_bytes}"
            )

    def max_trials(self, n: int, engine: str = "dense") -> int:
        """Largest trial-shard width fitting the budget on ``engine``
        (always at least 1 — a single trial must be allowed to run)."""
        per = self._PER_TRIAL_NODE_BYTES.get(
            engine, self._PER_TRIAL_NODE_BYTES["dense"]
        )
        return max(1, int(self.limit_bytes) // (per * max(1, int(n))))


def _as_memory_budget(value) -> MemoryBudget | None:
    if value is None or isinstance(value, MemoryBudget):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return MemoryBudget(int(value))
    raise TypeError(
        "memory_budget must be None, an int byte count, or a MemoryBudget; "
        f"got {type(value).__name__}"
    )


def _resolve_engine(
    engine: str, protocol, channel_model: ChannelModel, n: int, workload
) -> str:
    """Resolve ``auto`` and validate explicit engine requests.

    An explicit ``bitset`` request on a channel or protocol without
    packed-word support — or on a value workload, whose per-cell integers
    have no packed representation — falls back to dense with a warning
    (the result is identical, only the working-set shape differs).
    ``auto`` picks bitset only when the workload is set-semantics, the
    channel and the protocol run natively on words, and the graph is large
    enough for the packed path to pay off.
    """
    if engine not in _ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(_ENGINES)}; got {engine!r}"
        )
    supported = bool(getattr(channel_model, "supports_bitset", False))
    native = bool(getattr(type(protocol), "words_native", False))
    if engine == "bitset":
        if not workload.set_semantics:
            why = (
                f"workload {workload.name!r} folds per-cell values and "
                "cannot run packed"
            )
        elif not supported:
            why = (
                f"channel {channel_model.name!r} does not support the "
                "packed-bitset engine"
            )
        elif not native:
            why = f"protocol {protocol.name!r} has no packed-word face"
        else:
            return "bitset"
        warnings.warn(
            f"{why}; falling back to dense", RuntimeWarning, stacklevel=3
        )
        return "dense"
    packable = workload.set_semantics and supported and native
    if engine == "auto" and packable and n >= _AUTO_BITSET_MIN_N:
        return "bitset"
    return "dense"


def _default_max_rounds(n: int) -> int:
    return max(1000, 50 * n * max(1, int(np.log2(max(2, n)))))


def run_broadcast_batch(
    graph: Graph,
    protocol: BroadcastProtocol,
    trials: int,
    source: int = 0,
    max_rounds: int | None = None,
    seed=None,
    trial_rngs: Sequence | None = None,
    channel: ChannelModel | None = None,
    engine: str = "auto",
    memory_budget: MemoryBudget | int | None = None,
    workload=None,
    telemetry: bool = False,
) -> BatchBroadcastResult:
    """Run ``trials`` independent executions of ``workload`` under
    ``protocol`` on ``graph``, advanced together round by round.

    Per round, the protocol produces the trial transmit state (gated by
    the workload's eligibility), one vectorized kernel applies the
    channel semantics to every trial at once, and the workload folds the
    deliveries into newly-satisfied cells; trials that already completed
    are frozen (they stop transmitting and stop accruing rounds).  The
    global loop ends when all trials complete or the round cap is hit.

    Parameters
    ----------
    seed:
        Master seed/generator; ``trials`` child seeds are derived from it
        via :func:`repro._util.spawn_seeds`, one per trial.
    trial_rngs:
        Explicit per-trial seeds/generators (overrides ``seed``) — the hook
        :func:`run_broadcast` uses to be the ``T = 1`` special case.
    channel:
        Reception model (:mod:`repro.radio.channel`); ``None`` means the
        paper's classic collision model.  The runner resets the channel
        with the per-trial generators (after the protocol, so counter keys
        stay aligned with standalone runs), forwards channel feedback to
        the protocol's ``channel_feedback_batch``, and measures completion
        against the channel's coverage targets (crashed processors are
        not waited for).
    engine:
        ``"dense"``, ``"bitset"``, or ``"auto"`` (see the module
        docstring).  Explicit ``bitset`` on an unsupported channel, a
        protocol without :attr:`~BroadcastProtocol.words_native` or a
        value workload warns and runs dense.
    memory_budget:
        Optional byte ceiling (:class:`MemoryBudget` or a plain int of
        bytes).  Batches whose working set would exceed it are split into
        sequential trial-column shards and merged back — bit-for-bit
        identical to the unbudgeted run.
    workload:
        The task to run (:mod:`repro.workload`): an instance, a
        :class:`~repro.workload.WorkloadSpec`, a spec string
        (``"gossip(k=4)"``), or ``None`` for single-source broadcast from
        ``source`` — the latter is bit-for-bit the pre-workload engine.
        ``source`` applies only to that default; other workloads pin
        their own sources (``broadcast(source=3)``, ``gossip(source=0)``).
    telemetry:
        When true, both engines additionally record per round × per trial
        collision telemetry (transmitters, receptions, collision victims,
        newly informed, wasted transmissions — see
        :mod:`repro.obs.telemetry`), returned as ``(R, T)`` int64 extras
        under ``telemetry_``-prefixed keys, bit-for-bit identical between
        engines and across memory-budget shards.  Off by default and a
        strict no-op when off — no allocation, no per-round work beyond
        one predicate check.

    A protocol class defining a retired single-run hook (``reset``,
    ``transmitters`` or ``channel_feedback``) raises ``TypeError``.
    """
    if legacy_hooks_specialized(protocol):
        raise TypeError(
            f"protocol class {type(protocol).__name__} defines a retired "
            "single-run hook (reset, transmitters or channel_feedback); "
            "use the batch hooks instead"
        )
    if workload is None:
        workload = BroadcastWorkload(source=source)
    else:
        if source != 0:
            raise ValueError(
                "source= applies only to the default broadcast workload; "
                "pin the source on the workload itself "
                "(e.g. broadcast(source=3))"
            )
        workload = as_workload(workload)
    workload.check_graph(graph)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trial_rngs is None:
        trial_rngs = [as_rng(s) for s in spawn_seeds(as_rng(seed), trials)]
    else:
        if len(trial_rngs) != trials:
            raise ValueError(
                f"trial_rngs has {len(trial_rngs)} entries for {trials} trials"
            )
        trial_rngs = [as_rng(g) for g in trial_rngs]
    if max_rounds is None:
        max_rounds = _default_max_rounds(graph.n)

    channel_model = channel if channel is not None else ClassicCollision()
    workload.check_channel(channel_model)
    resolved = _resolve_engine(engine, protocol, channel_model, graph.n, workload)
    packed = resolved == "bitset"

    telemetry = bool(telemetry)
    budget = _as_memory_budget(memory_budget)
    if budget is not None:
        shard = budget.max_trials(graph.n, resolved)
        if shard < trials:
            parts = [
                _run(
                    packed, graph, protocol, channel_model, workload,
                    max_rounds, trial_rngs[start : start + shard], telemetry,
                )
                for start in range(0, trials, shard)
            ]
            return merge_batches(parts)
    return _run(
        packed, graph, protocol, channel_model, workload, max_rounds,
        trial_rngs, telemetry,
    )


def _run(
    packed, graph, protocol, channel_model, workload, max_rounds, trial_rngs,
    telemetry=False,
) -> BatchBroadcastResult:
    """The round loop of both engines.

    The driver owns what does not depend on the trial representation: the
    reset order, completion, per-trial rounds, the informed-count rows and
    the result.  The frontier (:class:`_PackedFrontier` when ``packed``,
    :class:`_DenseFrontier` otherwise) owns the trial state and a round's
    work.  A trial retires once it covers every target: it stops
    transmitting and accruing rounds, and its full-width counts keep their
    final values, so its rows past completion repeat its final count.
    """
    trials = len(trial_rngs)
    network = RadioNetwork(graph, channel=channel_model)
    protocol.reset_batch(network, workload.protocol_source, trial_rngs)
    # Channel after protocol: both may draw per-trial counter keys from the
    # same generators, and standalone runs use the same order.
    network.channel.reset(network, trial_rngs)
    # Workload last: its per-trial draws (gossip sources, sketch levels)
    # come after the resets', and the broadcast workload draws nothing —
    # keeping every pre-workload stream untouched.
    state = workload.make_state(network, trial_rngs)
    # Crash faults remove processors from the coverage requirement — they
    # can never receive, so waiting for them would always hit the cap.
    targets = network.channel.coverage_targets(network)
    need = graph.n if targets is None else int(np.count_nonzero(targets))
    if packed:
        frontier = _PackedFrontier(network, protocol, state, targets)
    else:
        # Telemetry reads receptions at every row, and a value workload
        # folds values at every row: both deliver in full, as does a
        # channel whose ``deliver`` predates its ``rows`` argument.
        live_rows = (
            not telemetry
            and type(state).fold is WorkloadState.fold
            and "rows" in inspect.signature(network.channel.deliver).parameters
        )
        frontier = _DenseFrontier(network, protocol, state, targets, live_rows)
    tel = TelemetryAccumulator(trials) if telemetry else None
    rounds = np.zeros(trials, dtype=np.int64)
    count_rows: list[np.ndarray] = []

    running = frontier.covered < need
    if not running.all():
        frontier.retire(running)
    round_index = 0
    while round_index < max_rounds and running.any():
        frontier.step(round_index, tel)
        round_index += 1
        rounds[running] += 1
        count_rows.append(frontier.counts)
        done = running & (frontier.covered >= need)
        if done.any():
            running = running & ~done
            frontier.retire(running)

    extras = state.extras
    if tel is not None:
        extras = {**extras, **tel.extras()}
    return BatchBroadcastResult(
        trials=trials,
        rounds=rounds,
        completed=~running,
        informed_per_round=(
            np.stack(count_rows)
            if count_rows
            else np.zeros((0, trials), dtype=np.int64)
        ),
        first_informed_round=frontier.first_informed(),
        transmissions=frontier.transmissions,
        extras=extras,
    )


class _DenseFrontier:
    """Trial state as ``(n, T)`` bool columns, one neighbour count per
    round, completed trials compacted out of the working set.

    Compaction makes late rounds (only the slowest trials still running)
    cost proportionally less: the batch pays the mean trial length, not
    ``T`` times the max.  The working state covers the running trials
    only; ``counts``, ``covered``, ``transmissions`` and telemetry rows are
    widened to the full batch, retired columns keeping their final values
    (zero in a telemetry row: a retired trial does nothing).

    With ``live_rows`` the frontier also keeps the *live rows*, those
    still unsatisfied in some running trial, with each one's count of
    unsatisfied running cells (aligned with the rows); a round's fresh
    cells and :meth:`retire` lower the counts, and rows at zero leave.
    A set fold (``received & ~satisfied``) can only find fresh cells at
    live rows, so delivery and the fold run there alone: on an expander
    most rounds are a tail where a few rows are live.  Coins and
    transmitter counts still cover every row.
    """

    def __init__(self, network, protocol, state, targets, live_rows) -> None:
        self._network = network
        self._protocol = protocol
        self._state = state
        self._targets = targets
        self._colsum = ColumnCounter()
        satisfied = state.initial_satisfied()
        self._satisfied = satisfied
        self._trials = satisfied.shape[1]
        self._active = np.arange(self._trials)
        self._live = self._unsat = None
        if live_rows:
            unsat = self._trials - np.count_nonzero(satisfied, axis=1)
            self._live = np.flatnonzero(unsat)
            self._unsat = unsat[self._live]
        self._first = np.full(satisfied.shape, -1, dtype=np.int64)
        self._first[satisfied] = 0
        # Counted once here and then kept running: the fold contract makes
        # each round's fresh cells disjoint from the satisfied ones, so a
        # per-trial bincount of the fresh cells advances both exactly.
        self.counts = self._colsum(satisfied)
        self.covered = (
            self.counts if targets is None else self._colsum(satisfied[targets, :])
        )
        self.transmissions = np.zeros(self._trials, dtype=np.int64)

    def _wide(self, row: np.ndarray) -> np.ndarray:
        """A running-trials row at full batch width (retired columns 0)."""
        if self._active.size == self._trials:
            return row
        full = np.zeros(self._trials, dtype=np.int64)
        full[self._active] = row
        return full

    def _narrow_live(self) -> None:
        """Drop the live rows whose unsatisfied count reached zero."""
        keep = self._unsat > 0
        self._live, self._unsat = self._live[keep], self._unsat[keep]

    def retire(self, running: np.ndarray) -> None:
        """Compact the working set to the ``running`` trials."""
        keep = running[self._active]
        if self._live is not None:
            # The retired columns' unsatisfied cells no longer count.
            gone = ~self._satisfied[self._live][:, ~keep]
            self._unsat -= np.count_nonzero(gone, axis=1)
            self._narrow_live()
        self._active = self._active[keep]
        self._satisfied = self._satisfied[:, keep]
        if self._active.size:
            self._protocol.select_trials(keep)
            self._network.channel.select_trials(keep)
            self._state.select_trials(keep)

    def step(self, round_index: int, tel) -> None:
        network, colsum, active = self._network, self._colsum, self._active
        satisfied = self._satisfied
        eligible = self._state.transmit_eligible(satisfied)
        mask = self._protocol.transmitters_batch(round_index, eligible, network)
        mask = mask & eligible
        mask = network.channel.effective_transmitters(round_index, mask)
        transmitters = self._wide(colsum(mask))
        self.transmissions += transmitters
        if tel is not None:
            # The channel's own count, pulled forward and primed into the
            # network's identity cache: victims read it here, the channel's
            # deliver reuses it — counts run once either way.
            tcounts = network.transmit_counts(mask)
            network.prime_transmit_counts(mask, tcounts)
        live = self._live
        received = network.step(mask, round_index, live)
        feedback = network.channel.feedback
        if feedback is not None:
            self._protocol.channel_feedback_batch(round_index, feedback, network)
        held = satisfied if live is None else satisfied[live]
        fresh = self._state.fold(round_index, mask, received, held, network)
        # One flat index pass, split by divmod: much cheaper than the
        # per-axis nonzero on a sparse (rows, active) frontier.  A big
        # round's index arrays set the engine's peak at scale, so no more
        # than three live at once.
        rows, cols = np.divmod(np.flatnonzero(fresh), fresh.shape[1])
        if live is not None and rows.size:
            self._unsat -= np.bincount(rows, minlength=live.size)
            rows = live[rows]
            self._narrow_live()
        self._first[rows, cols if active.size == self._trials else active[cols]] = (
            round_index + 1
        )
        newly = self._wide(np.bincount(cols, minlength=active.size))
        if tel is not None:
            # Victims are counted against the base adjacency on every
            # channel (the legacy tracer's convention: lossy channels show
            # as receptions < contacts, not as fewer collisions).  A
            # transmitter is wasted when no neighbour received — a receiver
            # hears its unique transmitting neighbour, so any receiving
            # neighbour is a delivery credit.
            tel.append_full(
                transmitters=transmitters,
                receptions=self._wide(colsum(received)),
                collision_victims=self._wide(colsum((tcounts >= 2) & ~mask)),
                newly_informed=newly,
                wasted_transmissions=self._wide(colsum(
                    mask & ~(network.transmit_counts(received) > 0)
                )),
            )
        satisfied[rows, cols] = True
        self.counts = self.counts + newly
        if self._targets is None:
            self.covered = self.counts
        else:
            self.covered = self.covered + self._wide(
                np.bincount(cols[self._targets[rows]], minlength=active.size)
            )

    def first_informed(self) -> np.ndarray:
        return self._first


class _PackedFrontier:
    """Trial state packed 64-to-a-word (``(n, ceil(T/64))`` uint64),
    reception via CSR neighbour-word gathers.

    Instead of compacting completed trials, their bits are cleared from
    the packed running mask: they stop transmitting (so other trials'
    reception is unaffected — exactly what dense compaction achieves) and
    their frozen informed words keep their final counts.  Counter-based
    randomness means never-compacted per-trial keys index the same streams
    either way — the bit-for-bit anchor.

    Only set-semantics workloads, packed channels and ``words_native``
    protocols run here (``_resolve_engine`` guarantees it): satisfaction
    is a bit, so the workload's whole contribution is the packed initial
    matrix — the fold is the frontier's own ``received & ~informed``.
    First-informed rounds accrue as bit-sliced planes
    (:class:`~repro.radio.bitset.FirstInformedPlanes`), decoded to the
    ``(n, T)`` int64 result once at the end.
    """

    def __init__(self, network, protocol, state, targets) -> None:
        self._network = network
        self._protocol = protocol
        self._targets = targets
        initial = state.initial_satisfied()
        n, self._trials = initial.shape
        self._informed = pack_bool_matrix(initial)
        self._running = np.ones(self._trials, dtype=bool)
        self._running_words = full_mask_words(self._trials)
        # Rows with any informed bit, maintained incrementally: the hint to
        # the protocol's word face (uninformed rows cannot transmit).
        self._informed_any = initial.any(axis=1)
        self._informed_rows = np.flatnonzero(self._informed_any)
        self._first = FirstInformedPlanes(n, self._informed.shape[1])
        # Informed counts are maintained incrementally — informed state is
        # monotone, so each round adds exactly the popcount of its fresh
        # bits (restricted to the touched rows) instead of re-counting.
        self.counts = word_column_counts(
            self._informed[self._informed_rows]
        )[: self._trials]
        self.covered = (
            self.counts
            if targets is None
            else word_column_counts(self._informed[targets])[: self._trials]
        )
        self.transmissions = np.zeros(self._trials, dtype=np.int64)

    def retire(self, running: np.ndarray) -> None:
        """Freeze the trials outside ``running``: clear their mask bits."""
        self._running = running
        self._running_words = pack_bool_matrix(running[None, :])[0]

    def step(self, round_index: int, tel) -> None:
        network, informed, T = self._network, self._informed, self._trials
        tw = self._protocol.transmitters_words(
            round_index, informed, network,
            rows=self._informed_rows, active=self._running,
        )
        tw &= informed
        tw &= self._running_words
        # Transmitters are counted every round, against the informed state
        # they were drawn from: one count serves the energy totals and the
        # telemetry row.
        tx_counts, tx_rows = _transmitter_counts(
            tw, informed, self._running_words,
            np.where(self._running, self.counts, 0), T,
        )
        self.transmissions += tx_counts
        if tel is not None:
            # One pair fold yields both reception and collision structure:
            # exactly-one is primed into the network's identity cache so
            # the channel's deliver reuses it — the fold runs once either
            # way.
            once, twice = neighbor_fold_words(network.graph.csr, tw)
            np.bitwise_and(once, ~twice, out=once)
            network.prime_exactly_one_words(tw, once)
            # twice is dead past exactly-one: reduce it to the collision
            # victims (silent, >= 2 transmitting neighbours) in place.
            np.bitwise_and(twice, ~tw, out=twice)
        received = network.step_words(tw, round_index)
        fresh = received & ~informed
        informed |= fresh
        newly = np.zeros(T, dtype=np.int64)
        touched = np.flatnonzero(row_flags(fresh))
        if touched.size:
            self._informed_any[touched] = True
            self._first.record(fresh, round_index + 1)
            fresh_touched = fresh[touched]
            newly = word_column_counts(fresh_touched)[:T]
            self.counts = self.counts + newly
            self.covered = (
                self.counts
                if self._targets is None
                else self.covered + word_column_counts(
                    fresh_touched[self._targets[touched]]
                )[:T]
            )
            if self._informed_rows.size < informed.shape[0]:
                self._informed_rows = np.flatnonzero(self._informed_any)
        if tel is not None:
            tel.append_full(**_packed_telemetry_row(
                network.graph.csr, tw, tx_rows, tx_counts, received, twice,
                newly, T,
            ))

    def first_informed(self) -> np.ndarray:
        return self._first.decode(self._informed, self._trials)


def _transmitter_counts(tw, informed_words, running, informed_counts, trials):
    """Per-trial transmitter counts, and ``tw``'s nonzero rows (``None``
    when most rows transmit).

    Transmitters are a subset of the informed cells of running trials, so
    when ``tw`` is dense (decay's high-probability rounds) the sparse
    complement — informed, running, silent — is counted and subtracted
    from the informed counts the engine already keeps.
    """
    flags = row_flags(tw)
    nnz = int(np.count_nonzero(flags))
    if 2 * nnz <= tw.shape[0]:
        counts, _ = sparse_column_counts(tw, trials, flags)
        return counts, np.flatnonzero(flags)
    idle = informed_words & ~tw
    idle &= running
    idle_counts, _ = sparse_column_counts(idle, trials)
    return informed_counts - idle_counts, None


def _packed_telemetry_row(
    csr, tw, tx_rows, tx_counts, received, victims, newly, trials
) -> dict:
    """One round's telemetry counts on the packed engine.

    ``newly_informed`` is the engine's own fresh count and
    ``transmitters`` was counted before the fold (``tx_rows`` lists the
    transmitting rows, ``None`` when most rows transmit).  Each remaining
    plane is counted over its nonzero rows only when they are few
    (:func:`~repro.radio.bitset.sparse_column_counts`).  A wasted
    transmitter is one with no receiving neighbour: when nobody received,
    that is every transmitter; otherwise the neighbour OR of the received
    words is evaluated at the transmitter rows by whichever kernel the
    measured densities make cheapest.
    """
    recv_flags = row_flags(received)
    recv_counts, recv_nnz = sparse_column_counts(received, trials, recv_flags)
    victim_counts, _ = sparse_column_counts(victims, trials)
    if recv_nnz == 0 or not tx_counts.any():
        wasted_counts = tx_counts
    else:
        recv_rows = np.flatnonzero(recv_flags)
        if tx_rows is None:
            heard = neighbor_or_at(csr, received, None, recv_rows)
            tw_at = tw
        else:
            heard = neighbor_or_at(csr, received, tx_rows, recv_rows)
            tw_at = tw[tx_rows]
        # The OR result is freshly allocated: mask it in place.
        np.invert(heard, out=heard)
        heard &= tw_at
        wasted_counts, _ = sparse_column_counts(heard, trials)
    return {
        "transmitters": tx_counts,
        "receptions": recv_counts,
        "collision_victims": victim_counts,
        "newly_informed": newly,
        "wasted_transmissions": wasted_counts,
    }


def run_broadcast(
    graph: Graph,
    protocol: BroadcastProtocol,
    source: int = 0,
    max_rounds: int | None = None,
    seed=None,
    channel: ChannelModel | None = None,
    engine: str = "auto",
) -> BroadcastResult:
    """Run ``protocol`` on ``graph`` from ``source`` until full coverage or
    ``max_rounds`` (default ``50·n·log₂n``-ish safety cap).

    The runner enforces the radio model: only informed processors may
    transmit, and reception follows the active ``channel`` (default: the
    classic exactly-one-transmitting-neighbour collision model).  This is
    the ``T = 1`` special case of :func:`run_broadcast_batch`; the ``seed``
    seeds the single trial directly.
    """
    batch = run_broadcast_batch(
        graph,
        protocol,
        trials=1,
        source=source,
        max_rounds=max_rounds,
        trial_rngs=[as_rng(seed)],
        channel=channel,
        engine=engine,
    )
    return batch.trial(0)
