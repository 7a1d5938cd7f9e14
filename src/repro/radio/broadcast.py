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

Two interchangeable backends sit behind them, selected by ``engine``:

* ``dense`` — trial state as ``(n, T)`` bool matrices, one sparse integer
  product per round, completed trials compacted out of the working set.
* ``bitset`` — trial state packed 64-to-a-word (``(n, ceil(T/64))``
  uint64), reception via CSR neighbour-word gathers with popcount-based
  counting (:mod:`repro.radio.bitset`), no scipy and no ``(n, T)``
  transients — the datacenter-scale path.  Completed trials are frozen by
  a packed ``running`` mask instead of compaction (counter-based
  randomness makes the remaining trials' streams independent of it).
* ``auto`` — bitset when the channel and protocol support it natively and
  the graph is large enough to benefit; dense otherwise.

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

import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro._util import as_rng, spawn_seeds
from repro.backend import HOST, resolve_backend
from repro.graphs.graph import Graph
from repro.obs.telemetry import TELEMETRY_PREFIX, TelemetryAccumulator
from repro.radio.channel import ChannelModel, ClassicCollision
from repro.radio.network import RadioNetwork
from repro.radio.protocols import BroadcastProtocol, legacy_hooks_specialized
from repro.workload import BroadcastWorkload, as_workload

# Host namespace via the backend shim: results, protocol coins, and the
# packed-word engine are host-resident by contract; the dense loop's
# backend-active work goes through the resolved backend instead.
np = HOST.xp

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

#: Fresh-bit rows per first-informed scatter chunk in the bitset loop:
#: keeps the unpacked bool and nonzero index transients bounded by the
#: chunk, not by the frontier width.
_SCATTER_ROW_BLOCK = 2048

#: Rounds between drains of the bitset engine's transmission tally: caps
#: its counter-plane stack at ``log2`` of this many ``(n, W)`` layers.
_TALLY_DRAIN_ROUNDS = 32


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
    roughly 18 bytes per (trial, node) on the dense backend (bool state
    matrices, integer count matrix, int64 first-informed output) and
    roughly 10 on the bitset backend (the int64 first-informed output
    dominates; packed state adds ~0.5).  :meth:`max_trials` inverts that
    estimate, and :func:`run_broadcast_batch` splits any larger batch into
    sequential column shards of at most that many trials, merging the
    shard results with :func:`merge_batches` — bit-for-bit equal to the
    unsharded run, because the per-trial generator list is derived once
    and sliced.
    """

    limit_bytes: int

    # Working-set estimates, bytes per (trial, node); deliberately coarse —
    # the budget is a planning ceiling, not an allocator.
    _PER_TRIAL_NODE_BYTES = {"dense": 18, "bitset": 10}

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
    engine: str, protocol, channel_model: ChannelModel, n: int, workload,
    backend=HOST,
) -> str:
    """Resolve ``auto`` and validate explicit engine requests.

    An explicit ``bitset`` request on a channel without packed-word
    support — or on a value workload, whose per-cell integers have no
    packed representation — falls back to dense with a warning (the
    result is identical, only the working-set shape differs).  ``auto``
    picks bitset only when the workload is set-semantics, the channel and
    the protocol run natively on words, and the graph is large enough for
    the packed path to pay off.

    The bitset engine is numpy-only (its uint64 word kernels have no
    backend representation): an explicit ``bitset`` request under a
    non-host backend warns and runs the host bitset path; ``auto`` under
    a non-host backend picks dense — the path the backend accelerates.
    """
    if engine not in _ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(_ENGINES)}; got {engine!r}"
        )
    supported = bool(getattr(channel_model, "supports_bitset", False))
    if engine == "bitset":
        if not backend.is_host:
            warnings.warn(
                "the packed-bitset engine is numpy-only; ignoring backend "
                f"{backend.name!r} and running the host bitset path",
                RuntimeWarning,
                stacklevel=3,
            )
        if not workload.set_semantics:
            warnings.warn(
                f"workload {workload.name!r} folds per-cell values and "
                "cannot run packed; falling back to dense",
                RuntimeWarning,
                stacklevel=3,
            )
            return "dense"
        if not supported:
            warnings.warn(
                f"channel {channel_model.name!r} does not support the "
                "packed-bitset engine; falling back to dense",
                RuntimeWarning,
                stacklevel=3,
            )
            return "dense"
        return "bitset"
    if engine == "dense":
        return "dense"
    if (
        backend.is_host
        and workload.set_semantics
        and supported
        and not legacy_hooks_specialized(protocol)
        and bool(getattr(type(protocol), "words_native", False))
        and n >= _AUTO_BITSET_MIN_N
    ):
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
    backend=None,
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
        the protocol's ``channel_feedback`` hooks, and measures completion
        against the channel's coverage targets (crashed processors are
        not waited for).
    engine:
        ``"dense"``, ``"bitset"``, or ``"auto"`` (see the module
        docstring).  Explicit ``bitset`` on an unsupported channel or a
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
    backend:
        Array backend the dense engine's kernels run on
        (:mod:`repro.backend`): an
        :class:`~repro.backend.ArrayBackend`, a registry name
        (``"torch"``, ``"torch:cuda"``), or ``None`` for host numpy —
        the bit-for-bit default.  Resolved once per call (before any
        memory-budget sharding), so an unavailable accelerator warns
        exactly once and the whole batch runs on numpy.  Results are
        host numpy arrays regardless of backend.
    """
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
    # A protocol whose class specializes the legacy single-run hooks more
    # deeply than the batch hooks (e.g. a DecayProtocol subclass overriding
    # only `transmitters`) must run through the per-trial clone adapter, or
    # its overrides would be silently bypassed by the inherited vectorized
    # path.
    face = (
        BroadcastProtocol if legacy_hooks_specialized(protocol) else
        type(protocol)
    )
    # Resolved once, before any sharding: a missing accelerator extra
    # warns exactly once per call, not once per memory-budget shard.
    bk = resolve_backend(backend)
    resolved = _resolve_engine(
        engine, protocol, channel_model, graph.n, workload, bk
    )

    telemetry = bool(telemetry)
    budget = _as_memory_budget(memory_budget)
    if budget is not None:
        shard = budget.max_trials(graph.n, resolved)
        if shard < trials:
            parts = [
                _run_resolved(
                    resolved, graph, protocol, face, channel_model,
                    workload, max_rounds, trial_rngs[start : start + shard],
                    telemetry, bk,
                )
                for start in range(0, trials, shard)
            ]
            return merge_batches(parts)
    return _run_resolved(
        resolved, graph, protocol, face, channel_model,
        workload, max_rounds, trial_rngs, telemetry, bk,
    )


def _run_resolved(
    resolved, graph, protocol, face, channel_model, workload, max_rounds,
    trial_rngs, telemetry=False, backend=None,
) -> BatchBroadcastResult:
    if resolved == "bitset":
        # Numpy-only by contract — the resolver already warned if a
        # non-host backend was requested alongside an explicit bitset.
        return _run_bitset(
            graph, protocol, face, channel_model, workload, max_rounds,
            trial_rngs, telemetry,
        )
    return _run_dense(
        graph, protocol, face, channel_model, workload, max_rounds,
        trial_rngs, telemetry, backend,
    )


def _run_dense(
    graph, protocol, face, channel_model, workload, max_rounds, trial_rngs,
    telemetry=False, backend=None,
) -> BatchBroadcastResult:
    """The ``(n, T)`` bool-matrix engine with trial compaction.

    The working state (``satisfied``, transmit masks, reception, value
    folds) lives on ``backend``; protocol coin flips, channel coins,
    bookkeeping (first-informed rounds, energy tallies, the count log)
    and every result array stay host numpy, with explicit
    ``asarray``/``to_numpy`` transfer at the boundaries.  On the host
    backend every transfer is an identity ``np.asarray`` — the loop is
    bit-for-bit the pre-backend engine.
    """
    trials = len(trial_rngs)
    network = RadioNetwork(graph, channel=channel_model, backend=backend)
    bk = network.backend
    face.reset_batch(protocol, network, workload.protocol_source, trial_rngs)
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
    targets_b = None if targets is None else bk.asarray(targets)

    def colsum(mat):
        # Per-trial column sums, always landing host-side int64.
        return bk.to_numpy(mat.sum(axis=0)).astype(np.int64, copy=False)

    n, T = graph.n, trials
    satisfied = bk.asarray(state.initial_satisfied())
    first_round = np.full((n, T), -1, dtype=np.int64)
    first_round[bk.to_numpy(satisfied)] = 0
    completed = np.zeros(T, dtype=bool)
    rounds = np.zeros(T, dtype=np.int64)
    transmissions = np.zeros(T, dtype=np.int64)
    # Per round: (still-active trial ids, their satisfied counts) — assembled
    # into the dense (R, T) matrix at the end.
    count_log: list[tuple[np.ndarray, np.ndarray]] = []
    tel = TelemetryAccumulator(T) if telemetry else None

    # Completed trials are compacted out of the working set, so late rounds
    # (only the slowest trials still running) cost proportionally less —
    # the batch pays the mean trial length, not T times the max.
    active = np.arange(T)
    counts0 = colsum(satisfied)
    covered0 = counts0 if targets is None else colsum(satisfied[targets_b, :])
    done0 = covered0 >= need
    if done0.any():
        completed[done0] = True
        keep = ~done0
        active = active[keep]
        satisfied = satisfied[:, bk.asarray(keep)]
        if active.size:
            face.select_trials(protocol, keep)
            network.channel.select_trials(keep)
            state.select_trials(keep)

    round_index = 0
    while round_index < max_rounds and active.size:
        eligible = state.transmit_eligible(satisfied)
        # Protocols are host-side (their coins come from the counter RNG,
        # always drawn on numpy): eligibility crosses to host, the
        # produced mask crosses back.
        mask = bk.asarray(
            face.transmitters_batch(
                protocol, round_index, bk.to_numpy(eligible), network
            )
        )
        mask = mask & eligible
        mask = network.channel.effective_transmitters(round_index, mask)
        transmissions[active] += colsum(mask)
        if tel is not None:
            # The channel's own sparse product, pulled forward and primed
            # into the network's identity cache: victims read it here, the
            # channel's deliver reuses it — counts run once either way.
            tcounts = network.transmit_counts(mask)
            network.prime_transmit_counts(mask, tcounts)
        received = network.step(mask, round_index)
        feedback = network.channel.feedback
        if feedback is not None:
            face.channel_feedback_batch(
                protocol, round_index, bk.to_numpy(feedback), network
            )
        fresh = state.fold(round_index, mask, received, satisfied, network)
        if tel is not None:
            # Victims are counted against the base adjacency on every
            # channel (the legacy tracer's convention: lossy channels show
            # as receptions < contacts, not as fewer collisions).  A
            # transmitter is wasted when no neighbour received — a receiver
            # hears its unique transmitting neighbour, so any receiving
            # neighbour is a delivery credit.
            tel.append_active(
                active,
                transmitters=colsum(mask),
                receptions=colsum(received),
                collision_victims=colsum((tcounts >= 2) & ~mask),
                newly_informed=colsum(fresh),
                wasted_transmissions=colsum(
                    mask & ~(network.transmit_counts(received) > 0)
                ),
            )
        round_index += 1
        rounds[active] += 1
        satisfied |= fresh
        # One flat index pass, split by divmod: much cheaper than the
        # per-axis nonzero on a sparse (n, active) frontier.
        fresh_np = bk.to_numpy(fresh)
        rows, cols = np.divmod(np.flatnonzero(fresh_np), fresh_np.shape[1])
        first_round[rows, active[cols]] = round_index
        counts = colsum(satisfied)
        count_log.append((active, counts))
        if targets is None:
            covered = counts
        else:
            covered = colsum(satisfied[targets_b, :])
        keep = covered < need
        if not keep.all():
            completed[active[~keep]] = True
            active = active[keep]
            satisfied = satisfied[:, bk.asarray(keep)]
            face.select_trials(protocol, keep)
            network.channel.select_trials(keep)
            state.select_trials(keep)

    # Rows past a trial's completion hold its final satisfied count (= n for
    # full-coverage channels); holes only appear after a trial leaves the
    # working set, so a running maximum fills them.
    informed_per_round = np.full((round_index, T), -1, dtype=np.int64)
    for r, (idx, counts) in enumerate(count_log):
        informed_per_round[r, idx] = counts
    if round_index:
        # Trials done before round 1 never enter the count log; their
        # columns hold the initial count throughout (broadcast never hits
        # this — its initial coverage is all-or-nothing across trials).
        if done0.any():
            informed_per_round[0, done0] = counts0[done0]
        np.maximum.accumulate(informed_per_round, axis=0, out=informed_per_round)

    extras = state.extras
    if tel is not None:
        extras = {**extras, **tel.extras()}
    return BatchBroadcastResult(
        trials=T,
        rounds=rounds,
        completed=completed,
        informed_per_round=informed_per_round,
        first_informed_round=first_round,
        transmissions=transmissions,
        extras=extras,
    )


def _run_bitset(
    graph, protocol, face, channel_model, workload, max_rounds, trial_rngs,
    telemetry=False,
) -> BatchBroadcastResult:
    """The packed-word backend: trial state 64-to-a-word, CSR gathers.

    Instead of compacting completed trials, their bits are cleared from
    the packed ``running`` mask: they stop transmitting (so other trials'
    reception is unaffected — exactly what dense compaction achieves) and
    their frozen informed words keep contributing their final counts to
    ``informed_per_round``, matching the dense engine's row-fill
    semantics.  Counter-based randomness means never-compacted per-trial
    keys index the same streams either way — the bit-for-bit anchor.

    Only set-semantics workloads run here (``_resolve_engine`` guarantees
    it): satisfaction is a bit, so the workload's whole contribution is
    the packed initial matrix — the fold is the engine's own
    ``received & ~informed``.
    """
    from repro.radio.bitset import (
        TransmissionTally,
        any_neighbor_words,
        any_neighbor_words_at,
        full_mask_words,
        neighbor_fold_words,
        pack_bool_matrix,
        scatter_neighbor_words,
        unpack_words,
        word_column_counts,
    )

    trials = len(trial_rngs)
    network = RadioNetwork(graph, channel=channel_model)
    face.reset_batch(protocol, network, workload.protocol_source, trial_rngs)
    network.channel.reset(network, trial_rngs)
    # Workload last — the same draw order as the dense engine, which is
    # what makes gossip's random sources engine-independent.
    state = workload.make_state(network, trial_rngs)
    targets = network.channel.coverage_targets(network)
    need = graph.n if targets is None else int(np.count_nonzero(targets))
    words_native = bool(getattr(face, "words_native", False))

    n, T = graph.n, trials
    trial_mask = full_mask_words(T)
    initial = state.initial_satisfied()
    informed_words = pack_bool_matrix(initial)
    running = trial_mask.copy()
    active_mask = np.ones(T, dtype=bool)
    # Rows with any informed bit, maintained incrementally: the engine's
    # hint to the protocol's word face (uninformed rows cannot transmit)
    # and the restriction for the popcount passes below.
    informed_any = initial.any(axis=1)

    first_round = np.full((n, T), -1, dtype=np.int64)
    first_round[initial] = 0
    completed = np.zeros(T, dtype=bool)
    rounds = np.zeros(T, dtype=np.int64)
    transmissions = np.zeros(T, dtype=np.int64)
    count_rows: list[np.ndarray] = []
    # Informed counts are maintained incrementally — informed state is
    # monotone, so each round adds exactly the popcount of its fresh bits
    # (restricted to the touched rows) instead of re-counting (n, W).
    counts = word_column_counts(informed_words[np.flatnonzero(informed_any)])[:T]
    covered = (
        counts
        if targets is None
        else word_column_counts(informed_words[targets])[:T]
    )

    done0 = covered >= need
    if done0.any():
        completed[done0] = True
        active_mask &= ~done0
        running = pack_bool_matrix(active_mask[None, :])[0]

    # Energy totals accrue through bit-sliced counter planes, drained
    # (transposed + popcounted) every few dozen rounds instead of paying a
    # 64×64 transpose per round.
    tally = TransmissionTally()
    tel = TelemetryAccumulator(T) if telemetry else None
    tel_zeros = np.zeros(T, dtype=np.int64)

    def tel_rows(words_mat: np.ndarray) -> np.ndarray:
        # flatnonzero on the single word column skips the bool cast a
        # reduction over the trial axis would pay.
        if words_mat.shape[1] == 1:
            return np.flatnonzero(words_mat[:, 0])
        return np.flatnonzero(words_mat.any(axis=1))

    def tel_nnz(words_mat: np.ndarray) -> int:
        # Row-count probe: SIMD count_nonzero costs a fraction of
        # materializing the index vector, so dense rounds can pick the
        # full-matrix path without ever allocating row indices.
        if words_mat.shape[1] == 1:
            return int(np.count_nonzero(words_mat[:, 0]))
        return int(np.count_nonzero(words_mat.any(axis=1)))

    def tel_counts_at(words_mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # Per-trial counts restricted to the rows that can contribute —
        # exact (all-zero rows add nothing to any column) and much
        # cheaper in the sparse rounds decay spends most of its schedule
        # in; near-dense matrices fall through to the full popcount (the
        # gather stops paying for itself around 90% row density).
        if rows.size == 0:
            return tel_zeros
        if 10 * rows.size >= 9 * n:
            return word_column_counts(words_mat)[:T]
        return word_column_counts(words_mat[rows])[:T]

    def tel_counts(words_mat: np.ndarray) -> np.ndarray:
        return tel_counts_at(words_mat, tel_rows(words_mat))

    round_index = 0
    informed_rows = np.flatnonzero(informed_any)
    while round_index < max_rounds and active_mask.any():
        if words_native:
            tw = face.transmitters_words(
                protocol, round_index, informed_words, network,
                rows=informed_rows, active=active_mask,
            )
            tw &= informed_words
        else:
            # Pack/unpack adapter for protocols without a word face: the
            # adapter drives completed trials too, but their columns are
            # masked out below and per-trial state keeps them independent.
            informed = unpack_words(informed_words, T)
            mask = face.transmitters_batch(protocol, round_index, informed, network)
            tw = pack_bool_matrix(mask & informed)
        tw &= running
        if tel is None:
            # With telemetry on, the exact per-round transmitter counts
            # below already carry the energy totals (transmissions is
            # their running sum), so the tally's counter planes are
            # skipped entirely rather than paid twice.
            tally.add(tw)
            if round_index % _TALLY_DRAIN_ROUNDS == _TALLY_DRAIN_ROUNDS - 1:
                drained = tally.drain(T)
                if drained is not None:
                    transmissions += drained
        if tel is not None:
            # One pair fold yields both reception and collision structure:
            # exactly-one is primed into the network's identity cache so
            # the channel's deliver reuses it — the fold runs once either
            # way, telemetry's net cost is popcounts plus one OR fold.
            once, twice = neighbor_fold_words(graph.csr, tw)
            # Victim rows are a subset of twice's nonzero rows, so the
            # mask and its counts are built on that restriction directly.
            vic_nnz = tel_nnz(twice)
            if vic_nnz == 0:
                vict_counts = tel_zeros
            elif 10 * vic_nnz < 9 * n:
                vic_rows = tel_rows(twice)
                vict_counts = word_column_counts(
                    twice[vic_rows] & ~tw[vic_rows]
                )[:T]
            else:
                vict_counts = word_column_counts(twice & ~tw)[:T]
            # twice is dead after the victim counts — reduce the pair to
            # exactly-one in place rather than allocating a third plane.
            np.invert(twice, out=twice)
            np.bitwise_and(once, twice, out=once)
            network.prime_exactly_one_words(tw, once)
        received_words = network.step_words(tw, round_index)
        fresh = received_words & ~informed_words
        round_index += 1
        rounds[active_mask] += 1
        informed_words |= fresh
        newly = None
        touched = np.flatnonzero(fresh.any(axis=1))
        if touched.size:
            informed_any[touched] = True
            # Row-blocked scatter: bounds the unpack/nonzero transients to
            # a few MiB however wide the frontier gets.
            for s in range(0, touched.size, _SCATTER_ROW_BLOCK):
                blk = touched[s : s + _SCATTER_ROW_BLOCK]
                rr, tt = np.nonzero(unpack_words(fresh[blk], T))
                first_round[blk[rr], tt] = round_index
            fresh_touched = fresh[touched]
            newly = word_column_counts(fresh_touched)[:T]
            counts = counts + newly
            if targets is not None:
                covered = covered + word_column_counts(
                    fresh_touched[targets[touched]]
                )[:T]
            if informed_rows.size < n:
                informed_rows = np.flatnonzero(informed_any)
        count_rows.append(counts)
        if tel is not None:
            # Wasted transmissions only exist at transmitter rows, so the
            # neighbour-OR fold is evaluated there alone when sparse (and
            # the gathered tw rows are reused for the transmitter counts);
            # the restricted fold stops winning around 60% row density.
            # Past that — the blast rounds — almost nobody *receives*, so
            # the fold flips to a push from the scarce receiver rows.
            tx_nnz = tel_nnz(tw)
            recv_nnz = tel_nnz(received_words)
            # Row indices are materialized only for genuinely sparse
            # matrices; the scatter trigger (below 1/(4d) density) is
            # always inside that regime.
            recv_rows = (
                tel_rows(received_words)
                if recv_nnz and 10 * recv_nnz < 9 * n
                else None
            )
            if tx_nnz == 0:
                tx_counts = wasted_counts = tel_zeros
            elif 5 * tx_nnz < 3 * n:
                tx_rows = tel_rows(tw)
                tw_sub = tw[tx_rows]
                tx_counts = word_column_counts(tw_sub)[:T]
                if recv_nnz == 0:
                    # No receptions anywhere: every transmission in every
                    # trial was wasted, no fold needed.
                    wasted_counts = tx_counts
                else:
                    heard_sub = any_neighbor_words_at(
                        graph.csr, received_words, tx_rows
                    )
                    # The fold result is freshly allocated — mask it in
                    # place instead of building a third m-row plane.
                    np.invert(heard_sub, out=heard_sub)
                    heard_sub &= tw_sub
                    wasted_counts = word_column_counts(heard_sub)[:T]
            else:
                tx_counts = word_column_counts(tw)[:T]
                if recv_nnz == 0:
                    wasted_counts = tx_counts
                else:
                    if (
                        recv_rows is not None
                        and 4 * graph.csr.max_degree * recv_nnz < n
                    ):
                        heard = scatter_neighbor_words(
                            graph.csr, received_words, recv_rows
                        )
                    else:
                        heard = any_neighbor_words(graph.csr, received_words)
                    np.invert(heard, out=heard)
                    heard &= tw
                    wasted_counts = tel_counts(heard)
            transmissions += tx_counts
            if recv_nnz == 0:
                recv_counts = tel_zeros
            elif recv_rows is None:
                recv_counts = word_column_counts(received_words)[:T]
            else:
                recv_counts = word_column_counts(received_words[recv_rows])[:T]
            tel.append_full(
                transmitters=tx_counts,
                receptions=recv_counts,
                collision_victims=vict_counts,
                newly_informed=newly if newly is not None else tel_zeros,
                wasted_transmissions=wasted_counts,
            )
        if targets is None:
            covered = counts
        done = (covered >= need) & active_mask
        if done.any():
            completed |= done
            active_mask &= ~done
            running = pack_bool_matrix(active_mask[None, :])[0]

    if tel is None:
        drained = tally.drain(T)
        if drained is not None:
            transmissions += drained
    informed_per_round = (
        np.stack(count_rows)
        if count_rows
        else np.zeros((0, T), dtype=np.int64)
    )

    extras = state.extras
    if tel is not None:
        extras = {**extras, **tel.extras()}
    return BatchBroadcastResult(
        trials=T,
        rounds=rounds,
        completed=completed,
        informed_per_round=informed_per_round,
        first_informed_round=first_round,
        transmissions=transmissions,
        extras=extras,
    )


def run_broadcast(
    graph: Graph,
    protocol: BroadcastProtocol,
    source: int = 0,
    max_rounds: int | None = None,
    seed=None,
    channel: ChannelModel | None = None,
    engine: str = "auto",
    backend=None,
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
        backend=backend,
    )
    return batch.trial(0)
