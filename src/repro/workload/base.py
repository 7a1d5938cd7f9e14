"""The workload engine-boundary contract: init / fold / done.

A *workload* is the task the radio network is solving — which cells of
the ``(n, T)`` trial matrix start satisfied, how a round's deliveries
advance satisfaction, and when a trial is done.  The broadcast engine
(:func:`repro.radio.broadcast.run_broadcast_batch`) is a generic round
loop over this contract:

* **init** — :meth:`Workload.make_state` builds per-run state from the
  per-trial generators (drawn *after* the protocol and channel reset, so
  the broadcast workload — which draws nothing — stays bit-for-bit the
  pre-workload engine) and :meth:`WorkloadState.initial_satisfied` hands
  the engine the ``(n, T)`` bool matrix of initially-satisfied cells;
* **fold** — each round, :meth:`WorkloadState.fold` turns the delivery
  matrix into the newly-satisfied cells (for set-semantics workloads,
  simply ``received & ~satisfied``; value workloads also fold delivered
  values);
* **done** — a trial completes when its satisfied count reaches the
  channel's coverage target, exactly the broadcast completion rule.

Set-semantics workloads (satisfaction = "holds the rumor") run on both
the dense and packed-bitset backends; value workloads (aggregation,
pipelining) carry per-cell integers and are dense-only.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["SetWorkloadState", "Workload", "WorkloadState"]


class WorkloadState:
    """Per-run engine-facing state (one batch's init/fold/done hooks).

    ``extras`` holds workload-specific result arrays with the trial axis
    *last* (the convention :func:`repro.radio.broadcast.merge_batches`
    concatenates shards on); they are sized for the full trial batch and
    are untouched by trial compaction.
    """

    #: Workload-specific result arrays, trial axis last.
    extras: dict[str, Any]

    def __init__(self, extras: Mapping[str, Any] | None = None):
        self.extras = dict(extras) if extras else {}

    def initial_satisfied(self) -> np.ndarray:
        """The ``(n, T)`` bool matrix of cells satisfied before round 1."""
        raise NotImplementedError

    def transmit_eligible(self, satisfied: np.ndarray) -> np.ndarray:
        """Which cells may transmit this round (``(n, T)`` bool).

        Set-semantics default: exactly the satisfied cells — only rumor
        holders have something to send, the classic broadcast gate.
        """
        return satisfied

    def fold(
        self,
        round_index: int,
        transmitting: np.ndarray,
        received: np.ndarray,
        satisfied: np.ndarray,
        network,
    ) -> np.ndarray:
        """Fold one round's deliveries; returns newly-satisfied cells.

        ``received`` is the channel's delivery matrix (cells that heard a
        clean transmission this round); the returned matrix must be
        disjoint from ``satisfied`` (the engine ors it in and stamps
        ``first_informed_round``).
        """
        return received & ~satisfied

    def select_trials(self, keep: np.ndarray) -> None:
        """Narrow per-trial working arrays to ``keep`` (trial compaction).

        ``extras`` stay full-width; only round-loop working state (value
        matrices, per-trial targets) is compacted.
        """


class SetWorkloadState(WorkloadState):
    """State for set-semantics workloads: a fixed initial rumor set."""

    def __init__(self, initial: np.ndarray, extras=None):
        super().__init__(extras)
        self._initial = initial

    def initial_satisfied(self) -> np.ndarray:
        return self._initial


class Workload:
    """A workload *factory*: validates parameters, builds per-run state.

    Like protocols and channels, workload instances are cheap factories;
    all per-run arrays live in the :class:`WorkloadState` built by
    :meth:`make_state`.
    """

    #: Registry name (matches the WORKLOADS entry).
    name: str = ""

    #: Satisfaction is "holds the single rumor": the packed-bitset engine
    #: can run it.  Value workloads (False) are dense-only.
    set_semantics: bool = True

    #: The source vertex handed to ``protocol.reset_batch`` (protocols
    #: like the spokesman genie precompute schedules from it).
    protocol_source: int = 0

    def check_graph(self, graph) -> None:
        """Eagerly validate parameters against the realized graph."""

    def check_channel(self, channel_model) -> None:
        """Eagerly validate the workload × channel combination.

        Value workloads override this: their delivered-value identity
        (the unique transmitting neighbour's value) requires a channel
        whose receptions are a subset of exactly-one-neighbour events on
        the *static* adjacency, which adversarial jamming breaks.
        """

    def make_state(
        self, network, trial_rngs: Sequence[np.random.Generator]
    ) -> WorkloadState:
        """Build per-run state; may draw from the per-trial generators.

        Called after ``protocol.reset_batch`` and ``channel.reset`` on the
        same generators — per-trial draws keep the memory-budget column
        sharder bit-for-bit (each shard sees its own trials' streams).
        """
        raise NotImplementedError
