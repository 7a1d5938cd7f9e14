"""Detailed broadcast tracing: who transmitted, who collided, who heard.

The plain runner (:mod:`repro.radio.broadcast`) records only progress; the
collision *structure* is what the paper is about, so the traced runner also
counts, per round:

* transmitters,
* successful receptions (exactly one transmitting neighbour, surviving the
  active channel),
* collision victims (silent processors with ≥ 2 transmitting neighbours —
  the vertices wireless expansion is designed to rescue),
* wasted transmissions (transmitters none of whose neighbours received
  this round — a receiver hears its unique transmitting neighbour, so a
  transmitter with no receiving neighbour delivered to nobody).

Experiments use these to show *why* flooding dies on ``C⁺`` (100% of the
frontier collides) while the spokesman schedule keeps the collision rate
near zero.

This module is a thin ``T = 1`` view over the batched telemetry path:
:func:`run_broadcast_traced` runs ``run_broadcast_batch(..., trials=1,
telemetry=True)`` and unpacks the :class:`~repro.obs.telemetry.RoundTelemetry`
column — so the serial tracer, the batch engines, and ``repro trace`` all
report the same numbers by construction.  Semantics preserved from the
legacy serial loop: collision victims are always counted against the
*base* adjacency (lossy channels show as receptions < contacts), and
channel feedback still reaches ``protocol.channel_feedback_batch``.  One
deliberate alignment: completion now follows the channel's coverage
targets (crash-fault channels no longer wait for dead processors), the
same rule every other runner uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.graphs.graph import Graph
from repro.obs.telemetry import RoundTelemetry
from repro.radio.broadcast import run_broadcast_batch
from repro.radio.channel import ChannelModel
from repro.radio.protocols import BroadcastProtocol

__all__ = ["DetailedTrace", "RoundRecord", "run_broadcast_traced"]


@dataclass(frozen=True)
class RoundRecord:
    """Collision accounting for one round."""

    round_index: int
    transmitters: int
    receptions: int
    newly_informed: int
    collision_victims: int
    # Transmitters with zero receiving neighbours this round (defaulted so
    # pre-existing positional construction keeps working).
    wasted_transmissions: int = 0

    @property
    def collision_rate(self) -> float:
        """Fraction of contacted silent processors that collided
        (``victims / (victims + receptions)``; 0 when nobody was contacted)."""
        contacted = self.collision_victims + self.receptions
        return self.collision_victims / contacted if contacted else 0.0

    @property
    def wasted_rate(self) -> float:
        """Fraction of this round's transmissions that reached nobody
        (0 when nobody transmitted)."""
        return (
            self.wasted_transmissions / self.transmitters
            if self.transmitters
            else 0.0
        )


@dataclass(frozen=True)
class DetailedTrace:
    """A full traced broadcast execution."""

    completed: bool
    rounds: tuple[RoundRecord, ...]
    first_informed_round: np.ndarray

    @property
    def total_transmissions(self) -> int:
        """Energy: total (node, round) transmissions."""
        return sum(r.transmitters for r in self.rounds)

    @property
    def total_collision_victims(self) -> int:
        """Total collision events over the run."""
        return sum(r.collision_victims for r in self.rounds)

    @property
    def total_wasted_transmissions(self) -> int:
        """Total transmissions that delivered to nobody."""
        return sum(r.wasted_transmissions for r in self.rounds)

    @property
    def mean_collision_rate(self) -> float:
        """Average per-round collision rate over rounds with contact."""
        rates = [
            r.collision_rate
            for r in self.rounds
            if (r.collision_victims + r.receptions) > 0
        ]
        return float(np.mean(rates)) if rates else 0.0


def run_broadcast_traced(
    graph: Graph,
    protocol: BroadcastProtocol,
    source: int = 0,
    max_rounds: int | None = None,
    seed=None,
    channel: ChannelModel | None = None,
) -> DetailedTrace:
    """Like :func:`repro.radio.broadcast.run_broadcast` but with per-round
    collision accounting.

    ``channel`` selects the reception model; collision-victim counts are
    always computed against the *base* adjacency (the classic collision
    picture), so lossy channels show as receptions < contacts.  Wasted
    transmissions count transmitters with no receiving neighbour.

    Implemented as the ``T = 1`` column of the batched telemetry engine —
    seeded like :func:`~repro.radio.broadcast.run_broadcast`, so the trace
    describes exactly the execution the plain runner would produce.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    batch = run_broadcast_batch(
        graph,
        protocol,
        trials=1,
        source=source,
        max_rounds=max_rounds,
        trial_rngs=[as_rng(seed)],
        channel=channel,
        telemetry=True,
    )
    tel = RoundTelemetry.from_batch(batch)
    records = tuple(
        RoundRecord(
            round_index=r + 1,
            transmitters=int(tel.transmitters[r, 0]),
            receptions=int(tel.receptions[r, 0]),
            newly_informed=int(tel.newly_informed[r, 0]),
            collision_victims=int(tel.collision_victims[r, 0]),
            wasted_transmissions=int(tel.wasted_transmissions[r, 0]),
        )
        for r in range(tel.rounds)
    )
    return DetailedTrace(
        completed=bool(batch.completed[0]),
        rounds=records,
        first_informed_round=batch.first_informed_round[:, 0].copy(),
    )
