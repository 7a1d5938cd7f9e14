"""Batched per-round collision telemetry — the engine-side half of
:mod:`repro.obs`.

The paper reasons about the collision *structure* of a round: who
transmitted, who heard, who was silenced.  The batched engines record that
structure on demand — ``run_broadcast_batch(..., telemetry=True)`` makes
both backends emit, per round × per trial,

* ``transmitters`` — processors that spent energy this round;
* ``receptions`` — successful deliveries (post-channel, so lossy channels
  show as receptions < contacts);
* ``collision_victims`` — silent processors with ≥ 2 transmitting
  neighbours, always counted against the *base* adjacency on every
  channel (the classic collision picture);
* ``newly_informed`` — cells first satisfied this round;
* ``wasted_transmissions`` — transmitters none of whose neighbours
  received this round.  A receiver hears its unique transmitting
  neighbour, so a transmitter is *wasted* exactly when no neighbour shows
  up in the received mask — ``mask & ~(A @ received > 0)`` on the dense
  path, a packed neighbour-OR fold on the bitset path.

The counts ride :class:`~repro.radio.broadcast.BatchBroadcastResult.extras`
under :data:`TELEMETRY_PREFIX`-ed keys — ``(R, T)`` int64 matrices with the
trial axis last, full batch width (completed trials contribute zero rows),
so they concatenate through ``merge_batches`` and memory-budget sharding
like every other extras array (shorter shards are zero-padded: a finished
trial transmits nothing).  Dense and bitset engines produce bit-for-bit
identical telemetry on every configuration both support.

:class:`RoundTelemetry` is the assembled view (``RoundTelemetry.from_batch``)
with the derived rates the experiments plot.  A single traced run is its
``T = 1`` column: ``RoundTelemetry.from_batch(run_broadcast_batch(g, p,
trials=1, trial_rngs=[seed], telemetry=True))`` describes exactly the
execution ``run_broadcast(g, p, seed=seed)`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "TELEMETRY_FIELDS",
    "TELEMETRY_PREFIX",
    "RoundTelemetry",
    "TelemetryAccumulator",
    "telemetry_events",
]

#: Extras-key prefix marking per-round telemetry matrices.  ``merge_batches``
#: zero-pads the round axis of keys carrying it before concatenating shards.
TELEMETRY_PREFIX = "telemetry_"

#: The recorded quantities, in canonical order.
TELEMETRY_FIELDS = (
    "transmitters",
    "receptions",
    "collision_victims",
    "newly_informed",
    "wasted_transmissions",
)


@dataclass(frozen=True)
class RoundTelemetry:
    """Per-round × per-trial collision accounting of one batch run.

    Every field is an ``(R, T)`` int64 matrix (``R`` = rounds the batch
    executed, ``T`` = trials, trial axis last per the extras convention).
    Rows past a trial's completion are zero — a finished trial neither
    transmits nor receives.
    """

    transmitters: np.ndarray
    receptions: np.ndarray
    collision_victims: np.ndarray
    newly_informed: np.ndarray
    wasted_transmissions: np.ndarray

    def __post_init__(self) -> None:
        shape = self.transmitters.shape
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.ndim != 2 or arr.shape != shape:
                raise ValueError(
                    f"telemetry field {f.name} has shape {arr.shape}, "
                    f"expected {shape}"
                )

    @property
    def rounds(self) -> int:
        """Rounds recorded (the batch's global round count)."""
        return int(self.transmitters.shape[0])

    @property
    def trials(self) -> int:
        return int(self.transmitters.shape[1])

    @property
    def contacted(self) -> np.ndarray:
        """``(R, T)`` — silent processors with ≥ 1 transmitting neighbour
        (victims + successful receptions, the collision-rate denominator)."""
        return self.collision_victims + self.receptions

    @property
    def collision_rates(self) -> np.ndarray:
        """``(R, T)`` float — ``victims / (victims + receptions)`` per
        round and trial, 0.0 where nobody was contacted."""
        contacted = self.contacted
        out = np.zeros(contacted.shape, dtype=float)
        np.divide(
            self.collision_victims, contacted, out=out, where=contacted > 0
        )
        return out

    @property
    def wasted_rates(self) -> np.ndarray:
        """``(R, T)`` float — fraction of transmissions that reached
        nobody, 0.0 in rounds without transmitters."""
        out = np.zeros(self.transmitters.shape, dtype=float)
        np.divide(
            self.wasted_transmissions,
            self.transmitters,
            out=out,
            where=self.transmitters > 0,
        )
        return out

    def mean_collision_rate(self) -> float:
        """Mean per-(round, trial) collision rate over cells with contact
        (0.0 when no cell had any)."""
        contacted = self.contacted
        mask = contacted > 0
        if not mask.any():
            return 0.0
        return float(self.collision_rates[mask].mean())

    def totals(self) -> dict[str, np.ndarray]:
        """Per-trial ``(T,)`` totals of every recorded quantity."""
        return {
            name: getattr(self, name).sum(axis=0) for name in TELEMETRY_FIELDS
        }

    def to_extras(self) -> dict[str, np.ndarray]:
        """The extras-dict form the engines emit."""
        return {
            TELEMETRY_PREFIX + name: getattr(self, name)
            for name in TELEMETRY_FIELDS
        }

    @classmethod
    def from_extras(cls, extras: Mapping[str, np.ndarray]) -> "RoundTelemetry":
        """Assemble from a :class:`BatchBroadcastResult.extras` dict.

        Raises ``KeyError`` when the run was not executed with
        ``telemetry=True``.
        """
        missing = [
            name
            for name in TELEMETRY_FIELDS
            if TELEMETRY_PREFIX + name not in extras
        ]
        if missing:
            raise KeyError(
                f"extras carry no telemetry ({missing[0]!r} absent) — run "
                "the batch with telemetry=True"
            )
        return cls(
            **{
                name: np.asarray(extras[TELEMETRY_PREFIX + name])
                for name in TELEMETRY_FIELDS
            }
        )

    @classmethod
    def from_batch(cls, batch) -> "RoundTelemetry":
        """Assemble from a :class:`~repro.radio.broadcast.BatchBroadcastResult`."""
        return cls.from_extras(batch.extras)


class TelemetryAccumulator:
    """Collects one full-width ``(T,)`` count row per field per round
    inside the engines' round loop.

    Both frontiers hand over rows at batch width: the dense one widens its
    compacted rows itself, a retired trial's column reading zero (a frozen
    trial does nothing).
    """

    def __init__(self, trials: int) -> None:
        self.trials = int(trials)
        self._rows: dict[str, list[np.ndarray]] = {
            name: [] for name in TELEMETRY_FIELDS
        }

    def append_full(self, **rows: np.ndarray) -> None:
        """Record one round of full-width ``(T,)`` rows."""
        for name in TELEMETRY_FIELDS:
            self._rows[name].append(np.asarray(rows[name], dtype=np.int64))

    def extras(self) -> dict[str, np.ndarray]:
        """The accumulated ``(R, T)`` matrices as prefixed extras entries."""
        out: dict[str, np.ndarray] = {}
        for name in TELEMETRY_FIELDS:
            rows = self._rows[name]
            out[TELEMETRY_PREFIX + name] = (
                np.stack(rows)
                if rows
                else np.zeros((0, self.trials), dtype=np.int64)
            )
        return out


def telemetry_events(
    telemetry: RoundTelemetry, scenario: str | None = None
) -> Iterator[dict]:
    """Render telemetry as JSONL-able event dicts, one per round.

    Counts are summed across trials and the collision rate is the pooled
    ``victims / contacted`` of the round; the events drop into the same
    sinks as runtime spans and aggregate through ``repro obs summary``.
    """
    for r in range(telemetry.rounds):
        event: dict = {"kind": "telemetry", "round": r + 1}
        if scenario is not None:
            event["scenario"] = scenario
        contacted = 0
        for name in TELEMETRY_FIELDS:
            value = int(getattr(telemetry, name)[r].sum())
            event[name] = value
            if name in ("receptions", "collision_victims"):
                contacted += value
        event["collision_rate"] = (
            event["collision_victims"] / contacted if contacted else 0.0
        )
        yield event
