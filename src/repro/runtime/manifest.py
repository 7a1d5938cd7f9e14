"""Sweep manifests: the resume ledger of the experiment runtime.

A manifest pins everything a sweep run decided up front — grid order, the
full derived seed list, one content-addressed task key per scheduled
scenario — as a JSON document under ``<cache>/manifests/<sweep_id>.json``.
Because seeds are recorded explicitly, resuming does not re-derive
randomness: an interrupted run (or the same
:class:`~repro.scenario.ScenarioSweep` issued again) rebuilds the
identical manifest (:meth:`ScenarioSweep.manifest
<repro.scenario.ScenarioSweep.manifest>`), checks each task key against
the store, and computes only what is missing.  Parallel, resumed, and
serial runs therefore return bit-for-bit identical point lists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.runtime.store import ResultStore, canonical_dumps

__all__ = ["SweepManifest"]


@dataclass(frozen=True)
class SweepManifest:
    """The persisted identity and task ledger of one sweep.

    Attributes
    ----------
    fn:
        The result view the tasks compute: ``"scenario:summary"`` or
        ``"scenario:result"``.
    mode:
        ``"fn"``: one task per (grid point, repetition).  Scenario sweeps
        have no other mode; the field stays in the payload so that
        ``sweep_id`` is stable across versions.
    space, repetitions, static:
        The sweep definition: the grid (specs rendered as strings), the
        repetition count, and the base scenario's canonical dict.
    seeds:
        The flat derived seed list, grid-major (``len(grid) * repetitions``).
    keys:
        One content address per task, in schedule order.
    salt:
        The store salt the keys were computed under.
    walls:
        Optional per-task compute wall times (seconds, schedule order;
        ``None`` entries are unmeasured).  Recorded after a run so a
        resumed sweep can report the time its cache replays saved.  Not
        part of the sweep identity: ``sweep_id`` ignores it, so a manifest
        with walls overwrites its wall-less predecessor in place.
    """

    fn: str
    mode: str
    space: dict[str, list]
    repetitions: int
    static: Any
    seeds: list[int]
    keys: list[str]
    salt: str
    walls: list | None = None

    @property
    def sweep_id(self) -> str:
        """Stable short id of the sweep definition (not of its results)."""
        identity = canonical_dumps(
            {
                "fn": self.fn,
                "mode": self.mode,
                "space": self.space,
                "repetitions": self.repetitions,
                "static": self.static,
                "seeds": self.seeds,
                "salt": self.salt,
            }
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:16]

    @property
    def task_count(self) -> int:
        return len(self.keys)

    def pending(self, store: ResultStore) -> list[int]:
        """Indices of tasks whose results are not (decodably) in ``store``."""
        return [i for i, key in enumerate(self.keys) if not store.contains(key)]

    def progress(self, store: ResultStore) -> tuple[int, int]:
        """``(completed, total)`` task counts against ``store``."""
        return self.task_count - len(self.pending(store)), self.task_count

    def to_payload(self) -> dict:
        payload = {
            "sweep_id": self.sweep_id,
            "fn": self.fn,
            "mode": self.mode,
            "space": self.space,
            "repetitions": self.repetitions,
            "static": self.static,
            "seeds": self.seeds,
            "keys": self.keys,
            "salt": self.salt,
        }
        if self.walls is not None:
            payload["walls"] = self.walls
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepManifest":
        return cls(
            fn=payload["fn"],
            mode=payload["mode"],
            space={k: list(v) for k, v in payload["space"].items()},
            repetitions=int(payload["repetitions"]),
            static=payload["static"],
            seeds=[int(s) for s in payload["seeds"]],
            keys=list(payload["keys"]),
            salt=payload["salt"],
            # Absent in manifests written before wall recording existed.
            walls=payload.get("walls"),
        )

    def with_walls(self, walls: Sequence[float | None]) -> "SweepManifest":
        """This manifest with per-task wall times attached (same
        ``sweep_id`` — walls are bookkeeping, not identity)."""
        walls = list(walls)
        if len(walls) != len(self.keys):
            raise ValueError(
                f"walls list has {len(walls)} entries for "
                f"{len(self.keys)} tasks"
            )
        return dataclasses.replace(self, walls=walls)

    def path_in(self, store: ResultStore) -> str:
        return os.path.join(store.manifests_dir, self.sweep_id + ".json")

    def save(self, store: ResultStore) -> str:
        """Persist under the store's manifest directory; returns the path.

        The payload is already pure JSON (specs are rendered as their
        strings and canonical dicts when the manifest is built), so it
        round-trips to an identical ``sweep_id``.
        """
        from repro.runtime.store import _atomic_write_bytes

        path = self.path_in(store)
        _atomic_write_bytes(
            path, (json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n").encode()
        )
        return path

    @classmethod
    def load(cls, store: ResultStore, sweep_id: str) -> "SweepManifest":
        path = os.path.join(store.manifests_dir, sweep_id + ".json")
        with open(path, encoding="utf-8") as fh:
            return cls.from_payload(json.load(fh))

    @classmethod
    def list_ids(cls, store: ResultStore) -> list[str]:
        """Sweep ids with a manifest on disk, sorted."""
        if not os.path.isdir(store.manifests_dir):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(store.manifests_dir)
            if name.endswith(".json")
        )
