"""Sweeps over scenario *spec fields* — grids and explicit lists.

:class:`ScenarioSweep` is the one sweep engine: each grid dimension names
a scenario override (``"graph"``, ``"channel.erasure_p"``, ``"trials"``,
…) and each grid point is a concrete scenario.  Canonical spec dicts are
the content-addressed :class:`~repro.runtime.store.ResultStore` keys and
the pickled specs are the :class:`~repro.runtime.executor.ParallelExecutor`
task payloads, with no bespoke task function per study::

    sweep = ScenarioSweep(
        base=Scenario.from_string("chain(8, 2) | decay | classic | trials=8"),
        grid={"graph": ["chain(8, 2)", "chain(8, 4)", "chain(8, 8)"],
              "channel.erasure_p": [0.0, 0.1]},
        repetitions=3,
        seed=0,
    )
    points = sweep.run(executor=4, cache="results/cache")

Seed discipline: one child seed per (grid point, repetition) pair,
``spawn_seeds(as_rng(seed), points * repetitions)`` taken grid-major, so
the same sweep is bit-for-bit identical serial, parallel, or replayed from
a warm cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro._util import as_rng, spawn_seeds
from repro.scenario.spec import Scenario

__all__ = ["ScenarioPoint", "ScenarioSweep"]


@dataclass(frozen=True)
class ScenarioPoint:
    """One evaluated sweep point: the overrides that produced it, the
    concrete scenario, and the result (a summary dict by default)."""

    overrides: dict[str, Any]
    scenario: Scenario
    result: Any


def _jsonable(value: Any) -> Any:
    """Grid values rendered for manifests (specs become their strings)."""
    if hasattr(value, "describe"):
        return value.describe()
    if isinstance(value, Scenario):
        return value.describe()
    return value


class ScenarioSweep:
    """A grid (or explicit list) of scenarios, runnable as one unit.

    Parameters
    ----------
    base:
        The scenario every grid point starts from (grid mode).
    grid:
        Mapping of scenario override keys (see
        :meth:`Scenario.with_overrides`) to value lists; the cartesian
        product is swept in lexicographic-by-key order.
    scenarios:
        Explicit scenario list (specs or strings) — mutually exclusive
        with ``base``/``grid``.
    repetitions:
        Independent repetitions per grid point, each with its own derived
        seed.
    seed:
        Master seed for the per-point seed derivation.  ``None`` with
        ``repetitions == 1`` keeps each scenario's own ``seed`` field
        (spec-first purity); otherwise one seed is derived per
        (grid point, repetition), grid-major.
    """

    def __init__(
        self,
        base: Scenario | str | None = None,
        grid: Mapping[str, Sequence] | None = None,
        scenarios: Sequence[Scenario | str] | None = None,
        repetitions: int = 1,
        seed=None,
    ):
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if (scenarios is None) == (base is None):
            raise ValueError("provide exactly one of base (+grid) and scenarios")
        if scenarios is not None and grid is not None:
            raise ValueError("grid only applies to a base scenario")
        if isinstance(base, str):
            base = Scenario.from_string(base)
        self.base = base
        self.grid = dict(grid) if grid else {}
        self.explicit = (
            None
            if scenarios is None
            else [
                s if isinstance(s, Scenario) else Scenario.from_string(s)
                for s in scenarios
            ]
        )
        self.repetitions = int(repetitions)
        self.seed = seed
        for key, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
                raise TypeError(
                    f"sweep dimension {key!r} must be a non-string sequence"
                )
            if len(values) == 0:
                raise ValueError(f"sweep dimension {key!r} is empty")
            if hasattr(values, "tolist"):
                # numpy arrays: plain Python scalars, so integer fields
                # accept them and spec strings do not read np.float64(…).
                self.grid[key] = values.tolist()

    def _grid_points(self) -> list[dict[str, Any]]:
        keys = sorted(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[k] for k in keys))
        ]

    def points(self) -> list[tuple[dict[str, Any], Scenario]]:
        """The concrete ``(overrides, scenario)`` schedule, grid-major with
        repetitions innermost — seed-expanded and deterministic.

        Every scheduled scenario is eagerly validated
        (:meth:`Scenario.validate`), so a grid containing an
        out-of-domain spec fails here — before any task runs — rather
        than mid-sweep.
        """
        if self.explicit is not None:
            pairs = [({}, sc.validate()) for sc in self.explicit]
        else:
            pairs = [
                (overrides, self.base.with_overrides(overrides).validate())
                for overrides in self._grid_points()
            ]
        if self.seed is None and self.repetitions == 1:
            return pairs
        seeds = spawn_seeds(as_rng(self.seed), len(pairs) * self.repetitions)
        out: list[tuple[dict[str, Any], Scenario]] = []
        for i, (overrides, scenario) in enumerate(pairs):
            for seed in seeds[i * self.repetitions : (i + 1) * self.repetitions]:
                out.append(
                    (overrides, scenario.with_overrides({"seed": seed}))
                )
        return out

    def scenarios(self) -> list[Scenario]:
        """The concrete scenarios, in schedule order."""
        return [scenario for _, scenario in self.points()]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _view_fn(self, summary: bool):
        from repro.scenario.tasks import run_scenario, scenario_summary

        return (scenario_summary, "summary") if summary else (run_scenario, "result")

    def manifest(self, store, summary: bool = True, points=None):
        """The :class:`~repro.runtime.manifest.SweepManifest` a cached run
        of this sweep executes — scenario keys, in schedule order.

        ``points`` is a schedule already drawn by :meth:`points`; a
        Generator (or ``None``) master seed draws new seeds on every call,
        so :meth:`run` passes its own schedule to key what it evaluates.
        """
        from repro.runtime.executor import as_store
        from repro.runtime.manifest import SweepManifest

        store = as_store(store)
        fn, view = self._view_fn(summary)
        if points is None:
            points = self.points()
        return SweepManifest(
            fn=f"scenario:{view}",
            mode="fn",
            space={k: [_jsonable(v) for v in vs] for k, vs in sorted(self.grid.items())},
            repetitions=self.repetitions,
            static=self.base.to_dict() if self.base is not None else None,
            seeds=[int(sc.seed) for _, sc in points],
            keys=[store.scenario_key(sc, view=view) for _, sc in points],
            salt=store.salt,
        )

    def run(
        self, executor=None, cache=None, summary: bool = True
    ) -> list[ScenarioPoint]:
        """Evaluate every scenario of the sweep.

        ``summary=True`` (default) runs :func:`scenario_summary` (plain
        dicts, table-friendly); ``summary=False`` returns full
        :class:`~repro.radio.broadcast.BatchBroadcastResult` objects.

        ``executor`` schedules one task per scenario across worker
        processes; ``cache`` replays spec-equal completed tasks and
        persists new results as they land (saving the manifest first, so
        interrupted sweeps resume).  Results are bit-for-bit identical
        whichever executor runs them and whether they were computed or
        replayed.
        """
        from repro.runtime.executor import as_executor, as_store

        fn, _ = self._view_fn(summary)
        points = self.points()
        results: list[Any] = [None] * len(points)
        walls: list = [None] * len(points)
        pending = list(range(len(points)))
        store = manifest = None
        if cache is not None:
            from repro.runtime.manifest import SweepManifest

            store = as_store(cache)
            manifest = self.manifest(store, summary=summary, points=points)
            # A prior run may have recorded per-task wall times; recover
            # them so cache replays can credit the compute they skip.
            try:
                prior = SweepManifest.load(store, manifest.sweep_id)
                if prior.walls is not None and len(prior.walls) == len(points):
                    walls = list(prior.walls)
            except (OSError, ValueError, KeyError):
                pass
            manifest = manifest.with_walls(walls)
            manifest.save(store)
            pending = []
            for i, key in enumerate(manifest.keys):
                try:
                    results[i] = store.get(key)
                except KeyError:
                    pending.append(i)
                    continue
                if walls[i]:
                    store.record_time_saved(walls[i])
        calls = [{"scenario": points[i][1]} for i in pending]
        for j, result, seconds in as_executor(executor).imap_timed(fn, calls):
            i = pending[j]
            results[i] = result
            walls[i] = seconds
            if store is not None:
                store.put(
                    manifest.keys[i],
                    result,
                    meta={"scenario": points[i][1].describe()},
                )
        if store is not None and pending:
            manifest.with_walls(walls).save(store)
        return [
            ScenarioPoint(overrides=dict(ov), scenario=sc, result=res)
            for (ov, sc), res in zip(points, results)
        ]
