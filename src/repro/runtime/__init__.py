"""repro.runtime — parallel experiment execution, caching, and resume.

The execution layer under every sweep and bench:

* :mod:`repro.runtime.executor` — :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor` behind one interface; per-task
  derived seeds make their results bit-for-bit identical.
* :mod:`repro.runtime.store` — the content-addressed :class:`ResultStore`
  (a JSON document plus, when the result holds arrays, one narrowed
  ``uint8`` array blob in a ``.npz`` sidecar, under ``results/cache/``)
  keyed by a scenario's canonical dict (or a task's function, params
  and seed) plus a code salt.
* :mod:`repro.runtime.manifest` — :class:`SweepManifest`, the persisted
  task ledger that makes interrupted sweeps resumable.

Quickstart — a scenario grid, farmed across cores and content-addressed
(the canonical task payload is the pickled spec itself)::

    from repro.runtime import ParallelExecutor, ResultStore
    from repro.scenario import GraphSpec, Scenario, ScenarioSweep

    points = ScenarioSweep(
        base=Scenario.from_string("chain(4, 2) | decay | trials=16"),
        grid={"graph": [GraphSpec.make("chain", s, l)
                        for s in (4, 8) for l in (2, 4)]},
        repetitions=4,
        seed=0,
    ).run(
        executor=ParallelExecutor(4),      # farm grid points across cores
        cache=ResultStore("results/cache"),  # warm reruns replay instantly
    )

One scenario alone shards its trials the same way::

    Scenario.from_string("chain(8, 4) | decay | classic | trials=64").run(
        executor=ParallelExecutor(4), cache=ResultStore("results/cache")
    )
"""

from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    as_executor,
    default_jobs,
)
from repro.runtime.manifest import SweepManifest
from repro.runtime.store import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultStore,
    canonical_dumps,
    code_salt,
    expansion_key,
    scenario_key,
    task_key,
    write_json_payload,
)

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "Executor",
    "ParallelExecutor",
    "ResultStore",
    "SerialExecutor",
    "SweepManifest",
    "as_executor",
    "canonical_dumps",
    "code_salt",
    "default_jobs",
    "expansion_key",
    "scenario_key",
    "task_key",
    "write_json_payload",
]
