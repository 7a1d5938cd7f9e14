"""repro.runtime — parallel experiment execution, caching, and resume.

The execution layer under every sweep and bench:

* :mod:`repro.runtime.executor` — :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor` behind one interface; per-task
  derived seeds make their results bit-for-bit identical.
* :mod:`repro.runtime.store` — the content-addressed :class:`ResultStore`
  (a JSON document plus, when the result holds arrays, one narrowed
  ``uint8`` array blob in a ``.npz`` sidecar, under ``results/cache/``)
  keyed by (function, params, seed, code salt).
* :mod:`repro.runtime.manifest` — :class:`SweepManifest`, the persisted
  task ledger that makes interrupted sweeps resumable.
* :mod:`repro.runtime.tasks` — picklable task functions the CLI and
  benches schedule.

Quickstart::

    from repro.analysis import run_sweep
    from repro.runtime import ParallelExecutor, ResultStore
    from repro.runtime.tasks import chain_broadcast_point

    points = run_sweep(
        {"s": [4, 8], "layers": [2, 4]},
        chain_broadcast_point,
        seed=0,
        repetitions=4,
        static_params={"trials": 16},
        executor=ParallelExecutor(4),      # farm grid points across cores
        cache=ResultStore("results/cache"),  # warm reruns replay instantly
    )

Scenario-first equivalent (the canonical task payload is the pickled
spec itself)::

    from repro.scenario import Scenario

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
    plan_sweep,
)
from repro.runtime.manifest import SweepManifest, build_manifest
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
    "build_manifest",
    "canonical_dumps",
    "code_salt",
    "default_jobs",
    "expansion_key",
    "plan_sweep",
    "scenario_key",
    "task_key",
    "write_json_payload",
]
