"""Shared helpers for the experiment benchmarks.

Every ``bench_*.py`` regenerates one experiment from DESIGN.md §4: it
computes the reproduction table, archives it under ``benchmarks/results/``,
asserts the paper's claimed shape, and times the core computation via
pytest-benchmark.

The benches route their plumbing through :mod:`repro.runtime`: every
:func:`emit` call writes a machine-readable ``.json`` sidecar next to the
``.txt`` table via the runtime store's shared JSON writer, and the
``REPRO_JOBS`` environment contract (exported by ``repro run E<k> --jobs
N`` / :func:`repro.analysis.run_experiment`) supplies :data:`JOBS`, the
worker count for benches that schedule through the runtime executor.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.runtime.executor import default_jobs
from repro.runtime.store import write_json_payload

#: CI's bench-smoke job sets ``REPRO_BENCH_SMOKE=1`` to run every bench at
#: tiny scale — the scripts can't silently rot, at a fraction of the cost.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")

#: Worker-process count for runtime-scheduled benches (the ``REPRO_JOBS``
#: contract of ``run_experiment``/``repro run``; E16 honours it).
JOBS = default_jobs(fallback=1)

# Smoke tables land in a scratch subdirectory so a smoke run can never
# clobber the checked-in full-scale tables under results/.
_BASE_RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
RESULTS_DIR = os.path.join(_BASE_RESULTS, "smoke") if SMOKE else _BASE_RESULTS


def scaled(full, smoke):
    """Pick the full-size or smoke-size value of a benchmark knob.

    Statistical/performance acceptance assertions should be kept out of
    smoke runs (they need the full sample sizes); shape and equivalence
    assertions stay on.
    """
    return smoke if SMOKE else full


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def peak_rss_bytes() -> int | None:
    """The process's lifetime peak resident set size in bytes.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; ``None`` where the
    ``resource`` module is unavailable (non-POSIX platforms).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only CI
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def emit(results_dir: str, name: str, text: str, data=None, engine=None) -> None:
    """Print a table, archive it for EXPERIMENTS.md, and write the
    machine-readable ``.json`` sidecar (``data`` carries structured rows;
    the rendered table always rides along).  ``engine`` records which
    broadcast engine produced the numbers (``None`` for benches where the
    distinction doesn't apply); ``peak_rss_bytes`` snapshots the process
    peak RSS at emit time so memory regressions are visible in archived
    sidecars."""
    print("\n" + text)
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    stem = os.path.splitext(name)[0]
    write_json_payload(
        os.path.join(results_dir, stem + ".json"),
        {
            "name": stem,
            "experiment": stem.split("_")[0],
            "smoke": SMOKE,
            "jobs": JOBS,
            "engine": engine,
            "peak_rss_bytes": peak_rss_bytes(),
            "table": text.splitlines(),
            "data": data,
        },
    )
