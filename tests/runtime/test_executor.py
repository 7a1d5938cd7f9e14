"""Executor layer: serial/parallel interchangeability, bit for bit."""

import pytest

from repro.analysis import run_sweep
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    as_executor,
    default_jobs,
)
from repro.scenario import GraphSpec, Scenario, scenario_summary

# Tiny but real workload shared by the equivalence tests: 4 grid points
# x 2 reps = 8 tasks of batched chain broadcast.
CHAINS = [GraphSpec.make("chain", s, l) for s in (2, 4) for l in (2, 3)]
SPACE = {"graph": CHAINS}
SWEEP_KW = dict(
    scenario=Scenario(graph=CHAINS[0], trials=2), seed=7, repetitions=2
)


def double(x, seed):
    """Module-level (hence picklable) toy task."""
    return (x * 2, seed)


def chain_point(s, layers, seed):
    """Module-level task running one chain scenario in the worker."""
    return scenario_summary(
        Scenario(graph=GraphSpec.make("chain", s, layers), seed=seed)
    )


class TestSerialExecutor:
    def test_map_preserves_order(self):
        calls = [{"x": i, "seed": i * 10} for i in range(5)]
        assert SerialExecutor().map(double, calls) == [
            (2 * i, 10 * i) for i in range(5)
        ]

    def test_imap_yields_in_order(self):
        pairs = list(SerialExecutor().imap(double, [{"x": 1, "seed": 0}]))
        assert pairs == [(0, (2, 0))]


class TestParallelExecutor:
    def test_map_matches_serial_in_order(self):
        calls = [{"x": i, "seed": i} for i in range(6)]
        assert ParallelExecutor(2).map(double, calls) == SerialExecutor().map(
            double, calls
        )

    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(0)

    def test_single_job_runs_inline(self):
        # jobs=1 must not pay for a pool (and must accept non-picklable fns).
        assert ParallelExecutor(1).map(lambda x, seed: x, [{"x": 3, "seed": 0}]) == [3]

    def test_worker_exception_propagates(self):
        # s=3 violates the power-of-two contract inside the worker.
        with pytest.raises(ValueError, match="power of two"):
            ParallelExecutor(2).map(
                chain_point,
                [{"s": 3, "layers": 2, "seed": 0}, {"s": 4, "layers": 2, "seed": 1}],
            )


class TestAsExecutor:
    def test_coercions(self):
        assert isinstance(as_executor(None), SerialExecutor)
        assert isinstance(as_executor(1), SerialExecutor)
        par = as_executor(3)
        assert isinstance(par, ParallelExecutor) and par.jobs == 3
        ex = SerialExecutor()
        assert as_executor(ex) is ex

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="executor"):
            as_executor("four")

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7
        assert default_jobs(fallback=1) == 7  # env wins over the fallback
        assert as_executor(None).jobs == 1  # None is always inline serial

    def test_default_jobs_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs(fallback=1) == 1

    def test_default_jobs_rejects_non_numeric_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            default_jobs()


class TestParallelSerialEquivalence:
    """The tentpole contract: identical SweepPoint lists, identical order."""

    def test_run_sweep_identical_across_executors(self):
        serial = run_sweep(SPACE, **SWEEP_KW)
        inline = run_sweep(SPACE, **SWEEP_KW, executor=SerialExecutor())
        parallel = run_sweep(SPACE, **SWEEP_KW, executor=ParallelExecutor(2))
        assert serial == inline == parallel
        # Order is the grid x repetition schedule, not completion order.
        assert [p.params for p in parallel] == [p.params for p in serial]
        assert [p.seed for p in parallel] == [p.seed for p in serial]

    def test_executor_accepts_int_jobs(self):
        assert run_sweep(SPACE, **SWEEP_KW, executor=2) == run_sweep(
            SPACE, **SWEEP_KW
        )

    def test_batch_mode_through_executor(self):
        def batch(a, seeds):
            return [(a, s) for s in seeds]

        reference = run_sweep({"a": [1, 2]}, seed=5, repetitions=3, batch_fn=batch)
        routed = run_sweep(
            {"a": [1, 2]},
            seed=5,
            repetitions=3,
            batch_fn=batch,
            executor=SerialExecutor(),
        )
        assert routed == reference

    def test_batch_mode_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="results for"):
            run_sweep(
                {"a": [1]},
                seed=0,
                repetitions=2,
                batch_fn=lambda a, seeds: [0],
                executor=SerialExecutor(),
            )
