"""Executor layer: serial/parallel interchangeability, bit for bit."""

import pytest

from repro.runtime import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    as_executor,
    default_jobs,
)
from repro.scenario import GraphSpec, Scenario, ScenarioSweep, scenario_summary

# Tiny but real workload shared by the equivalence tests: 4 grid points
# x 2 reps = 8 tasks of batched chain broadcast.
CHAINS = [GraphSpec.make("chain", s, l) for s in (2, 4) for l in (2, 3)]
SWEEP = ScenarioSweep(
    base=Scenario(graph=CHAINS[0], trials=2),
    grid={"graph": CHAINS},
    repetitions=2,
    seed=7,
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


class _Reversed(Executor):
    """Implements only the timed primitive, completing calls last-first."""

    def imap_timed(self, fn, calls):
        for i in reversed(range(len(calls))):
            yield i, fn(**calls[i]), 0.0


class TestExecutorInterface:
    def test_imap_and_map_derive_from_imap_timed(self):
        calls = [{"x": i, "seed": 0} for i in range(3)]
        ex = _Reversed()
        assert list(ex.imap(double, calls)) == [(2, (4, 0)), (1, (2, 0)), (0, (0, 0))]
        # map restores submission order whatever the completion order.
        assert ex.map(double, calls) == SerialExecutor().map(double, calls)

    def test_base_has_no_primitive(self):
        # No untimed fallback: an executor must implement imap_timed.
        with pytest.raises(NotImplementedError):
            Executor().map(double, [{"x": 1, "seed": 0}])

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ParallelExecutor(2)], ids=["serial", "parallel"]
    )
    def test_imap_timed_reports_each_call_once_with_its_wall(self, executor):
        calls = [{"x": i, "seed": i} for i in range(4)]
        timed = list(executor.imap_timed(double, calls))
        assert sorted((i, r) for i, r, _ in timed) == list(
            enumerate(SerialExecutor().map(double, calls))
        )
        assert all(isinstance(w, float) and 0.0 <= w < 60.0 for _, _, w in timed)


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
    """The tentpole contract: identical ScenarioPoint lists, identical order."""

    def test_sweep_identical_across_executors(self):
        serial = SWEEP.run()
        inline = SWEEP.run(executor=SerialExecutor())
        parallel = SWEEP.run(executor=ParallelExecutor(2))
        assert serial == inline == parallel
        # Order is the grid x repetition schedule, not completion order.
        assert [p.overrides for p in parallel] == [p.overrides for p in serial]
        assert [p.scenario.seed for p in parallel] == [
            p.scenario.seed for p in serial
        ]

    def test_executor_accepts_int_jobs(self):
        assert SWEEP.run(executor=2) == SWEEP.run()
