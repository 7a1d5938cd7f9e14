"""Experiment registry consistency: docs can't rot silently."""

import os

from repro.analysis import EXPERIMENTS, validate_registry

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


class TestRegistry:
    def test_registry_is_clean(self):
        assert validate_registry(BENCH_DIR) == []

    def test_twenty_one_experiments(self):
        assert len(EXPERIMENTS) == 21
        assert [e.id for e in EXPERIMENTS] == [f"E{i}" for i in range(1, 22)]

    def test_every_bench_file_registered(self):
        registered = {e.bench_file for e in EXPERIMENTS}
        registered |= {
            name for e in EXPERIMENTS for name in e.companion_benches
        }
        on_disk = {
            f for f in os.listdir(BENCH_DIR)
            if f.startswith("bench_") and f.endswith(".py")
        }
        assert on_disk == registered

    def test_design_md_mentions_every_experiment(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as fh:
            text = fh.read()
        for exp in EXPERIMENTS:
            assert exp.id in text, f"{exp.id} missing from DESIGN.md"

    def test_experiments_md_mentions_every_experiment(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
            text = fh.read()
        for exp in EXPERIMENTS:
            assert exp.id in text, f"{exp.id} missing from EXPERIMENTS.md"

    def test_validate_reports_missing_bench(self, tmp_path):
        problems = validate_registry(str(tmp_path))
        expected = sum(
            1 + len(e.companion_benches) for e in EXPERIMENTS
        )
        assert len(problems) == expected
        assert all("missing" in p for p in problems)
