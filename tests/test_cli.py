"""The python -m repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_int_list_parsing(self):
        args = build_parser().parse_args(["core", "--sizes", "2,4,8"])
        assert args.sizes == [2, 4, 8]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_service_verbs_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "9001", "--workers", "3", "--queue", "q.db"])
        assert (args.port, args.workers, args.queue) == (9001, 3, "q.db")
        args = parser.parse_args(
            ["submit", "hypercube(3) | decay", "--url", "http://h:1",
             "--no-stream"])
        assert args.spec == "hypercube(3) | decay"
        assert args.url == "http://h:1"
        assert args.no_stream
        assert parser.parse_args(["jobs", "list", "--state", "done"]).state == "done"
        assert parser.parse_args(["jobs", "show", "abcd"]).id == "abcd"
        assert parser.parse_args(["jobs", "cancel", "abcd"]).id == "abcd"
        with pytest.raises(SystemExit):  # jobs requires a sub-verb
            parser.parse_args(["jobs"])


class TestCommands:
    def test_core(self, capsys):
        assert main(["core", "--sizes", "2,4"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 4.4" in out
        assert "max_unique" in out

    def test_gbad(self, capsys):
        assert main(["gbad", "--s", "4", "--deltas", "4"]) == 0
        out = capsys.readouterr().out
        assert "Gbad" in out

    def test_spokesman_core(self, capsys):
        assert main(["spokesman", "--instance", "core", "--s", "8"]) == 0
        out = capsys.readouterr().out
        assert "EXACT" in out
        assert "recursive" in out

    def test_spokesman_random(self, capsys):
        assert main(["spokesman", "--instance", "random", "--s", "10"]) == 0
        assert "spokesman election" in capsys.readouterr().out

    def test_broadcast(self, capsys):
        assert main(
            ["broadcast", "--s", "4", "--layers", "2,3", "--reps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Decay rounds" in out
        assert "fit:" in out

    def test_hops(self, capsys):
        assert main(["hops", "--s", "4", "--layers", "3", "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-hop rounds" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--graph", "hypercube", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out

    def test_schedule_reps_average(self, capsys):
        assert main(["schedule", "--graph", "hypercube", "--size", "4",
                     "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "over 3 runs" in out

    @pytest.mark.parametrize("argv, decay", [
        (["--graph", "regular", "--size", "6", "--reps", "4", "--seed", "3"],
         "mean 22.5 rounds over 4 runs (min 18, max 32)"),
        (["--graph", "hypercube", "--size", "5", "--reps", "4", "--seed", "0"],
         "mean 16.5 rounds over 4 runs (min 11, max 27)"),
        (["--graph", "grid", "--size", "6", "--seed", "3"], "33 rounds"),
    ])
    def test_schedule_decay_rounds_pinned(self, capsys, argv, decay):
        # Repetition r runs under the r-th seed derived from --seed, as
        # one single-trial run each; the batch must keep those numbers.
        assert main(["schedule", *argv]) == 0
        out = capsys.readouterr().out
        assert f"Decay (distributed, randomized): {decay}\n" in out

    def test_schedule_takes_no_jobs_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--jobs", "2"])

    def test_worstcase(self, capsys):
        assert main(
            ["worstcase", "--n", "256", "--delta", "64", "--beta", "2.0",
             "--eps", "0.45"]
        ) == 0
        out = capsys.readouterr().out
        assert "gap" in out


class TestChannelFlags:
    def test_broadcast_erasure(self, capsys):
        assert main(
            ["broadcast", "--s", "4", "--layers", "2,3", "--reps", "2",
             "--trials", "8", "-S", "channel=erasure(0.1)"]
        ) == 0
        out = capsys.readouterr().out
        assert "channel=erasure(0.1)" in out

    def test_broadcast_jamming_with_faults(self, capsys):
        assert main(
            ["broadcast", "--s", "4", "--layers", "2", "--reps", "1",
             "--trials", "4", "-S", 'channel=jamming(faults="jam@0-2:1,2")']
        ) == 0
        assert 'channel=jamming("jam@0-2:1,2")' in capsys.readouterr().out

    def test_hops_collision_detection_alias(self, capsys):
        assert main(
            ["hops", "--s", "4", "--layers", "3", "--reps", "4",
             "--trials", "2", "-S", "channel=cd"]
        ) == 0
        assert "channel=collision-detection" in capsys.readouterr().out

    def test_channels_table(self, capsys):
        assert main(
            ["channels", "--n", "64", "--trials", "8",
             "--erasure-ps", "0.0,0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "E15" in out
        assert "expander" in out and "chain" in out

    def test_unknown_channel_rejected(self):
        with pytest.raises(SystemExit, match="telepathy"):
            main(["broadcast", "-S", "channel=telepathy"])

    @pytest.mark.parametrize("verb", ["broadcast", "hops", "sweep", "trace"])
    @pytest.mark.parametrize("flag", [
        ["--channel", "erasure"],
        ["--erasure-p", "0.2"],
        ["--faults", "jam@0-2:1,2"],
    ], ids=["channel", "erasure-p", "faults"])
    def test_retired_channel_flags_name_the_override(self, verb, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, *flag])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert f"{flag[0]} was removed" in err and "-S channel=" in err

    @pytest.mark.parametrize("verb, argv", [
        ("broadcast", ["--s", "4", "--layers", "2", "--reps", "1",
                       "--trials", "2"]),
        ("hops", ["--s", "4", "--layers", "2", "--reps", "1", "--trials", "2"]),
        ("sweep", ["--s-values", "4", "--layers", "2", "--reps", "1",
                   "--trials", "2"]),
        ("trace", []),
    ])
    @pytest.mark.parametrize("override, label", [
        ([], "classic"),
        (["-S", "channel=erasure(0.2)"], "erasure(0.2)"),
    ], ids=["default", "erasure"])
    def test_header_names_the_scenario_channel(
        self, verb, argv, override, label, tmp_path, capsys
    ):
        # The header label is the base scenario's channel spec: the
        # default channel without a -S override, the override otherwise.
        if verb == "sweep":
            argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
        assert main([verb, *argv, *override]) == 0
        header = "\n".join(capsys.readouterr().out.splitlines()[:2])
        assert label in header


class TestScenarioFlags:
    # The uniform --scenario/-S builder shared by every simulation verb.
    def test_scenario_flags_everywhere(self):
        parser = build_parser()
        for cmd in ("broadcast", "hops", "channels", "sweep", "expansion"):
            args = parser.parse_args(
                [cmd, "--scenario", "chain(4, 2)", "-S", "trials=4"])
            assert args.scenario == "chain(4, 2)", cmd
            assert args.scenario_set == ["trials=4"], cmd

    def test_broadcast_scenario_single_run(self, capsys):
        assert main(
            ["broadcast", "--scenario", "hypercube(4) | decay | classic",
             "-S", "trials=4", "-S", "seed=3", "--reps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario broadcast" in out
        assert "hypercube(4)" in out

    def test_broadcast_preset_name(self, capsys):
        assert main(
            ["broadcast", "--scenario", "sweep-smoke", "--reps", "1"]
        ) == 0
        # The preset is a chain scenario, so the rich chain table renders.
        out = capsys.readouterr().out
        assert "scenario broadcast" in out
        assert "D·log2(n/D)" in out

    def test_broadcast_set_channel_override(self, capsys):
        assert main(
            ["broadcast", "--s", "4", "--layers", "2", "--reps", "1",
             "-S", "channel=erasure(0.2)", "-S", "trials=4"]
        ) == 0
        assert "channel=erasure(0.2)" in capsys.readouterr().out

    def test_hops_scenario(self, capsys):
        assert main(
            ["hops", "--scenario", "chain(4, 3) | decay | classic",
             "--reps", "3"]
        ) == 0
        assert "per-hop rounds" in capsys.readouterr().out

    def test_hops_rejects_non_chain_scenario(self):
        with pytest.raises(SystemExit):
            main(["hops", "--scenario", "hypercube(4)"])
        # A chain spec with too few arguments gets the same clean error.
        with pytest.raises(SystemExit):
            main(["hops", "--scenario", "chain(4)"])

    def test_set_graph_override_respected_without_scenario_flag(self, capsys):
        # -S graph=... must not be clobbered by the legacy --layers grid.
        assert main(
            ["broadcast", "-S", "graph=hypercube(4)", "-S", "trials=2",
             "--reps", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario broadcast" in out
        assert "hypercube(4)" in out

    def test_explicit_seed_flag_beats_scenario_baked_seed(self, capsys):
        argv = ["broadcast", "--scenario",
                "chain(4, 2) | decay | classic | seed=5", "--reps", "2"]
        assert main(argv + ["--seed", "7"]) == 0
        explicit = capsys.readouterr().out
        assert main(["broadcast", "--scenario", "chain(4, 2) | decay | "
                     "classic | seed=7", "--reps", "2"]) == 0
        baked = capsys.readouterr().out
        assert explicit == baked

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit):
            main(["broadcast", "-S", "frobnicate=1"])
        with pytest.raises(SystemExit):
            main(["broadcast", "-S", "no-equals"])

    def test_channels_scenario_family(self, capsys):
        assert main(
            ["channels", "--n", "64", "--trials", "4",
             "--erasure-ps", "0.0,0.2",
             "--scenario", "hypercube(6) | decay | classic | trials=4"]
        ) == 0
        out = capsys.readouterr().out
        assert "hypercube" in out and "chain" in out

    def test_channels_explicit_seed_beats_baked_seed(self, capsys):
        spec = "hypercube(5) | decay | classic | trials=4"
        assert main(["channels", "--erasure-ps", "0.2",
                     "--scenario", f"{spec} | seed=5", "--seed", "7"]) == 0
        explicit = capsys.readouterr().out
        assert main(["channels", "--erasure-ps", "0.2",
                     "--scenario", f"{spec} | seed=7"]) == 0
        assert explicit == capsys.readouterr().out

    def test_channels_rejects_channel_override(self):
        with pytest.raises(SystemExit):
            main(["channels", "-S", "channel=erasure(0.5)"])

    def test_hops_explicit_seed_beats_baked_seed(self, capsys):
        spec = "chain(4, 3) | decay | classic"
        assert main(["hops", "--scenario", f"{spec} | seed=5",
                     "--seed", "7", "--reps", "3"]) == 0
        explicit = capsys.readouterr().out
        assert main(["hops", "--scenario", f"{spec} | seed=7",
                     "--reps", "3"]) == 0
        assert explicit == capsys.readouterr().out

    def test_bad_scenario_scalar_is_clean_error(self):
        with pytest.raises(SystemExit):
            main(["broadcast", "--scenario", "chain(4, 2) | trials=none"])
        with pytest.raises(SystemExit):
            main(["hops", "--scenario", "chain(4, 2) | broadcast(source=1)",
                  "--reps", "2"])

    def test_cli_rejects_source_override(self):
        # Scenario.source is retired: -S source= is the tombstone's clean
        # error, pointing at the workload spelling.
        with pytest.raises(SystemExit, match=r"broadcast\(source=N\)"):
            main(["broadcast", "--scenario", "hypercube(4) | decay | trials=2",
                  "--reps", "1", "-S", "source=1"])

    def test_cli_rejects_unknown_backend(self):
        # The array-backend shim is gone: any non-numpy backend is the
        # tombstone's clean error, and the --backend flag no longer exists.
        with pytest.raises(SystemExit, match="array-backend shim was removed"):
            main(["broadcast", "--scenario", "hypercube(4) | decay | trials=2",
                  "--reps", "1", "-S", "backend=torch"])
        with pytest.raises(SystemExit):
            main(["broadcast", "--reps", "1", "--backend", "numpy"])

    def test_numpy_backend_override_still_runs(self, capsys):
        argv = ["broadcast", "--scenario", "hypercube(4) | decay | trials=2",
                "--reps", "1"]
        assert main(argv + ["-S", "backend=numpy"]) == 0
        with_backend = capsys.readouterr().out
        assert main(argv) == 0
        assert with_backend == capsys.readouterr().out

    def test_bad_graph_override_fails_before_running(self):
        # Eager Scenario.validate: the out-of-domain family parameter is a
        # clean SystemExit at resolution time, not a mid-sweep crash.
        with pytest.raises(SystemExit):
            main(["broadcast", "-S", "graph=erdos_renyi(10, 1.5)"])
        with pytest.raises(SystemExit):
            main(["sweep", "-S", "graph=chain(0, 3)"])


class TestExpansionCommand:
    def test_table_and_cache_counters(self, capsys, tmp_path):
        argv = ["expansion", "-S", "graph=margulis(3)",
                "-E", "sampled(samples=10)", "--seed", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "wireless expansion of margulis(3)" in cold
        assert "beta_w" in cold
        assert "cache: 0 hits, 1 misses" in cold
        # Warm rerun must be a pure replay with identical numbers.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in warm
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]

    def test_multiple_estimators(self, capsys, tmp_path):
        assert main(
            ["expansion", "-S", "graph=hypercube(4)",
             "-E", "sampled(samples=10)", "-E", "exact(max_set_bits=16)",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "upper" in out and "exact" in out

    def test_jobs_matches_serial(self, capsys, tmp_path):
        argv = ["expansion", "-S", "graph=margulis(3)",
                "-E", "sampled(samples=10)"]
        assert main(argv + ["--cache-dir", str(tmp_path / "a")]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--cache-dir", str(tmp_path / "b"),
                            "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Same table rows; only the jobs= banner differs.
        assert serial.splitlines()[1:-1] == parallel.splitlines()[1:-1]

    def test_bad_estimator_rejected(self):
        with pytest.raises(SystemExit):
            main(["expansion", "-E", "magic"])

    def test_estimator_domain_error_is_clean(self, tmp_path):
        # exact on a graph wider than max_set_bits must be a clean
        # SystemExit, not a raw ValueError traceback.
        with pytest.raises(SystemExit, match="cannot run"):
            main(["expansion", "-E", "exact",
                  "--cache-dir", str(tmp_path)])


class TestScenariosCommand:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for marker in ("graph families", "protocols", "channels",
                       "expansion estimators", "named scenarios",
                       "chain-decay", "hypercube", "experiment-bound"):
            assert marker in out, marker

    def test_show_preset(self, capsys):
        assert main(["scenarios", "show", "sweep-smoke"]) == 0
        out = capsys.readouterr().out
        assert "chain(4, 2) | decay | classic | trials=4" in out
        assert "cache key:" in out

    def test_show_spec_string(self, capsys):
        assert main(
            ["scenarios", "show", "hypercube(4) | decay | erasure(0.1)"]
        ) == 0
        out = capsys.readouterr().out
        assert "n=16" in out
        assert "deterministic graph" in out

    def test_show_experiment_id(self, capsys):
        assert main(["scenarios", "show", "E15"]) == 0
        assert "random_regular(256, 8)" in capsys.readouterr().out

    def test_show_unknown(self, capsys):
        assert main(["scenarios", "show", "no-such-thing("]) == 1
        assert "error" in capsys.readouterr().err


class TestUniformExecFlags:
    # Every simulation subcommand exposes the same --seed/--jobs pair.
    COMMANDS = {
        "broadcast": [],
        "hops": [],
        "schedule": [],  # --seed only (one in-process Decay batch)
        "channels": [],
        "sweep": [],
        "expansion": [],
        "spokesman": [],  # --seed only (single-instance election)
        "worstcase": [],  # --seed only
    }

    def test_seed_flag_everywhere(self):
        parser = build_parser()
        for cmd in self.COMMANDS:
            args = parser.parse_args([cmd, "--seed", "42"])
            assert args.seed == 42, cmd

    def test_jobs_flag_on_runtime_commands(self):
        parser = build_parser()
        for cmd in ("broadcast", "hops", "channels", "sweep", "expansion"):
            args = parser.parse_args([cmd, "--jobs", "3"])
            assert args.jobs == 3, cmd
        assert parser.parse_args(["run", "E16", "--jobs", "2"]).jobs == 2

    def test_jobs_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        args = build_parser().parse_args(["broadcast"])
        assert args.jobs == 5

    def test_broadcast_with_jobs_matches_serial(self, capsys):
        argv = ["broadcast", "--s", "4", "--layers", "2,3", "--reps", "2",
                "--trials", "4"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
