"""Command-line experiment runner: ``python -m repro <command>``.

Thin orchestration over the library — each subcommand prints one of the
reproduction tables (the benchmark suite regenerates all of them at once;
the CLI is for interactive exploration of single experiments).

Commands
--------
``core``        Lemma 4.4 property sheet over a size sweep.
``gbad``        Lemma 3.3 / Remark 1 table over a (Δ, β) grid.
``spokesman``   Algorithm shoot-out on a chosen instance.
``broadcast``   Section 5 chain scaling against D·log2(n/D).
``hops``        Per-hop timing distribution (concentration check).
``worstcase``   Corollary 4.11 planted bad set.
``channels``    Broadcast degradation across channel/fault models (E15).
``expansion``   Batched wireless-expansion estimation (βw) of a
                scenario's graph, cached and executor-sharded (E17).
``run``         Regenerate a registered experiment (E1–E21) via its bench.
``sweep``       Cached, resumable scenario grid sweep (runtime demo).
``trace``       Per-round collision telemetry of one scenario (E20's
                anatomy view): transmitters, receptions, victims, wasted.
``obs``         Observability: ``summary`` aggregates a ``--trace-out``
                JSONL file (span totals, task latency, cache hit rate).
``cache``       Inspect (``stats``) or wipe (``clear``) the result cache.
``scenarios``   Discover the spec registries (``list``) or inspect one
                scenario's string/dict/key forms (``show``).
``workloads``   Discover the workload registry (``list``) or inspect one
                workload's signature and engine support (``show``).
``serve``       Run the experiment service: the HTTP/JSON API plus a
                local worker pool over the persistent job queue.
``submit``      Submit a scenario spec to a running service and stream
                shard progress (server-sent events) until completion.
``jobs``        Inspect the service queue: ``list``, ``show``,
                ``cancel``.

Every simulation verb routes through the declarative scenario layer
(:mod:`repro.scenario`) and shares one spec builder: ``--scenario SPEC``
replaces the verb's default configuration with a spec string (or preset
name — see ``repro scenarios list``), and repeatable ``-S key=value``
overrides tweak individual fields::

    repro broadcast --scenario "chain(8, 4) | decay | erasure(0.1)" -S trials=64
    repro hops -S channel=cd -S protocol=collision-backoff
    repro sweep --scenario sweep-smoke -S seed=3 --resume

Simulation commands also uniformly take ``--seed`` (master seed) and
``--jobs`` (worker processes; tasks are farmed through
:class:`repro.runtime.ParallelExecutor`, with results bit-for-bit identical
to serial runs).  The legacy ``--channel`` / ``--erasure-p`` / ``--faults``
flags remain as spelling sugar for ``-S channel=...``.

``run``, ``sweep``, ``expansion``, and ``trace`` take ``--trace-out FILE``:
the whole command executes under a :func:`repro.obs.tracing.recording`
whose spans, cache counters, and telemetry events land in ``FILE`` as JSON
Lines — ``repro obs summary FILE`` aggregates them.
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["build_parser", "main"]


def _cmd_core(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.graphs import (
        core_graph,
        core_graph_max_unique_coverage,
        core_graph_min_expansion,
    )

    rows = []
    for s in args.sizes:
        g = core_graph(s)
        exp, _, _ = core_graph_min_expansion(s)
        cap = core_graph_max_unique_coverage(s)
        rows.append(
            [s, g.n_right, int(g.left_degrees[0]), round(g.avg_right_degree, 2),
             exp, cap, round(cap / g.n_right, 4)]
        )
    print(render_table(
        ["s", "|N|", "deg_S", "avg_deg_N", "min_expansion", "max_unique", "fraction"],
        rows, title="Lemma 4.4 core graph"))
    return 0


def _cmd_gbad(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.expansion import (
        bipartite_unique_expansion_exact,
        max_unique_coverage_exact,
    )
    from repro.graphs import gbad, gbad_wireless_lower_bound

    rows = []
    for delta in args.deltas:
        for beta in range((delta + 1) // 2, delta + 1):
            g = gbad(args.s, delta, beta)
            bu, _ = bipartite_unique_expansion_exact(g)
            best, _ = max_unique_coverage_exact(g)
            rows.append(
                [delta, beta, round(bu, 3), 2 * beta - delta,
                 round(best / args.s, 3),
                 round(gbad_wireless_lower_bound(delta, beta), 3)]
            )
    print(render_table(
        ["Δ", "β", "βu exact", "2β-Δ", "βw exact", "remark bound"],
        rows, title=f"Lemma 3.3 Gbad (s={args.s})"))
    return 0


def _cmd_spokesman(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.graphs import core_graph, gbad, random_bipartite
    from repro.spokesman import spokesman_exact, spokesman_portfolio

    if args.instance == "core":
        gs = core_graph(args.s)
    elif args.instance == "gbad":
        gs = gbad(args.s, 6, 4)
    else:
        gs = random_bipartite(args.s, 3 * args.s, 0.25, rng=args.seed)
    best, results = spokesman_portfolio(gs, rng=args.seed)
    rows = [
        [name, r.unique_count, round(r.unique_fraction, 3), r.subset.size]
        for name, r in sorted(results.items())
    ]
    if gs.n_left <= 20:
        opt = spokesman_exact(gs)
        rows.append(["EXACT", opt.unique_count,
                     round(opt.unique_fraction, 3), opt.subset.size])
    print(render_table(
        ["algorithm", "unique", "fraction", "|S'|"], rows,
        title=f"spokesman election on {args.instance}({args.s})"))
    return 0


def _channel_spec(args: argparse.Namespace):
    """Fresh-channel factory from the CLI channel flags.

    A :class:`repro.radio.ChannelSpec` rather than a closure: channels hold
    per-run state, so every run gets its own instance, and the spec is
    picklable / content-addressable so ``--jobs`` and the result cache work.
    """
    from repro.radio import ChannelSpec

    return ChannelSpec(
        name=getattr(args, "channel", "classic"),
        erasure_p=getattr(args, "erasure_p", 0.1),
        faults=getattr(args, "faults", None),
    )


def _parse_overrides(args: argparse.Namespace) -> dict:
    """The ``-S key=value`` list as an override mapping."""
    out: dict[str, str] = {}
    for item in getattr(args, "scenario_set", []) or []:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SystemExit(f"bad -S override {item!r} (expected key=value)")
        out[key] = value.strip()
    return out


def _resolve_scenario(args: argparse.Namespace, default):
    """The verb's base scenario: ``--scenario`` (spec string or preset
    name) over the legacy-flag ``default``, with ``-S`` overrides applied.

    Returns ``(scenario, overrides)`` — callers use the overrides to honour
    ``-S seed=...`` as the sweep's master seed.
    """
    from repro.scenario import get_scenario

    base = default
    if getattr(args, "scenario", None):
        try:
            base = get_scenario(args.scenario)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit(f"bad --scenario: {exc}") from None
    # Explicit flags override a --scenario-baked value (their parser
    # defaults are None so explicitness is observable); -S still wins.
    flags: dict[str, object] = {}
    if getattr(args, "trials", None) is not None:
        flags["trials"] = args.trials
    if getattr(args, "engine", None) is not None:
        flags["engine"] = args.engine
    if getattr(args, "memory_budget", None) is not None:
        flags["memory_budget"] = args.memory_budget
    if getattr(args, "backend", None) is not None:
        flags["backend"] = args.backend
    if flags:
        try:
            base = base.with_overrides(flags)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit(f"bad flag value: {exc}") from None
    overrides = _parse_overrides(args)
    if overrides:
        try:
            base = base.with_overrides(overrides)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit(f"bad -S override: {exc}") from None
    try:
        # Fail fast on out-of-domain component parameters (a bad -S
        # graph=... would otherwise only surface at build time, mid-sweep).
        base.validate()
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad scenario: {exc}") from None
    return base, overrides


def _channel_label(args: argparse.Namespace, base, overrides) -> str:
    """What the table header calls the channel: the legacy flag's spelling
    when it chose the channel, the spec's canonical form otherwise."""
    if (
        hasattr(args, "channel")
        and not getattr(args, "scenario", None)
        and not any(k == "channel" or k.startswith("channel.") for k in overrides)
    ):
        return args.channel
    return base.channel.describe()


def _seed(args: argparse.Namespace) -> int:
    """The --seed value (its parser default is None so explicitness is
    observable; unset means 0)."""
    value = getattr(args, "seed", None)
    return 0 if value is None else value


def _trials(args: argparse.Namespace, default: int) -> int:
    """The --trials value (its parser default is None so an explicit flag
    can override a --scenario-baked trial count); unset means the verb's
    own default."""
    value = getattr(args, "trials", None)
    return default if value is None else value


def _graph_overridden(args: argparse.Namespace, overrides) -> bool:
    """Whether --scenario or a -S graph override chose the graph (so the
    verb must not rebuild its legacy graph grid over it)."""
    return bool(getattr(args, "scenario", None)) or any(
        k == "graph" or k.startswith("graph.") for k in overrides
    )


def _master_seed(args: argparse.Namespace, base, overrides) -> int:
    """The repetition-deriving master seed: ``-S seed=`` wins, then an
    explicit ``--seed``, then a seed baked into ``--scenario``."""
    if "seed" in overrides:
        return base.seed
    if getattr(args, "seed", None) is not None:
        return args.seed
    return base.seed


def _chain_rows(points_iter):
    """Table rows for scenario summaries: the chain family's rich columns
    when its meta is present, a generic scenario table otherwise.

    Returns ``(headers, rows, fit_xy)``; ``fit_xy`` is the
    (km_bound, mean) series for the log-linear fit, empty for non-chain
    scenarios.
    """
    from repro.analysis import summarize

    headers = None
    rows, xs, ys = [], [], []
    for first, rounds, completed in points_iter:
        stats = summarize(rounds)
        if "km_bound" in first:
            headers = ["layers", "n", "D", "D·log2(n/D)", "mean", "min", "max"]
            xs.append(first["km_bound"])
            ys.append(stats.mean)
            rows.append(
                [first["layers"], first["n"], first["diameter"],
                 round(first["km_bound"], 1),
                 round(stats.mean, 1), stats.min, stats.max])
        else:
            headers = ["scenario", "n", "mean", "min", "max", "completion"]
            rows.append(
                [first["scenario"], first["n"], round(stats.mean, 1),
                 stats.min, stats.max,
                 round(sum(completed) / len(completed), 3)])
    return headers, rows, (xs, ys)


def _executor(args: argparse.Namespace):
    """The runtime executor behind ``--jobs`` (``None`` = inline serial)."""
    if getattr(args, "jobs", 1) > 1:
        from repro.runtime import ParallelExecutor

        return ParallelExecutor(args.jobs)
    return None


def _add_exec_flags(p: "argparse.ArgumentParser", seed: bool = True) -> None:
    """The uniform ``--seed`` / ``--jobs`` pair every simulation command
    takes (``REPRO_JOBS`` sets the ``--jobs`` default)."""
    from repro.runtime import default_jobs

    if seed:
        # Default None (treated as 0) so an explicit --seed is
        # distinguishable from the default when --scenario bakes a seed.
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default 0)")
    p.add_argument(
        "--jobs", type=int, default=default_jobs(fallback=1),
        help="worker processes (>1 schedules via repro.runtime)")


def _add_channel_flags(p: "argparse.ArgumentParser") -> None:
    from repro.radio import CHANNELS

    p.add_argument(
        "--channel", choices=sorted(CHANNELS) + ["cd"], default="classic",
        help="reception model (cd = collision-detection); "
             "sugar for -S channel=...")
    p.add_argument(
        "--erasure-p", type=float, default=0.1,
        help="drop probability for --channel erasure")
    p.add_argument(
        "--faults", type=str, default=None,
        help="fault spec for --channel jamming, e.g. 'jam@0-9:0,1;crash@5:7'")


def _add_scenario_flags(p: "argparse.ArgumentParser") -> None:
    """The uniform declarative-spec pair shared by every simulation verb."""
    p.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="scenario spec string or preset name replacing this verb's "
             "default configuration, e.g. 'chain(8, 4) | decay | "
             "erasure(0.1)' (see `repro scenarios list`)")
    p.add_argument(
        "-S", "--set", dest="scenario_set", action="append", default=[],
        metavar="KEY=VALUE",
        help="scenario field override (repeatable): graph/protocol/channel/"
             "workload/trials/seed/source/max_rounds/engine/memory_budget/"
             "telemetry/backend or dotted spec fields such as "
             "channel.erasure_p; "
             "e.g. -S workload='gossip(k=4)' or -S telemetry=on")
    p.add_argument(
        "--engine", choices=["auto", "dense", "bitset"], default=None,
        help="simulation backend: dense (sparse mat-mat counts), bitset "
             "(packed-word CSR gathers; large-n memory-lean path), or auto "
             "(default); sugar for -S engine=...")
    p.add_argument(
        "--memory-budget", dest="memory_budget", default=None,
        metavar="BYTES",
        help="peak working-set budget — trials are sharded into column "
             "chunks that fit, e.g. '2GiB' or '512MiB'; sugar for "
             "-S memory_budget=...")
    p.add_argument(
        "--backend", default=None, metavar="NAME",
        help="array backend for the dense engine: numpy (default) or torch, "
             "optionally with a device suffix such as torch:cuda; falls "
             "back to numpy with a warning when the library is missing; "
             "sugar for -S backend=...")


def _rep_groups(points, reps: int):
    """Regroup a grid-major ``SweepPoint`` list into its grid points.

    Yields ``(first_result, rounds, completed)`` per grid point —
    ``rounds``/``completed`` flattened across the point's repetitions —
    for the chain-broadcast tables (`broadcast`, `sweep`).
    """
    for i in range(0, len(points), reps):
        group = points[i : i + reps]
        yield (
            group[0].result,
            [r for pt in group for r in pt.result["rounds"]],
            [c for pt in group for c in pt.result["completed"]],
        )


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.analysis import fit_loglinear, render_table, run_sweep
    from repro.scenario import GraphSpec, Scenario

    default = Scenario(
        graph=GraphSpec.make("chain", args.s, args.layers[0]),
        channel=_channel_spec(args),
        trials=_trials(args, 1),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    # Legacy grid mode sweeps --layers over chain graphs; an explicit
    # --scenario (or -S graph=...) runs exactly that spec (--reps
    # independent repetitions).
    if _graph_overridden(args, overrides):
        grid: dict = {}
    else:
        grid = {
            "graph": [GraphSpec.make("chain", args.s, l) for l in args.layers]
        }
    # One scenario task per (grid point, rep); --jobs farms the pickled
    # specs across processes (bit-for-bit identical to serial).
    points = run_sweep(
        grid,
        scenario=base,
        seed=_master_seed(args, base, overrides),
        repetitions=args.reps,
        executor=_executor(args),
    )
    headers, rows, (xs, ys) = _chain_rows(_rep_groups(points, args.reps))
    proto = base.protocol.describe().capitalize()
    title = (
        f"Section 5: {proto} rounds on chained cores"
        if not _graph_overridden(args, overrides)
        else f"scenario broadcast: {proto} rounds"
    )
    # Name the task when it is not the default single-source broadcast.
    if base.workload.to_dict() != {"name": "broadcast"}:
        title = f"{title} [workload={base.workload.describe()}]"
    print(render_table(
        headers, rows,
        title=f"{title} [channel={_channel_label(args, base, overrides)}]"))
    if len(xs) >= 2:
        fit = fit_loglinear(xs, ys)
        print(f"fit: rounds ≈ {fit.slope:.2f}·bound {fit.intercept:+.1f}"
              f" (R²={fit.r_squared:.3f})")
    return 0


def _cmd_hops(args: argparse.Namespace) -> int:
    from repro.radio.hop_analysis import hop_time_study
    from repro.scenario import GraphSpec, Scenario

    default = Scenario(
        graph=GraphSpec.make("chain", args.s, args.layers[0]),
        channel=_channel_spec(args),
        trials=_trials(args, 1),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    if base.graph.family != "chain" or len(base.graph.args) < 2:
        raise SystemExit(
            "repro hops needs a chain(s, layers) scenario (per-hop timing "
            f"is defined on the Section 5 chain); got {base.graph.describe()!r}"
        )
    try:
        study = hop_time_study(
            scenario=base,
            repetitions=args.reps * base.trials,
            seed=_master_seed(args, base, overrides),
            executor=_executor(args))
    except ValueError as exc:
        raise SystemExit(f"bad scenario for repro hops: {exc}") from None
    print(f"hop study: s={study.s}, layers={study.num_layers}, "
          f"reps={study.hop_times.shape[0]}, "
          f"channel={_channel_label(args, base, overrides)}")
    print(f"  per-hop rounds: mean {study.hop_mean:.2f} ± {study.hop_std:.2f}"
          f"  (log2(2s) = {math.log2(2 * study.s):.1f})")
    print(f"  total relative spread: {study.total_relative_spread:.3f}")
    print(f"  lag-1 hop autocorrelation: {study.hop_autocorrelation():+.3f}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.analysis import run_sweep, summarize
    from repro.graphs import random_regular
    from repro.radio import synthesize_broadcast_schedule
    from repro.runtime.tasks import broadcast_rounds_point
    from repro.scenario import GraphSpec

    # Deterministic families travel as specs (the scenario-routed task
    # path); the randomized one is built once here so the synthesized
    # schedule and the Decay comparison see the same instance.
    if args.graph == "hypercube":
        gspec = GraphSpec.make("hypercube", args.size)
    elif args.graph == "grid":
        gspec = GraphSpec.make("grid", args.size)
    else:
        gspec = None
    if gspec is not None:
        g = gspec.build().graph
    else:
        g = random_regular(2**args.size, 6, rng=_seed(args))
    schedule = synthesize_broadcast_schedule(g, source=0)
    ok, informed = schedule.verify(g)
    # The randomized comparison: --reps independent Decay runs, scheduled
    # through the runtime so --jobs parallelizes them.
    points = run_sweep(
        {}, broadcast_rounds_point, seed=_seed(args), repetitions=args.reps,
        static_params={"graph": gspec if gspec is not None else g,
                       "source": 0},
        executor=_executor(args))
    rounds = [r for pt in points for r in pt.result["rounds"]]
    print(f"graph: {args.graph}({args.size}) n={g.n}")
    print(f"  schedule length {schedule.length} rounds "
          f"(eccentricity {g.eccentricity(0)}), verified: {ok}")
    if len(rounds) == 1:
        print(f"  Decay (distributed, randomized): {rounds[0]} rounds")
    else:
        stats = summarize(rounds)
        print(f"  Decay (distributed, randomized): mean {stats.mean:.1f} "
              f"rounds over {len(rounds)} runs "
              f"(min {int(stats.min)}, max {int(stats.max)})")
    return 0 if ok else 1


def _cmd_channels(args: argparse.Namespace) -> int:
    from repro.analysis import ERASURE_HEADERS, erasure_degradation, render_table
    from repro.scenario import GraphSpec, Scenario

    default = Scenario(
        graph=GraphSpec.make("random_regular", args.n, args.delta),
        trials=_trials(args, 32),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    if base.channel.to_dict() != {"name": "classic"}:
        raise SystemExit(
            "repro channels sweeps erasure rates itself (--erasure-ps); a "
            "scenario channel override would be silently ignored — drop it"
        )
    # Family pair under test: the scenario's graph (the expander by
    # default) against the Section 5 chain of comparable size — both as
    # specs, so every measurement is a pickled, cacheable Scenario.
    customized = _graph_overridden(args, overrides)
    families = [
        (base.graph.family if customized else "expander", base.graph),
        ("chain", GraphSpec.make(
            "chain", args.s, max(2, args.n // (3 * args.s)))),
    ]
    # Shared E15 row definition (repro.analysis.robustness): slowdowns are
    # against a classic-channel baseline, independent of --erasure-ps order.
    points = erasure_degradation(
        families, args.erasure_ps, trials=base.trials,
        seed=_master_seed(args, base, overrides),
        max_rounds=base.max_rounds,
        protocol=base.protocol, executor=_executor(args))
    print(render_table(
        ERASURE_HEADERS, [pt.row for pt in points],
        title="E15: broadcast degradation under erasure"))
    return 0


def _cmd_expansion(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.expansion.spec import ExpansionSpec
    from repro.runtime import ResultStore
    from repro.scenario import GraphSpec, Scenario
    from repro.scenario.tasks import expansion_summary

    default = Scenario(
        graph=GraphSpec.make("random_regular", args.n, args.delta),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    try:
        specs = [
            ExpansionSpec.from_string(text)
            for text in (args.estimators or ["sampled"])
        ]
    except ValueError as exc:
        raise SystemExit(f"bad --estimator: {exc}") from None
    store = ResultStore(args.cache_dir)
    executor = _executor(args)
    seed = _master_seed(args, base, overrides)
    rows = []
    for spec in specs:
        key = store.expansion_key(base.graph, spec, seed)
        try:
            summary = store.get(key)
        except KeyError:
            try:
                summary = expansion_summary(
                    base.graph, expansion=spec, seed=seed, executor=executor
                )
            except ValueError as exc:
                # e.g. exact on a graph wider than max_set_bits, or an
                # alpha admitting no candidate sets.
                raise SystemExit(
                    f"estimator {spec.describe()!r} cannot run on "
                    f"{base.graph.describe()!r}: {exc}"
                ) from None
            store.put(key, summary, meta={"graph": base.graph.describe(),
                                          "expansion": spec.describe()})
        rows.append(
            [summary["expansion"], summary["n"], round(summary["beta_w"], 4),
             summary["bound"], summary["subset_size"], summary["candidates"]]
        )
    print(render_table(
        ["estimator", "n", "beta_w", "bound", "|S|", "candidates"], rows,
        title=f"wireless expansion of {base.graph.describe()} "
              f"[seed={seed}, jobs={args.jobs}]"))
    print(f"cache: {store.hits} hits, {store.misses} misses over "
          f"{len(specs)} estimators")
    return 0


def _cmd_worstcase(args: argparse.Namespace) -> int:
    from repro.expansion import expansion_of_set
    from repro.graphs import random_regular, worst_case_expander
    from repro.spokesman import wireless_lower_bound_of_set

    base = random_regular(args.n, args.delta, rng=args.seed)
    wc = worst_case_expander(base, beta=args.beta, epsilon=args.eps,
                             rng=args.seed + 1)
    ordinary = expansion_of_set(wc.graph, wc.planted_set)
    achieved, _ = wireless_lower_bound_of_set(
        wc.graph, wc.planted_set, rng=args.seed + 2)
    print(f"worst-case expander: n={wc.graph.n}, planted |S*|={wc.planted_set.size}")
    print(f"  core: {wc.core.mode} s={wc.core.s} k={wc.core.multiplier}")
    print(f"  β(S*)  = {ordinary:.3f}")
    print(f"  βw(S*) achieved {achieved:.3f}, cap {wc.planted_wireless_expansion_cap:.3f}")
    print(f"  gap β/βw ≥ {ordinary / wc.planted_wireless_expansion_cap:.2f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import run_experiment

    proc = run_experiment(
        args.experiment, jobs=args.jobs, smoke=True if args.smoke else None)
    return proc.returncode


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import render_table, summarize
    from repro.runtime import ResultStore
    from repro.scenario import GraphSpec, Scenario, ScenarioSweep

    store = ResultStore(args.cache_dir)
    default = Scenario(
        graph=GraphSpec.make("chain", args.s_values[0], args.layers[0]),
        channel=_channel_spec(args),
        trials=_trials(args, 4),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    if _graph_overridden(args, overrides):
        grid: dict = {}
    else:
        grid = {
            "graph": [
                GraphSpec.make("chain", s, l)
                for s in args.s_values
                for l in args.layers
            ]
        }
    sweep = ScenarioSweep(
        base=base,
        grid=grid,
        repetitions=args.reps,
        seed=_master_seed(args, base, overrides),
    )
    # Canonical spec dicts are the cache keys and the pickled scenarios the
    # task payloads — any helper producing a spec-equal run hits the same
    # entries.
    manifest = sweep.manifest(store)
    if args.resume:
        done, total = manifest.progress(store)
        print(f"sweep {manifest.sweep_id}: resuming, "
              f"{done}/{total} tasks already cached")
    else:
        dropped = store.drop(manifest.keys)
        note = f" ({dropped} stale cache entries dropped)" if dropped else ""
        print(f"sweep {manifest.sweep_id}: fresh run, "
              f"{manifest.task_count} tasks{note}")
    points = sweep.run(executor=_executor(args), cache=store)
    rows = []
    chain_mode = all("s" in p.result and "layers" in p.result for p in points)
    for first, rounds, completed in _rep_groups(points, args.reps):
        stats = summarize(rounds)
        if chain_mode:
            rows.append(
                [first["s"], first["layers"], first["n"], first["diameter"],
                 round(stats.mean, 1), stats.min, stats.max,
                 round(sum(completed) / len(completed), 3)])
        else:
            rows.append(
                [first["scenario"], first["n"], round(stats.mean, 1),
                 stats.min, stats.max,
                 round(sum(completed) / len(completed), 3)])
    headers = (
        ["s", "layers", "n", "D", "mean", "min", "max", "completion"]
        if chain_mode
        else ["scenario", "n", "mean", "min", "max", "completion"]
    )
    print(render_table(
        headers, rows,
        title=f"runtime sweep: {base.protocol.describe().capitalize()} rounds "
              f"[channel={_channel_label(args, base, overrides)}, "
              f"jobs={args.jobs}]"))
    cache_line = (f"cache: {store.hits} hits, {store.misses} misses over "
                  f"{manifest.task_count} tasks (manifest {manifest.sweep_id})")
    if store.time_saved > 0:
        cache_line += f"; replay saved ~{store.time_saved:.2f}s of compute"
    print(cache_line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.obs.telemetry import RoundTelemetry, telemetry_events
    from repro.obs.tracing import active_recorder
    from repro.scenario import GraphSpec, Scenario

    default = Scenario(
        graph=GraphSpec.make("chain", args.s, args.layers),
        channel=_channel_spec(args),
        trials=_trials(args, 1),
        seed=_seed(args),
    )
    base, overrides = _resolve_scenario(args, default)
    # The whole point of the verb is the per-round anatomy, so telemetry
    # is forced on (the spec serializes it only when on, so a plain
    # --scenario string needs no telemetry= segment here).
    scenario = base if base.telemetry else base.with_overrides(
        {"telemetry": True}
    )
    batch = scenario.run(executor=_executor(args))
    tel = RoundTelemetry.from_batch(batch)
    rec = active_recorder()
    if rec is not None:
        for event in telemetry_events(tel, scenario=scenario.describe()):
            rec.record(event)
    rows = []
    for r in range(tel.rounds):
        receptions = int(tel.receptions[r].sum())
        victims = int(tel.collision_victims[r].sum())
        contacted = receptions + victims
        rows.append([
            r + 1,
            int(tel.transmitters[r].sum()),
            receptions,
            victims,
            int(tel.newly_informed[r].sum()),
            int(tel.wasted_transmissions[r].sum()),
            f"{victims / contacted:.1%}" if contacted else "-",
        ])
    if len(rows) > 40:
        # A round-capped run can log thousands of identical stall rounds;
        # keep the opening anatomy and the tail, elide the middle.
        elided = len(rows) - 36
        rows = rows[:28] + [["…"] * 7] + rows[-8:]
        rows[28][1] = f"({elided} rounds elided)"
    print(render_table(
        ["round", "tx", "recv", "victims", "newly", "wasted", "coll.rate"],
        rows,
        title=f"collision trace: {scenario.describe()}"))
    totals = {k: int(v.sum()) for k, v in tel.totals().items()}
    print(f"totals: {totals['transmitters']} transmissions, "
          f"{totals['collision_victims']} collision victims, "
          f"{totals['wasted_transmissions']} wasted; "
          f"mean collision rate {tel.mean_collision_rate():.1%}; "
          f"completion {batch.completion_rate:.0%}")
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs.tracing import format_summary, read_jsonl, summarize_events

    try:
        events = read_jsonl(args.file)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.file!r}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(
            f"{args.file!r} is not a JSONL trace: {exc}"
        ) from None
    print(format_summary(summarize_events(events)))
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS
    from repro.expansion.spec import ESTIMATORS
    from repro.radio import CHANNELS
    from repro.scenario import GRAPHS, PROTOCOLS, SCENARIOS, WORKLOADS

    print("graph families (GraphSpec):")
    for name, entry in GRAPHS.items():
        tag = "  [seeded]" if entry.randomized else ""
        print(f"  {name:16s} {entry.summary}{tag}")
    print("\nprotocols (ProtocolSpec):")
    for name, entry in PROTOCOLS.items():
        alias = f" (alias: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {name:16s} {entry.summary}{alias}")
    print("\nchannels (ChannelSpec):")
    for name in sorted(CHANNELS):
        print(f"  {name:16s} {CHANNELS[name]}")
    print("\nworkloads (WorkloadSpec, `repro workloads show <name>`):")
    for name, entry in WORKLOADS.items():
        tag = "  [seeded]" if entry.randomized else ""
        print(f"  {name:16s} {entry.summary}{tag}")
    print("\nexpansion estimators (ExpansionSpec, `repro expansion -E`):")
    for name in sorted(ESTIMATORS):
        print(f"  {name:16s} {ESTIMATORS[name]}")
    print("\nnamed scenarios:")
    for name in sorted(SCENARIOS):
        scenario, summary = SCENARIOS[name]
        print(f"  {name:16s} {scenario.describe()}")
        if summary:
            print(f"  {'':16s} {summary}")
    bound = [e for e in EXPERIMENTS if e.scenario is not None]
    if bound:
        print("\nexperiment-bound scenarios (repro scenarios show E<k>):")
        for exp in bound:
            print(f"  {exp.id:16s} {exp.scenario.describe()}")
    print("\nspec form: 'graph | protocol | channel | workload | trials=T"
          " | seed=K' — e.g. repro broadcast --scenario"
          " 'chain(8, 4) | decay | erasure(0.1)' -S workload='gossip(k=4)'")
    return 0


def _cmd_workloads_list(args: argparse.Namespace) -> int:
    from repro.scenario import WORKLOADS

    print("workloads (WorkloadSpec — the fourth scenario segment):")
    for name, entry in WORKLOADS.items():
        tag = "  [seeded]" if entry.randomized else ""
        print(f"  {name:16s} {entry.summary}{tag}")
    print("\nspec form: 'graph | protocol | channel | workload' — e.g."
          " repro broadcast --scenario"
          " 'chain(8, 4) | decay | classic | gossip(k=4)'")
    return 0


def _cmd_workloads_show(args: argparse.Namespace) -> int:
    import inspect

    from repro.scenario import WORKLOADS, WorkloadSpec

    name = args.name.strip()
    try:
        spec = WorkloadSpec.from_string(name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    entry = spec.entry
    params = ", ".join(
        p.name if p.default is inspect.Parameter.empty
        else f"{p.name}={p.default!r}"
        for p in inspect.signature(entry.builder).parameters.values()
    )
    workload = spec.build()
    engines = "dense, bitset" if workload.set_semantics else (
        "dense only (folds per-cell values the packed engine cannot pack)"
    )
    print(f"workload:  {spec.describe()}")
    print(f"summary:   {entry.summary}")
    print(f"signature: {entry.name}({params})")
    print(f"engines:   {engines}")
    if entry.randomized:
        print("seeding:   draws from the per-trial generators after the "
              "protocol/channel resets")
    print(f"example:   repro broadcast -S workload='{spec.describe()}'")
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import EXPERIMENTS
    from repro.runtime import ResultStore
    from repro.scenario import get_scenario

    name = args.name.strip()
    scenario = None
    for exp in EXPERIMENTS:
        if exp.id == name.upper() and exp.scenario is not None:
            scenario = exp.scenario
            break
    if scenario is None:
        try:
            scenario = get_scenario(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"spec:      {scenario.describe()}")
    print(f"canonical: {json.dumps(scenario.to_dict(), sort_keys=True)}")
    store = ResultStore(args.cache_dir)
    print(f"cache key: {store.scenario_key(scenario)} (salt {store.salt})")
    realized = scenario.build()
    graph = realized.built.graph
    print(f"graph:     n={graph.n}, source={realized.source}")
    print(f"workload:  {scenario.workload.describe()}")
    for key, value in sorted(realized.built.meta.items()):
        print(f"  {key} = {value}")
    protocol_seed, graph_seed = scenario.seeds
    print(f"seeds:     protocol={protocol_seed}"
          + (f", graph={graph_seed}" if graph_seed is not None else
             " (deterministic graph)"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import ResultStore, SweepManifest

    store = ResultStore(args.cache_dir)
    if args.cache_command == "stats":
        from repro.obs.metrics import METRICS

        st = store.stats()
        print(f"cache root: {st.root}")
        print(f"  entries:   {st.entries}")
        print(f"  manifests: {st.manifests}")
        print(f"  size:      {st.bytes / 1024:.1f} KiB")
        # Live counters cover this process (every ResultStore feeds the
        # process-wide metrics registry) — nonzero when the stats call
        # shares a process with the runs it measures.
        hits = METRICS.get("cache.hits")
        misses = METRICS.get("cache.misses")
        print(f"  live:      {hits:g} hits, {misses:g} misses"
              f" (get {METRICS.get('cache.get_seconds') * 1e3:.1f} ms,"
              f" put {METRICS.get('cache.put_seconds') * 1e3:.1f} ms)")
        saved = METRICS.get("cache.time_saved_seconds")
        if saved:
            print(f"  saved:     {saved:.2f} s of compute replayed")
        for sid in SweepManifest.list_ids(store):
            m = SweepManifest.load(store, sid)
            done, total = m.progress(store)
            print(f"  sweep {sid}: {done}/{total} tasks complete ({m.fn})")
        return 0
    removed = store.clear()
    print(f"cleared {removed.entries} cached results and "
          f"{removed.manifests} manifests from {removed.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        DEFAULT_SHARD_TRIALS,
        JobQueue,
        WorkerPool,
        create_server,
    )

    queue = JobQueue(args.queue)
    server = create_server(queue, host=args.host, port=args.port,
                           quiet=not args.verbose)
    print(f"queue:   {queue.path} (schema v{queue.schema_version()})")
    print(f"serving on {server.url} ({args.workers} worker"
          f"{'s' if args.workers != 1 else ''})")
    sys.stdout.flush()
    pool = WorkerPool(
        queue.path, cache_root=args.cache_dir, workers=args.workers,
        lease_ttl=args.lease_ttl,
        shard_trials=args.shard_trials or DEFAULT_SHARD_TRIALS)
    with pool:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    # After the workers are gone, so this is the last connection: closing
    # it checkpoints the WAL into the database file.
    queue.close()
    print("service stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    started = _time.monotonic()
    try:
        job, created = client.submit(args.spec)
    except ServiceError as exc:
        # The same eager-validation message `--scenario` errors print.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verb = "created" if created else "deduplicated to"
    print(f"job {job['id']} {verb} state={job['state']}")
    if job["state"] == "done":
        hit = " — cache hit, no recompute" if not created else ""
        print(f"done{hit}")
        return 0
    if args.no_stream:
        return 0
    try:
        for kind, payload in client.stream(job["id"], timeout=args.timeout):
            if kind == "shard":
                print(f"  shard {payload['shard']}/{payload['shards']}: "
                      f"{payload['trials_done']}/{payload['trials']} trials"
                      f" (mean_rounds={payload['mean_rounds']:.2f}"
                      f"{', resumed' if payload.get('resumed') else ''})")
            elif kind == "result":
                hit = ", cache hit" if payload.get("cache_hit") else ""
                print(f"  result: {payload['trials']} trials, "
                      f"mean_rounds={payload['mean_rounds']:.2f}, "
                      f"completion_rate={payload['completion_rate']:.3f}{hit}")
            elif kind in ("done", "failed", "cancelled", "timeout"):
                elapsed = _time.monotonic() - started
                suffix = f" ({payload['error']})" if payload.get("error") else ""
                print(f"{kind} in {elapsed:.2f}s{suffix}")
                return 0 if kind == "done" else 1
            sys.stdout.flush()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.jobs_command == "list":
            records = client.jobs(args.state)
            rows = [
                [r["id"], r["state"], r["attempts"],
                 f"{r['progress_done']}/{r['progress_total']}"
                 if r["progress_total"] else "-",
                 "yes" if r["cache_hit"] else "",
                 r["spec"] if len(r["spec"]) <= 48 else r["spec"][:45] + "..."]
                for r in records
            ]
            print(render_table(
                ["id", "state", "attempts", "progress", "cache hit", "spec"],
                rows, title=f"jobs ({len(rows)})"))
            return 0
        if args.jobs_command == "show":
            import json

            record = client.job(args.id)
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        payload = client.cancel(args.id)
        state = payload["job"]["state"]
        print(f"job {args.id} "
              + ("cancelled" if payload["cancelled"] else f"already {state}"))
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _add_service_url(p: "argparse.ArgumentParser") -> None:
    from repro.service.api import DEFAULT_HOST, DEFAULT_PORT

    p.add_argument("--url", default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
                   help="service base URL (default: %(default)s)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="request/stream timeout in seconds")


def _add_trace_out(p: "argparse.ArgumentParser") -> None:
    p.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="FILE",
        help="record a JSONL runtime trace (spans, cache counters, "
             "telemetry events) to FILE; aggregate with "
             "`repro obs summary FILE`")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wireless Expanders (SPAA 2018) experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core", help="Lemma 4.4 core-graph property sheet")
    p.add_argument("--sizes", type=_int_list, default=[2, 4, 8, 16, 32, 64])
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("gbad", help="Lemma 3.3 Gbad table")
    p.add_argument("--s", type=int, default=6)
    p.add_argument("--deltas", type=_int_list, default=[4, 6])
    p.set_defaults(fn=_cmd_gbad)

    p = sub.add_parser("spokesman", help="algorithm comparison")
    p.add_argument("--instance", choices=["core", "gbad", "random"],
                   default="core")
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_spokesman)

    p = sub.add_parser("broadcast", help="Section 5 chain scaling")
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--layers", type=_int_list, default=[2, 4, 8])
    p.add_argument("--reps", type=int, default=3,
                   help="independent chains per grid point")
    p.add_argument("--trials", type=int, default=None,
                   help="batched protocol trials per chain (default 1; "
                        "overrides a --scenario-baked count)")
    _add_exec_flags(p)
    _add_channel_flags(p)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_broadcast)

    p = sub.add_parser("hops", help="per-hop concentration study")
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--layers", type=_int_list, default=[6])
    p.add_argument("--reps", type=int, default=10,
                   help="independent chains")
    p.add_argument("--trials", type=int, default=None,
                   help="batched protocol trials per chain (default 1)")
    _add_exec_flags(p)
    _add_channel_flags(p)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_hops)

    p = sub.add_parser("channels",
                       help="E15 broadcast degradation across erasure rates")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--delta", type=int, default=8)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--trials", type=int, default=None,
                   help="batched protocol trials per point (default 32)")
    p.add_argument("--erasure-ps", type=_float_list,
                   default=[0.0, 0.1, 0.2, 0.3])
    _add_exec_flags(p)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_channels)

    p = sub.add_parser("schedule", help="synthesize + verify a static schedule")
    p.add_argument("--graph", choices=["hypercube", "grid", "regular"],
                   default="hypercube")
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--reps", type=int, default=1,
                   help="independent Decay comparison runs")
    _add_exec_flags(p)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser(
        "expansion",
        help="batched wireless-expansion (βw) estimation of a scenario's "
             "graph (E17)")
    p.add_argument("--n", type=int, default=64,
                   help="default random-regular instance size")
    p.add_argument("--delta", type=int, default=6,
                   help="default random-regular degree")
    p.add_argument(
        "-E", "--estimator", dest="estimators", action="append", default=[],
        metavar="SPEC",
        help="estimator spec (repeatable): sampled(samples=..., alpha=...), "
             "exact(max_set_bits=...), portfolio(...); default 'sampled'")
    p.add_argument("--cache-dir", default=None,
                   help="result-store root (default: results/cache)")
    _add_exec_flags(p)
    _add_scenario_flags(p)
    _add_trace_out(p)
    p.set_defaults(fn=_cmd_expansion)

    p = sub.add_parser("worstcase", help="Corollary 4.11 planted bad set")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--delta", type=int, default=128)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.45)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_worstcase)

    p = sub.add_parser(
        "run", help="regenerate a registered experiment (E1-E21) via its bench")
    p.add_argument("experiment", help="registry id, e.g. E17")
    p.add_argument("--smoke", action="store_true",
                   help="tiny-scale run (sets REPRO_BENCH_SMOKE=1)")
    _add_exec_flags(p, seed=False)
    _add_trace_out(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "sweep",
        help="cached, resumable chain-broadcast grid sweep via repro.runtime")
    p.add_argument("--s-values", type=_int_list, default=[4, 8],
                   help="chain widths (powers of two)")
    p.add_argument("--layers", type=_int_list, default=[2, 4])
    p.add_argument("--reps", type=int, default=2,
                   help="independent chains per grid point")
    p.add_argument("--trials", type=int, default=None,
                   help="batched protocol trials per chain (default 4)")
    p.add_argument("--cache-dir", default=None,
                   help="result-store root (default: results/cache)")
    p.add_argument("--resume", action="store_true",
                   help="replay completed tasks from the cache instead of "
                        "recomputing them")
    _add_exec_flags(p)
    _add_channel_flags(p)
    _add_scenario_flags(p)
    _add_trace_out(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="per-round collision telemetry of one scenario "
             "(transmitters, receptions, victims, newly informed, wasted)")
    p.add_argument("--s", type=int, default=8,
                   help="default chain width (ignored under --scenario)")
    p.add_argument("--layers", type=int, default=4,
                   help="default chain layers (ignored under --scenario)")
    p.add_argument("--trials", type=int, default=None,
                   help="batched protocol trials; counts are summed "
                        "across trials (default 1)")
    _add_exec_flags(p)
    _add_channel_flags(p)
    _add_scenario_flags(p)
    _add_trace_out(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "obs", help="observability: aggregate a --trace-out JSONL file")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    op = obs_sub.add_parser(
        "summary", help="per-span totals, task latency percentiles, cache "
                        "hit rate, telemetry totals")
    op.add_argument("file", help="JSONL trace file written by --trace-out")
    op.set_defaults(fn=_cmd_obs_summary)

    p = sub.add_parser(
        "scenarios",
        help="declarative scenario registry: list specs or inspect one")
    scen_sub = p.add_subparsers(dest="scenarios_command", required=True)
    lp = scen_sub.add_parser(
        "list", help="registered graph families, protocols, channels, and "
                     "named scenarios")
    lp.set_defaults(fn=_cmd_scenarios_list)
    sp = scen_sub.add_parser(
        "show", help="one scenario's spec string, canonical dict, cache "
                     "key, and realized graph")
    sp.add_argument("name",
                    help="preset name, experiment id (E7), or spec string")
    sp.add_argument("--cache-dir", default=None,
                    help="result-store root used for the cache key")
    sp.set_defaults(fn=_cmd_scenarios_show)

    p = sub.add_parser(
        "workloads",
        help="workload registry: list tasks or inspect one")
    wl_sub = p.add_subparsers(dest="workloads_command", required=True)
    wlp = wl_sub.add_parser(
        "list", help="registered workloads (the fourth scenario segment)")
    wlp.set_defaults(fn=_cmd_workloads_list)
    wsp = wl_sub.add_parser(
        "show", help="one workload's summary, signature, and engine support")
    wsp.add_argument("name",
                     help="workload name or spec string, e.g. gossip(k=4)")
    wsp.set_defaults(fn=_cmd_workloads_show)

    p = sub.add_parser(
        "serve",
        help="run the experiment service: HTTP API + a local worker pool")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes leasing jobs from the queue")
    p.add_argument("--queue", default=None,
                   help="job-queue SQLite file "
                        "(default: results/service/jobs.db)")
    p.add_argument("--cache-dir", default=None,
                   help="result-store root workers execute against "
                        "(default: results/cache)")
    p.add_argument("--lease-ttl", type=float, default=60.0,
                   help="seconds before a dead worker's lease expires")
    p.add_argument("--shard-trials", type=int, default=None,
                   help="trials per checkpoint shard (default 16)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a scenario spec to a running service and stream "
             "shard progress until it completes")
    p.add_argument("spec", help="scenario spec string, e.g. "
                                "'margulis(8) | decay | erasure(0.1) | "
                                "gossip(k=16)'")
    p.add_argument("--no-stream", action="store_true",
                   help="print the job id and return without streaming")
    _add_service_url(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "jobs", help="inspect the service queue: list, show, or cancel jobs")
    jobs_sub = p.add_subparsers(dest="jobs_command", required=True)
    jp = jobs_sub.add_parser("list", help="all jobs, newest last")
    jp.add_argument("--state", default=None,
                    help="filter: queued|running|done|failed|cancelled")
    _add_service_url(jp)
    jp.set_defaults(fn=_cmd_jobs)
    jp = jobs_sub.add_parser("show", help="one job's full record as JSON")
    jp.add_argument("id")
    _add_service_url(jp)
    jp.set_defaults(fn=_cmd_jobs)
    jp = jobs_sub.add_parser("cancel", help="cancel a queued/running job")
    jp.add_argument("id")
    _add_service_url(jp)
    jp.set_defaults(fn=_cmd_jobs)

    p = sub.add_parser("cache", help="inspect or wipe the runtime result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for verb, help_text in (
        ("stats", "entry/manifest counts, size, and sweep progress"),
        ("clear", "delete every cached result and manifest"),
    ):
        cp = cache_sub.add_parser(verb, help=help_text)
        cp.add_argument("--cache-dir", default=None,
                        help="result-store root (default: results/cache)")
        cp.set_defaults(fn=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs.tracing import recording

        # The whole command runs under one recording; the sink is written
        # on exit even when the command raises, so crashed runs keep their
        # partial trace.
        with recording(sink=trace_out):
            code = int(args.fn(args))
        print(f"trace written to {trace_out}")
        return code
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
