"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark suite with categories and ILP classes.
* ``run BENCH`` — run one benchmark on a composition (or TRIPS/the OoO
  baseline) and print the statistics.
* ``sweep BENCH`` — the composition sweep for one benchmark.
* ``fig5|fig6|fig7|fig8|fig9|fig10|table2`` — regenerate one of the
  paper's artifacts (fig7/8/10/table2 compute the figure-6 sweep first);
  ``--bench NAME`` (repeatable) restricts the suite.
* ``resil`` — the dead-core degradation sweep (figure R); ``--out``
  writes the curve as JSON.  See docs/RESILIENCE.md.
* ``search`` — per-application BEST-composition search by successive
  halving over fidelity tiers (``--objective speedup|perf_per_area|
  perf2_per_watt|all``); ``--out`` writes the BEST line plus the
  detailed-work accounting as JSON.  See docs/SEARCH.md.
* ``disasm BENCH`` — print the compiled EDGE hyperblocks.
* ``profile BENCH`` — wall-clock phase profile of one simulation.
* ``lint`` — AST invariant analysis over ``src/repro`` (determinism,
  content-hash axes, obs names); exit 1 on any finding.  See
  docs/ANALYSIS.md.

``run`` additionally takes ``--inject SPEC`` (repeatable) to inject
faults: ``dead:CORE``, ``kill:CORE@CYCLE``, or ``link:SRC-DST:EXTRA``
(docs/RESILIENCE.md has the grammar).  Arguments are validated up
front — an unknown benchmark name (the error lists the close matches),
a ``--cores`` that is not a composition size, conflicting or
out-of-range ``--sample-*``/``--inject`` values fail with an actionable
message before any simulation starts.  A sweep point that exhausts its
retries is reported as one line and exit status 1.

Simulating commands take ``--jobs N`` (warm pool workers for cold
points; 1 runs them in this process), ``--cache-dir DIR`` and
``--no-cache`` (the persistent result store under ``.repro-cache/`` —
see docs/EXECUTION.md; sampled runs share fast-forward traces under
``<cache-dir>/traces``, recorded once per benchmark/schedule and
replayed by every composition, and ``--no-cache`` turns those off
too), plus ``--trace-out FILE`` (JSONL event trace) and ``--metrics``
(print the metrics registry) — see docs/OBSERVABILITY.md.

``cache gc`` prunes the persistent cache (result records and
fast-forward traces) by size and/or age:
``repro cache gc --max-bytes 500M --max-age-days 30``
(``--dry-run`` reports the plan without deleting).

``run``, ``sweep`` and the fig6-derived figures additionally take
``--sample`` (with ``--sample-ff/--sample-window/--sample-warmup``) to
run TFlex points under the sampled-simulation engine — interpreter
fast-forward between detailed windows; see docs/PERFORMANCE.md for the
accuracy/speedup trade-off.
"""

from __future__ import annotations

import argparse
import sys

from repro.sample.config import SamplingConfig


def _cmd_list(args) -> int:
    from repro.harness.reporting import format_table
    from repro.workloads.catalog import CATALOG

    rows = [[b.name, b.category, b.ilp] for b in
            sorted(CATALOG.values(), key=lambda b: (b.category, b.name))]
    print(format_table(["benchmark", "category", "ilp"], rows,
                       title="26-benchmark suite (paper Table 1)"))
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_edge_benchmark, run_risc_benchmark

    if args.machine == "ooo":
        result = run_risc_benchmark(args.bench, scale=args.scale)
        print(f"{args.bench} on OoO baseline: {result.cycles} cycles, "
              f"{result.insts} insts, {result.mispredictions} mispredicts")
        return 0
    sampling = _sampling_from_args(args)
    faults = None
    if getattr(args, "inject", None):
        from repro.resil import FaultSchedule, parse_inject

        faults = FaultSchedule(tuple(parse_inject(text)
                                     for text in args.inject)).spec_items()
    run = run_edge_benchmark(args.bench, ncores=args.cores,
                             trips=(args.machine == "trips"),
                             scale=args.scale, sampling=sampling,
                             faults=faults)
    print(f"{args.bench} on {run.label}:")
    print(run.stats.summary())
    print(run.power.table())
    if run.resil:
        info = run.resil
        print(f"faults: {len(info['injected'])} injected, "
              f"{len(info['recoveries'])} recoveries, "
              f"{len(info['segments'])} segments")
        for rec in info["recoveries"]:
            print(f"  cycle {rec['cycle']}: core {rec['core']} died, "
                  f"{len(rec['old_cores'])} -> {len(rec['new_cores'])} cores "
                  f"in {rec['recovery_cycles']} cycles "
                  f"({rec['blocks_lost']} blocks lost, "
                  f"IPC {rec['ipc_before']:.2f} -> "
                  + (f"{rec['ipc_after']:.2f})" if rec["ipc_after"]
                     is not None else "n/a)"))
    if run.sampling:
        info = run.sampling
        print(f"sampled: {info['windows']} windows, "
              f"{info['window_insts']}/{info['total_insts']} insts in "
              f"detail, IPC estimate {info['ipc_estimate']:.3f}"
              + ("" if info["ipc_rel_stddev"] is None else
                 f" (+/-{info['ipc_rel_stddev']:.1%} window spread)"))
    return 0


def _cmd_sweep(args) -> int:
    from repro.exec import JobSpec
    from repro.harness import format_table, run_all
    from repro.harness.experiments import CORE_COUNTS

    sampling = _sampling_from_args(args)
    runs = run_all([JobSpec.edge(args.bench, ncores=n, scale=args.scale,
                                 sampling=sampling) for n in CORE_COUNTS],
                   jobs=args.jobs, progress=args.jobs > 1)
    rows = []
    base = runs[0].cycles
    for ncores, run in zip(CORE_COUNTS, runs):
        rows.append([ncores, run.cycles, round(base / run.cycles, 2),
                     round(run.stats.ipc, 2), round(run.power.total, 2)])
    print(format_table(["cores", "cycles", "speedup", "IPC", "watts"], rows,
                       title=f"composition sweep: {args.bench}"))
    return 0


def _cmd_disasm(args) -> int:
    from repro.workloads import BENCHMARKS

    program, __, __k = BENCHMARKS[args.bench].edge_program(args.scale)
    print(program.disassemble())
    return 0


def _cmd_timeline(args) -> int:
    from repro.tflex import TFlexSystem, rectangle, render_timeline, tflex_config
    from repro.workloads import BENCHMARKS

    program, __, __k = BENCHMARKS[args.bench].edge_program(args.scale)
    cfg = tflex_config(args.cores)
    system = TFlexSystem(cfg)
    proc = system.compose(rectangle(cfg, args.cores), program)
    proc.enable_block_trace()
    system.run()
    print(render_timeline(proc.block_trace[:args.blocks]))
    print()
    print(proc.stats.summary())
    return 0


def _cmd_profile(args) -> int:
    import time

    import repro.obs
    from repro.exec import JobSpec
    from repro.harness.simulate import simulate_spec

    spec = JobSpec.edge(args.bench, ncores=args.cores,
                        trips=(args.machine == "trips"), scale=args.scale)
    obs = repro.obs.configure(profile=True)
    try:
        started = time.perf_counter()
        result = simulate_spec(spec)
        host = time.perf_counter() - started
        print(f"{args.bench} on {result.label}: {result.cycles} cycles "
              f"simulated in {host:.2f}s host time")
        print()
        print(obs.profiler.table())
    finally:
        repro.obs.reset()
    return 0


def _cmd_figure(args) -> int:
    from repro import harness

    progress = args.jobs > 1
    benchmarks = args.benchmarks   # None -> the full suite
    if args.command == "fig5":
        print(harness.fig5_baseline(scale=args.scale, benchmarks=benchmarks,
                                    jobs=args.jobs, progress=progress).render())
        return 0
    if args.command == "fig9":
        print(harness.fig9_protocols(scale=args.scale, benchmarks=benchmarks,
                                     jobs=args.jobs, progress=progress).render())
        return 0
    fig6 = harness.fig6_performance(scale=args.scale, benchmarks=benchmarks,
                                    jobs=args.jobs, progress=progress,
                                    sampling=_sampling_from_args(args))
    if args.command == "fig6":
        print(fig6.render())
    elif args.command == "fig7":
        print(harness.fig7_area(fig6).render())
    elif args.command == "fig8":
        print(harness.fig8_power(fig6).render())
    elif args.command == "fig10":
        print(harness.fig10_multiprogramming(fig6).render())
    elif args.command == "table2":
        print(harness.table2_area_power(fig6).render())
    return 0


def _cmd_search(args) -> int:
    import json

    from repro.harness import fig_best
    from repro.search import HalvingConfig
    from repro.search.objective import OBJECTIVE_NAMES

    wanted = args.objectives or ["all"]
    if "all" in wanted:
        wanted = list(OBJECTIVE_NAMES)
    config = HalvingConfig(eta=args.eta, seed=args.seed,
                           max_candidates=args.max_candidates)
    result = fig_best(objectives=wanted, scale=args.scale,
                      benchmarks=args.benchmarks, jobs=args.jobs,
                      progress=args.jobs > 1, config=config)
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump(result.payload(), sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"search result written to {args.out}")
    return 0


def _cmd_resil(args) -> int:
    import json

    from repro.harness import figR_degradation

    result = figR_degradation(
        target_cores=args.cores, max_dead=args.max_dead,
        benchmarks=args.benchmarks, seed=args.seed, scale=args.scale,
        jobs=args.jobs, progress=args.jobs > 1)
    print(result.render())
    if not result.monotone_trend():
        print("repro: warning: degradation curve is not monotone — a "
              "benchmark in the sweep gains from smaller compositions "
              "(see docs/RESILIENCE.md)", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump(result.payload(), sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"degradation curve written to {args.out}")
    return 0


def _cmd_cache(args) -> int:
    import pathlib

    from repro.exec.store import gc_cache
    from repro.harness.runner import DEFAULT_CACHE_DIR

    root = pathlib.Path(args.cache_dir or DEFAULT_CACHE_DIR)
    report = gc_cache(root, max_bytes=args.max_bytes_parsed,
                      max_age_days=args.max_age_days, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"cache gc: {root}")
    print(f"  scanned {report['scanned']} entries "
          f"({report['scanned_bytes']} bytes)")
    print(f"  {verb} {report['removed']} entries "
          f"({report['removed_bytes']} bytes), "
          f"kept {report['kept']} ({report['kept_bytes']} bytes)")
    if args.dry_run:
        for path in report["removed_paths"]:
            print(f"    {path}")
    return 0


def _cmd_lint(args) -> int:
    import pathlib

    from repro.analysis import LintError, run_lint

    if args.root is not None:
        root = pathlib.Path(args.root)
    else:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent

    try:
        report = run_lint(root, rules=args.rules_parsed)
    except LintError as exc:
        print(f"repro lint: internal error: {exc}", file=sys.stderr)
        return 3

    rendered = (report.to_json() if args.format == "json"
                else report.render_text())
    if args.out:
        pathlib.Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    return report.exit_code


#: ``--sample-*`` defaults, in blocks: ``SamplingConfig``'s own
#: (``_validate`` reads them to tell a flag that was set from one that
#: was not).
SAMPLE_DEFAULTS = {"sample_" + name.removesuffix("_blocks"): blocks
                   for name, blocks in SamplingConfig().to_dict().items()}


def _add_sample_flags(sub_parser) -> None:
    """Sampled-simulation knobs (see docs/PERFORMANCE.md)."""
    sub_parser.add_argument(
        "--sample", action="store_true",
        help="sampled simulation: interpreter fast-forward with "
             "periodic detailed windows (TFlex points only)")
    for dest, what in (
            ("sample_ff", "blocks fast-forwarded between detailed windows"),
            ("sample_window", "measured blocks per detailed window"),
            ("sample_warmup", "warm-up blocks run in detail before each "
                              "window's measurement mark")):
        sub_parser.add_argument(
            "--" + dest.replace("_", "-"), type=int, metavar="BLOCKS",
            default=SAMPLE_DEFAULTS[dest],
            help=f"{what} (default %(default)s)")


def _sampling_from_args(args) -> dict | None:
    """The JobSpec sampling mapping for --sample, or None without it."""
    if not getattr(args, "sample", False):
        return None
    return {"ff_blocks": args.sample_ff,
            "window_blocks": args.sample_window,
            "warmup_blocks": args.sample_warmup}


def _add_exec_flags(sub_parser, jobs: bool = True) -> None:
    """Execution-engine knobs shared by the simulating subcommands."""
    if jobs:
        sub_parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="warm pool workers for cold simulation points (default 1: "
                 "run them in this process)")
    sub_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result store location (default .repro-cache)")
    sub_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result store (and the shared "
             "fast-forward traces under <cache-dir>/traces) for this "
             "invocation")
    sub_parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a JSONL event trace of this invocation to FILE")
    sub_parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry when the command finishes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composable Lightweight Processors (TFlex) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.add_argument("bench")
    run_p.add_argument("--cores", type=int, default=8,
                       help="composition size (power of two up to 32)")
    run_p.add_argument("--machine", choices=("tflex", "trips", "ooo"),
                       default="tflex")
    run_p.add_argument("--scale", type=int, default=1)
    run_p.add_argument(
        "--inject", action="append", metavar="SPEC",
        help="inject a fault: dead:CORE, kill:CORE@CYCLE, or "
             "link:SRC-DST:EXTRA[:NET] (repeatable; TFlex only)")
    _add_sample_flags(run_p)
    _add_exec_flags(run_p, jobs=False)

    sweep_p = sub.add_parser("sweep", help="composition sweep for one benchmark")
    sweep_p.add_argument("bench")
    sweep_p.add_argument("--scale", type=int, default=1)
    _add_sample_flags(sweep_p)
    _add_exec_flags(sweep_p)

    disasm_p = sub.add_parser("disasm", help="print compiled hyperblocks")
    disasm_p.add_argument("bench")
    disasm_p.add_argument("--scale", type=int, default=1)

    tl_p = sub.add_parser("timeline", help="block-pipeline timeline (figure 2 view)")
    tl_p.add_argument("bench")
    tl_p.add_argument("--cores", type=int, default=8)
    tl_p.add_argument("--blocks", type=int, default=16)
    tl_p.add_argument("--scale", type=int, default=1)

    prof_p = sub.add_parser(
        "profile", help="wall-clock phase profile of one simulation")
    prof_p.add_argument("bench")
    prof_p.add_argument("--cores", type=int, default=8,
                        help="composition size (power of two up to 32)")
    prof_p.add_argument("--machine", choices=("tflex", "trips"),
                        default="tflex")
    prof_p.add_argument("--scale", type=int, default=1)

    from repro.search.objective import OBJECTIVE_NAMES
    from repro.workloads.catalog import SETS

    search_p = sub.add_parser(
        "search", help="BEST-composition search (successive halving)")
    search_p.add_argument(
        "--objective", action="append", dest="objectives",
        choices=OBJECTIVE_NAMES + ("all",), metavar="NAME",
        help=f"objective to maximize: one of {', '.join(OBJECTIVE_NAMES)} "
             f"or all (repeatable; default all)")
    search_p.add_argument("--scale", type=int, default=1)
    search_p.add_argument("--bench", action="append", dest="benchmarks",
                          metavar="NAME",
                          help="restrict the search to this benchmark "
                               "(repeatable; default: the full suite)")
    search_p.add_argument("--eta", type=int, default=2,
                          help="promotion factor: each rung keeps the top "
                               "1/eta fraction of candidates (default 2)")
    search_p.add_argument("--seed", type=int, default=2007,
                          help="seed for the (optional) candidate subsample")
    search_p.add_argument("--max-candidates", type=int, default=None,
                          metavar="N",
                          help="deterministically subsample the space down "
                               "to N candidates before rung 0")
    search_p.add_argument("--out", default=None, metavar="FILE",
                          help="write the BEST line and work accounting "
                               "as JSON")
    _add_exec_flags(search_p)

    resil_p = sub.add_parser(
        "resil", help="dead-core degradation sweep (figure R)")
    resil_p.add_argument("--cores", type=int, default=16,
                         help="target composition size (default 16)")
    resil_p.add_argument("--max-dead", type=int, default=6,
                         help="largest dead-core count swept (default 6)")
    resil_p.add_argument("--seed", type=int, default=2007,
                         help="seed for the dead-core permutation")
    resil_p.add_argument("--scale", type=int, default=1)
    resil_p.add_argument("--bench", action="append", dest="benchmarks",
                         metavar="NAME",
                         help="restrict the sweep to this benchmark "
                              "(repeatable; default: "
                              f"{', '.join(SETS['figR'])})")
    resil_p.add_argument("--out", default=None, metavar="FILE",
                         help="write the degradation curve as JSON")
    _add_exec_flags(resil_p)

    cache_p = sub.add_parser(
        "cache", help="persistent store maintenance")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    gc_p = cache_sub.add_parser(
        "gc", help="prune cached results and fast-forward traces by "
                   "age and total size")
    gc_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store location to prune (default .repro-cache)")
    gc_p.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="prune oldest entries until the store fits in SIZE "
             "(accepts K/M/G suffixes, e.g. 512M)")
    gc_p.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune entries older than DAYS")
    gc_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything")

    lint_p = sub.add_parser(
        "lint", help="static invariant analysis over src/repro "
                     "(determinism, hash axes, obs names — see "
                     "docs/ANALYSIS.md)")
    lint_p.add_argument(
        "--root", default=None, metavar="DIR",
        help="source tree to analyse (default: the installed repro "
             "package directory)")
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)")
    lint_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the report to FILE (same format)")
    lint_p.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule-id prefixes to run, e.g. REP3,REP204 "
             "(default: all)")

    for fig in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2"):
        fig_p = sub.add_parser(fig, help=f"regenerate {fig}")
        fig_p.add_argument("--scale", type=int, default=1)
        fig_p.add_argument("--bench", action="append", dest="benchmarks",
                           metavar="NAME",
                           help="restrict to this benchmark (repeatable; "
                                "default: the full suite)")
        if fig in ("fig6", "fig7", "fig8", "fig10", "table2"):
            _add_sample_flags(fig_p)
        _add_exec_flags(fig_p)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Check flag values and combinations up front, so misuse fails in
    milliseconds with an actionable message instead of asserting deep
    inside a multi-minute simulation."""
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    named = ([args.bench] if hasattr(args, "bench")
             else getattr(args, "benchmarks", None))
    if named:
        from repro.workloads.catalog import CATALOG

        for name in named:
            if name in CATALOG:
                continue
            import difflib

            close = difflib.get_close_matches(name, CATALOG)
            hint = (f"did you mean {', '.join(close)}?" if close else
                    f"choose from {', '.join(sorted(CATALOG))}")
            parser.error(f"unknown benchmark {name!r}; {hint} "
                         f"(`repro list` shows the suite)")

    if hasattr(args, "cores") and getattr(args, "machine", "tflex") == "tflex":
        from repro.tflex.config import SHAPES

        if args.cores not in SHAPES:
            parser.error(
                f"--cores must be a power of two up to 32, got {args.cores}")

    if getattr(args, "sample", False):
        if getattr(args, "machine", "tflex") != "tflex":
            parser.error(f"--sample applies to TFlex compositions only; "
                         f"it cannot combine with --machine {args.machine}")
        try:
            SamplingConfig.from_dict(_sampling_from_args(args))
        except ValueError as exc:
            parser.error(f"--sample-*: {exc}")
    elif any(getattr(args, name, default) != default
             for name, default in SAMPLE_DEFAULTS.items()):
        parser.error("--sample-ff/--sample-window/--sample-warmup have no "
                     "effect without --sample")

    if getattr(args, "inject", None):
        if args.machine != "tflex":
            parser.error(f"--inject targets TFlex compositions; it cannot "
                         f"combine with --machine {args.machine}")
        if getattr(args, "sample", False):
            parser.error("--inject cannot combine with --sample: a "
                         "recomposition inside a fast-forward region is "
                         "undefined — drop one of the two")
        from repro.resil import FaultSchedule, parse_inject
        from repro.tflex import MAX_CYCLES, tflex_config

        try:
            schedule = FaultSchedule(tuple(parse_inject(text)
                                           for text in args.inject))
            schedule.validate(tflex_config(args.cores),
                              max_cycles=MAX_CYCLES)
        except ValueError as exc:
            parser.error(f"--inject: {exc}")

    if args.command == "search":
        if args.eta < 2:
            parser.error(f"--eta must be >= 2 (each rung has to eliminate "
                         f"something), got {args.eta}")
        if args.max_candidates is not None and args.max_candidates < 1:
            parser.error(f"--max-candidates must be >= 1, "
                         f"got {args.max_candidates}")

    if args.command == "lint":
        args.rules_parsed = None
        if args.rules:
            args.rules_parsed = tuple(
                r.strip() for r in args.rules.split(",") if r.strip())
            bad = [r for r in args.rules_parsed if not r.startswith("REP")]
            if bad:
                parser.error(f"--rules entries must be REP-prefixed rule "
                             f"ids or prefixes, got {', '.join(bad)}")

    if args.command == "cache":
        from repro.exec.store import parse_size

        args.max_bytes_parsed = None
        if args.max_bytes is not None:
            try:
                args.max_bytes_parsed = parse_size(args.max_bytes)
            except ValueError as exc:
                parser.error(f"--max-bytes: {exc}")
        if args.max_age_days is not None and args.max_age_days < 0:
            parser.error(f"--max-age-days must be >= 0, "
                         f"got {args.max_age_days}")

    if args.command == "resil":
        if not 0 < args.max_dead < args.cores:
            parser.error(
                f"--max-dead must be between 1 and {args.cores - 1} "
                f"(at least one core has to survive on a "
                f"{args.cores}-core chip), got {args.max_dead}")


def _configure_store(args) -> None:
    """Apply --cache-dir/--no-cache; commands without the flags (list,
    disasm, timeline) leave the store configuration untouched.  The
    fast-forward trace store follows: off with ``--no-cache``, else at
    ``<cache-dir>/traces``.  Pool workers are forked after this, so
    they inherit both."""
    if not hasattr(args, "no_cache"):
        return
    from repro.harness.runner import configure_cache

    configure_cache(cache_dir=args.cache_dir, enabled=not args.no_cache)


def _configure_obs(args) -> None:
    """Apply --trace-out/--metrics by installing the process-global
    observability bundle; commands without the flags leave it alone."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics", False):
        import repro.obs

        repro.obs.configure(trace_path=args.trace_out, metrics=args.metrics)


def _finalize_obs(args) -> None:
    """End-of-run bookkeeping: append the ``metrics.snapshot`` event to
    the trace, close sinks (restoring the inactive default bundle, so
    later in-process work cannot write to a closed trace file), and
    print the ``--metrics`` report."""
    import repro.obs

    obs = repro.obs.current()
    if not obs.active:
        return
    if obs.bus.active:
        obs.bus.deliver(obs.snapshot_event())
    report = obs.metrics.render() if getattr(args, "metrics", False) else None
    repro.obs.reset()
    if report is not None:
        print()
        print(report)


#: command -> handler; every figure command shares one.
_HANDLERS = {
    "list": _cmd_list, "run": _cmd_run, "sweep": _cmd_sweep,
    "disasm": _cmd_disasm, "timeline": _cmd_timeline,
    "profile": _cmd_profile, "resil": _cmd_resil, "search": _cmd_search,
    "cache": _cmd_cache, "lint": _cmd_lint,
}


def _dispatch(args) -> int:
    handler = _HANDLERS.get(args.command, _cmd_figure)
    if not hasattr(args, "no_cache"):
        return handler(args)        # no store flags: no executor batch
    from repro.harness.runner import JobFailed

    try:
        return handler(args)
    except JobFailed as exc:
        # A point that exhausted its retries is the designed outcome of
        # a sweep with a failing spec; the batch's successes are cached,
        # so a re-run repeats only the failure.
        print(f"repro: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)

    try:
        _configure_store(args)
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    _configure_obs(args)
    try:
        return _dispatch(args)
    finally:
        _finalize_obs(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
