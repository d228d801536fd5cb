"""The commands beside the figures: each one's subparser and handler.

:mod:`repro.cli` owns the entry point, the figure commands, up-front
validation and dispatch; it loads this module only for a command below,
or to build the full parser (``repro --help``, or an error's usage
line).  A warm figure replay therefore never compiles it.
"""

from __future__ import annotations

import sys

from repro.cli import add_exec_flags, add_sample_flags, sampling_from_args


def _add_list(sub, name: str) -> None:
    sub.add_parser(name, help="list the benchmark suite")


def _cmd_list(args) -> int:
    from repro.harness.reporting import format_table
    from repro.workloads.catalog import CATALOG

    rows = [[b.name, b.category, b.ilp] for b in
            sorted(CATALOG.values(), key=lambda b: (b.category, b.name))]
    print(format_table(["benchmark", "category", "ilp"], rows,
                       title="26-benchmark suite (paper Table 1)"))
    return 0


def _add_run(sub, name: str) -> None:
    run_p = sub.add_parser(name, help="run one benchmark")
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
    add_sample_flags(run_p)
    add_exec_flags(run_p, jobs=False)


def _cmd_run(args) -> int:
    from repro.harness import run_edge_benchmark, run_risc_benchmark

    if args.machine == "ooo":
        result = run_risc_benchmark(args.bench, scale=args.scale)
        print(f"{args.bench} on OoO baseline: {result.cycles} cycles, "
              f"{result.insts} insts, {result.mispredictions} mispredicts")
        return 0
    sampling = sampling_from_args(args)
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


def _add_sweep(sub, name: str) -> None:
    sweep_p = sub.add_parser(name, help="composition sweep for one benchmark")
    sweep_p.add_argument("bench")
    sweep_p.add_argument("--scale", type=int, default=1)
    add_sample_flags(sweep_p)
    add_exec_flags(sweep_p)


def _cmd_sweep(args) -> int:
    from repro.exec import JobSpec
    from repro.harness import format_table, run_all
    from repro.harness.experiments import CORE_COUNTS

    sampling = sampling_from_args(args)
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


def _add_disasm(sub, name: str) -> None:
    disasm_p = sub.add_parser(name, help="print compiled hyperblocks")
    disasm_p.add_argument("bench")
    disasm_p.add_argument("--scale", type=int, default=1)


def _cmd_disasm(args) -> int:
    from repro.workloads import BENCHMARKS

    program, __, __k = BENCHMARKS[args.bench].edge_program(args.scale)
    print(program.disassemble())
    return 0


def _add_timeline(sub, name: str) -> None:
    tl_p = sub.add_parser(name, help="block-pipeline timeline (figure 2 view)")
    tl_p.add_argument("bench")
    tl_p.add_argument("--cores", type=int, default=8)
    tl_p.add_argument("--blocks", type=int, default=16)
    tl_p.add_argument("--scale", type=int, default=1)


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


def _add_profile(sub, name: str) -> None:
    prof_p = sub.add_parser(
        name, help="wall-clock phase profile of one simulation")
    prof_p.add_argument("bench")
    prof_p.add_argument("--cores", type=int, default=8,
                        help="composition size (power of two up to 32)")
    prof_p.add_argument("--machine", choices=("tflex", "trips"),
                        default="tflex")
    prof_p.add_argument("--scale", type=int, default=1)


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


def _add_search(sub, name: str) -> None:
    from repro.search.objective import OBJECTIVE_NAMES

    search_p = sub.add_parser(
        name, help="BEST-composition search (successive halving)")
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
    add_exec_flags(search_p)


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


def _add_resil(sub, name: str) -> None:
    from repro.workloads.catalog import SETS

    resil_p = sub.add_parser(
        name, help="dead-core degradation sweep (figure R)")
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
    add_exec_flags(resil_p)


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


def _add_cache(sub, name: str) -> None:
    cache_p = sub.add_parser(
        name, help="persistent store maintenance")
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


def _cmd_cache(args) -> int:
    import pathlib

    from repro.exec.gc import gc_cache
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


def _add_lint(sub, name: str) -> None:
    lint_p = sub.add_parser(
        name, help="static invariant analysis over src/repro "
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


#: command -> (add its subparser, handle it), in ``--help`` order.
COMMANDS = {
    "list": (_add_list, _cmd_list), "run": (_add_run, _cmd_run),
    "sweep": (_add_sweep, _cmd_sweep), "disasm": (_add_disasm, _cmd_disasm),
    "timeline": (_add_timeline, _cmd_timeline),
    "profile": (_add_profile, _cmd_profile),
    "search": (_add_search, _cmd_search), "resil": (_add_resil, _cmd_resil),
    "cache": (_add_cache, _cmd_cache), "lint": (_add_lint, _cmd_lint),
}
