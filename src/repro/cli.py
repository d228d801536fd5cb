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

The figure commands are this module's; every other command's
subparser and handler live in :mod:`repro.commands`, which a figure
run never loads.  A command builds only its own subparser: the full
parser is for ``repro --help`` and for error messages.
"""

from __future__ import annotations

import argparse
import sys

from repro.sample.config import SamplingConfig


#: ``--sample-*`` defaults, in blocks: ``SamplingConfig``'s own
#: (``_validate`` reads them to tell a flag that was set from one that
#: was not).
SAMPLE_DEFAULTS = {"sample_" + name.removesuffix("_blocks"): blocks
                   for name, blocks in SamplingConfig().to_dict().items()}


def add_sample_flags(sub_parser) -> None:
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


def sampling_from_args(args) -> dict | None:
    """The JobSpec sampling mapping for --sample, or None without it."""
    if not getattr(args, "sample", False):
        return None
    return {"ff_blocks": args.sample_ff,
            "window_blocks": args.sample_window,
            "warmup_blocks": args.sample_warmup}


def add_exec_flags(sub_parser, jobs: bool = True) -> None:
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


def _add_figure(sub, name: str) -> None:
    fig_p = sub.add_parser(name, help=f"regenerate {name}")
    fig_p.add_argument("--scale", type=int, default=1)
    fig_p.add_argument("--bench", action="append", dest="benchmarks",
                       metavar="NAME",
                       help="restrict to this benchmark (repeatable; "
                            "default: the full suite)")
    if name in ("fig6", "fig7", "fig8", "fig10", "table2"):
        add_sample_flags(fig_p)
    add_exec_flags(fig_p)


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
                                    sampling=sampling_from_args(args))
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


#: The figure commands, this module's own.
FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2")

#: Every command, in ``--help`` order; all but the figures are
#: :mod:`repro.commands`'.
COMMANDS = ("list", "run", "sweep", "disasm", "timeline", "profile",
            "search", "resil", "cache", "lint") + FIGURES


def _add_subparser(sub, name: str) -> None:
    if name in FIGURES:
        _add_figure(sub, name)
    else:
        from repro.commands import COMMANDS as OTHERS

        OTHERS[name][0](sub, name)


def _parser(commands, parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="repro",
        description="Composable Lightweight Processors (TFlex) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _add_subparser(sub, name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(COMMANDS)


class _Misuse(Exception):
    """A one-command parse met an error the full parser must report."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Misuse(message)


def _parse(argv: list):
    """Parse and validate ``argv``.  A command builds only its own
    subparser, which parses exactly as the full parser's does; help
    for the command prints from it too.  Anything else — no command,
    an unknown one, or any error — goes through :func:`build_parser`,
    whose usage line lists every command."""
    if argv and argv[0] in COMMANDS:
        parser = _parser(argv[:1], _OneCommandParser)
        try:
            args = parser.parse_args(argv)
            _validate(parser, args)
            return args
        except _Misuse:
            pass
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args


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
            SamplingConfig.from_dict(sampling_from_args(args))
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
        from repro.exec.gc import parse_size

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
    print the ``--metrics`` report.  A process that never imported
    ``repro.obs`` has nothing to finalize."""
    obs_lib = sys.modules.get("repro.obs")
    if obs_lib is None:
        return
    obs = obs_lib.current()
    if not obs.active:
        return
    if obs.bus.active:
        obs.bus.deliver(obs.snapshot_event())
    report = obs.metrics.render() if getattr(args, "metrics", False) else None
    obs_lib.reset()
    if report is not None:
        print()
        print(report)


def _dispatch(args) -> int:
    if args.command in FIGURES:
        handler = _cmd_figure
    else:
        from repro.commands import COMMANDS as OTHERS

        handler = OTHERS[args.command][1]
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
    args = _parse(sys.argv[1:] if argv is None else list(argv))

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
