"""One rep of one workload, in a fresh process.

The driver (``run.py``) starts this file once per (workload, rep) with
a fresh work directory and ``REPRO_*`` scrubbed from the environment,
because ``runner._CACHE``, ``runner._PROGRAMS``, ``sample.trace._PARSED``
and the store's ``durations.json`` sidecar otherwise leak from one rep
into the next.  The rep sets up (imports, plan, program builds), runs
the timed region through the program's public functions, checks what
it can see (hermeticity guards, missing records), and writes one JSON
report; pins and fidelity are checked by the driver.

``--traced-cli`` is the second entry: the traced ``warm_replay`` rep
starts its CLI invocations through it so the same span wrappers run
inside ``python -m repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

clock = time.perf_counter

#: Scrubbed from every process the benchmark starts; the rep passes
#: explicit directories instead, which also defeats
#: ``resolve_cache_dir()``'s ``PYTEST_CURRENT_TEST`` redirection.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_FF_TRACE_DIR", "REPRO_FF_TRACE",
                "PYTEST_CURRENT_TEST")

ENERGY_COUNTS = ("opn_hop", "control_hop", "lsq_search", "dcache_read",
                 "dcache_write", "icache_access", "l2_access",
                 "predictor_access")
STAT_COUNTS = ("violations", "replays", "nacks", "predictions",
               "predictions_correct")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # Linux reports KiB


def summarize(result: dict) -> dict:
    """Pin-sized view of one ``RunResult.to_dict()`` payload: the
    digest covers cycles, the full ProcStats, power and dram."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    stats = result["stats"]
    energy = stats["energy_events"]
    counts = {name: energy.get(name, 0) for name in ENERGY_COUNTS}
    counts.update({name: stats[name] for name in STAT_COUNTS})
    counts["dram_requests"] = result["dram_requests"]
    return {"bench": result["bench"], "label": result["label"],
            "digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "cycles": result["cycles"], "insts": result["insts_committed"],
            "blocks": stats["blocks_committed"], "counts": counts}


class Rep:
    """Clock, op log and result log of one rep."""

    def __init__(self, args, plan, tracer) -> None:
        self.args = args
        self.plan = plan
        self.tracer = tracer
        self.work = pathlib.Path(args.work_dir)
        self.store_dir = self.work / "store"
        self.trace_dir = self.store_dir / "traces"
        self.ops: list[dict] = []
        self.results: dict[str, dict] = {}
        self.guards: list[str] = []
        self.extra: dict = {}
        self.attempted = 0
        self.failed = 0
        self._root = None

    # -- timed region --------------------------------------------------

    def start(self) -> None:
        self.started = clock()
        self._cpu0 = _cpu_seconds()
        if self.tracer is not None:
            self._root = self.tracer.open("bench.timed_region")

    def stop(self) -> None:
        if self._root is not None:
            self.tracer.finish(self._root)
        self.stopped = clock()
        self.cpu_s = _cpu_seconds() - self._cpu0

    def op(self, name: str, fn, *args):
        """Run one operation; an exception makes it a failed op."""
        began = clock()
        error = None
        value = None
        try:
            value = fn(*args)
        except Exception as exc:    # boundary: the rep must still report
            error = f"{type(exc).__name__}: {exc}"
        self.ops.append({"op": name, "seconds": clock() - began,
                         "error": error})
        return value

    def record(self, key: str, spec_dict: dict, result: dict,
               simulated: bool) -> None:
        summary = summarize(result)
        summary["simulated"] = simulated
        summary["scale"] = spec_dict["scale"]
        summary["sampled"] = bool(spec_dict["sampling"])
        summary["spec"] = spec_dict
        self.results[key] = summary

    def scan_store(self, simulated: bool) -> None:
        """Every record in the rep's store -> the result log."""
        for path in sorted(self.store_dir.glob("??/*.json")):
            with open(path, encoding="utf-8") as source:
                record = json.load(source)
            self.record(record["key"], record["spec"],
                        record["payload"]["result"], simulated)

    def guard(self, ok: bool, message: str) -> None:
        if not ok:
            self.guards.append(message)

    # -- set-up shared by the simulating workloads ----------------------

    def fresh_stores(self, results: bool) -> None:
        """Point the program at this rep's empty directories."""
        from repro import harness
        from repro.sample.trace import configure_ff_trace

        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir.mkdir(exist_ok=True)
        self.guard(not any(self.trace_dir.iterdir())
                   and [p.name for p in self.store_dir.iterdir()]
                   == ["traces"], "store/trace dirs did not start empty")
        harness.configure_cache(self.store_dir, enabled=results)
        configure_ff_trace(enabled=True, cache_dir=self.trace_dir)

    def scan_cold_store(self) -> None:
        """After a cold workload: log its records, and guard that none
        was served from the store."""
        from repro import harness

        self.scan_store(simulated=True)
        self.guard(harness.get_store().hits == 0,
                   "cold workload hit the result store")

    def missing(self) -> set:
        """Planned specs with no record in the result log."""
        from repro.exec import spec_hash

        return {spec_hash(spec) for spec in self.plan.specs} - set(
            self.results)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def serial_specs(rep: Rep) -> None:
    """detail_serial and sampled_ff_share: the plan's specs, one by
    one, straight through ``simulate_spec`` (no result cache)."""
    from repro.exec import spec_hash
    from repro.harness import runner

    rep.fresh_stores(results=False)
    for bench, scale in rep.plan.programs:
        runner.cached_program("edge", bench, scale)
    specs = rep.plan.specs
    keys = [spec_hash(spec) for spec in specs]
    rep.start()
    done = [rep.op(f"{spec.bench}/{spec.label()}", runner.simulate_spec, spec)
            for spec in specs]
    rep.stop()
    for key, spec, result in zip(keys, specs, done):
        if result is not None:
            rep.record(key, spec.to_dict(), result.to_dict(), simulated=True)
    rep.attempted = len(specs)
    rep.failed = sum(1 for op in rep.ops if op["error"])
    groups = len({(s.bench, s.scale) for s in specs if s.sampling})
    blobs = len(list(rep.trace_dir.glob("??/*.json.gz")))
    rep.guard(blobs == groups,
              f"{blobs} traces recorded for {groups} trace groups")


def fig6_pool_cold(rep: Rep) -> None:
    from repro import harness

    rep.fresh_stores(results=True)
    names = list(rep.plan.benchmarks)

    def drive():
        fig6 = harness.fig6_performance(scale=1, benchmarks=names,
                                        jobs=rep.args.jobs)
        for reduce in (harness.fig7_area, harness.fig8_power,
                       harness.table2_area_power,
                       harness.fig10_multiprogramming):
            reduce(fig6).render()
        fig6.render()
        return fig6

    rep.start()
    fig6 = rep.op("fig6+reductions", drive)
    rep.stop()
    rep.scan_cold_store()
    rep.attempted = len(rep.plan.specs)
    rep.failed = rep.attempted if fig6 is None else len(rep.missing())
    if fig6 is not None:
        # PAPER.md Fig. 6: ~3.5x at 16 cores, ~4x for per-app BEST.
        geomean16 = fig6.mean_speedup("tflex-16")
        best = fig6.mean_best_speedup()
        rep.extra.update(
            geomean16=geomean16, best_speedup=best,
            paper_gap_pct=50.0 * (abs(geomean16 - 3.5) / 3.5
                                  + abs(best - 4.0) / 4.0))


def search_halving(rep: Rep) -> None:
    from repro import harness
    from repro.search import HalvingConfig

    rep.fresh_stores(results=True)
    plan = rep.plan

    def drive():
        found = harness.fig_best(
            scale=plan.scale, benchmarks=list(plan.benchmarks),
            jobs=rep.args.jobs, config=HalvingConfig(seed=plan.search_seed))
        found.render()
        return found

    rep.start()
    found = rep.op("fig_best", drive)
    rep.stop()
    rep.scan_cold_store()
    rep.attempted = max(1, len(rep.results))
    rep.failed = rep.attempted if found is None else 0
    if found is not None:
        rep.extra.update(
            best={objective: found.best_ncores(objective)
                  for objective in found.objectives()},
            detailed_jobs=found.detailed_jobs(),
            exhaustive_detailed_jobs=(found.exhaustive_detailed_jobs()
                                      * len(found.objectives())),
            scale=plan.scale)


def _store_snapshot(store_dir: pathlib.Path) -> list:
    return [(str(p.relative_to(store_dir)), p.stat().st_mtime_ns)
            for p in sorted(store_dir.glob("??/*.json"))]


def warm_replay(rep: Rep) -> None:
    import repro.harness  # noqa: F401  (set-up cost users pay per command)

    rep.guard(not rep.store_dir.exists(), "store dir did not start empty")
    shutil.copytree(rep.args.store_src, rep.store_dir)
    before = _store_snapshot(rep.store_dir)
    env = child_env()
    tracer = rep.tracer

    def invoke(argv):
        tail = [*argv, "--cache-dir", str(rep.store_dir)]
        if tracer is None:
            cmd = [sys.executable, "-m", "repro", *tail]
            return subprocess.run(cmd, env=env, cwd=rep.work, text=True,
                                  capture_output=True, check=False)
        with tracer.span("cli.invoke") as span:
            cmd = [sys.executable, str(HERE / "child.py"), "--traced-cli",
                   str(rep.work), span["id"], rep.plan.workload, *tail]
            return subprocess.run(cmd, env=env, cwd=rep.work, text=True,
                                  capture_output=True, check=False)

    rep.start()
    for chain in rep.plan.chains:
        for argv in chain:
            began = clock()
            done = invoke(argv)
            error = None
            if done.returncode != 0:
                error = f"exit {done.returncode}: {done.stderr[-300:]}"
            elif not done.stdout.strip():
                error = "empty output"
            rep.ops.append({
                "op": argv[0], "seconds": clock() - began, "error": error,
                "stdout_sha256": hashlib.sha256(
                    done.stdout.encode()).hexdigest()})
    rep.stop()
    rep.attempted = len(rep.ops)
    rep.failed = sum(1 for op in rep.ops if op["error"])
    rep.guard(_store_snapshot(rep.store_dir) == before,
              "warm workload wrote the result store (it simulated)")
    rep.scan_store(simulated=False)
    rep.guard(not rep.missing(), "planned records missing from the "
                                 "pre-filled store")


RUNNERS = {
    "detail_serial": serial_specs,
    "sampled_ff_share": serial_specs,
    "fig6_pool_cold": fig6_pool_cold,
    "search_halving": search_halving,
    "warm_replay": warm_replay,
}


# ----------------------------------------------------------------------
# References for --regen-expected
# ----------------------------------------------------------------------

def references(rep: Rep) -> dict:
    """Full-detail reference cycles for every sampled result, and (for
    the search) the exhaustive argmax per (bench, objective)."""
    from dataclasses import replace

    from repro.exec import JobSpec, run_specs, spec_hash
    from repro.harness.runner import RunResult
    from repro.search import OBJECTIVE_NAMES, get_objective

    from .pool import CORE_COUNTS

    sampled = {key: JobSpec.from_dict(summary["spec"])
               for key, summary in rep.results.items() if summary["sampled"]}
    detailed = {key: replace(spec, sampling=())
                for key, spec in sampled.items()}
    wanted = {spec_hash(spec): spec for spec in detailed.values()}
    best: dict = {}
    grid: dict = {}
    if rep.plan.workload == "search_halving":
        for bench in rep.plan.benchmarks:
            for n in CORE_COUNTS:
                spec = JobSpec.edge(bench, ncores=n, scale=rep.plan.scale)
                grid[(bench, n)] = spec_hash(spec)
                wanted[spec_hash(spec)] = spec
    outcomes = run_specs(list(wanted.values()), jobs=rep.args.jobs)
    runs = {}
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(f"reference run failed: {outcome.error}")
        runs[spec_hash(outcome.spec)] = RunResult.from_dict(
            outcome.payload["result"])
    ref_cycles = {key: runs[spec_hash(spec)].cycles
                  for key, spec in detailed.items()}
    for objective in OBJECTIVE_NAMES if grid else ():
        score = get_objective(objective)
        best[objective] = {
            # max() keeps the first (smallest) maximal composition, the
            # exhaustive drivers' tie-break.
            bench: max(CORE_COUNTS,
                       key=lambda n: score(runs[grid[(bench, n)]]))
            for bench in sorted(rep.plan.benchmarks)}
    return {"ref_cycles": ref_cycles, "best": best}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run_rep(args) -> dict:
    t_import = clock()
    import repro.cli  # noqa: F401
    import repro.harness  # noqa: F401
    import_s = clock() - t_import

    from . import layers
    from .pool import plan as make_plan
    from .trace import Tracer

    tracer = None
    if args.traced:
        tracer = Tracer(args.workload, args.rep, args.work_dir)
        tracer.install()
    plan = make_plan(args.workload, args.seed, args.quick)
    rep = Rep(args, plan, tracer)
    RUNNERS[args.workload](rep)

    if rep.guards:
        # A rep that was not hermetic measured something else: count
        # every op as failed rather than report a fast number.
        rep.failed = rep.attempted
    wall_s = rep.stopped - rep.started
    insts = sum(r["insts"] for r in rep.results.values())
    if args.workload == "warm_replay":
        insts *= len(rep.ops)           # every invocation serves them all
        done = len(rep.ops)
    else:
        done = len(rep.results)
    report = {
        "workload": args.workload, "seed": args.seed, "rep": args.rep,
        "traced": bool(args.traced), "quick": bool(args.quick),
        "attempted": rep.attempted, "failed": rep.failed,
        "guards": rep.guards, "ops": rep.ops, "results": rep.results,
        "extra": rep.extra,
        "end_to_end": {
            "wall_s": wall_s,
            "setup_s": rep.started - args.t0,
            "cpu_s": rep.cpu_s,
            "peak_rss_mb": _peak_rss_mb(),
            "insts_per_s": insts / wall_s,
            "jobs_per_s": done / wall_s,
        },
    }
    if tracer is not None:
        report["layers"] = layers.collect(rep, tracer, import_s, wall_s)
        report["trace"] = {"spans": tracer.spans, "events": tracer.events}
    if args.references:
        report["references"] = references(rep)
    return report


def traced_cli(side_dir: str, parent: str, workload: str, argv) -> int:
    """``python -m repro <argv>`` with the span wrappers installed."""
    from .trace import Tracer

    tracer = Tracer(workload, 0, side_dir)
    with tracer.span("cli.process") as root:
        root["parent"] = parent
        with tracer.span("cli.import"):
            import repro.cli
            import repro.harness  # noqa: F401  (every figure command's)
        tracer.install()
        code = repro.cli.main(list(argv))
    root["counts"] = {"mem_cache_hits": tracer.metrics.counter(
        "run.cache_hits", source="memory")}
    with open(os.path.join(side_dir, f"spans-{os.getpid()}.jsonl"), "a",
              encoding="utf-8") as sink:
        sink.write(json.dumps(tracer.spans) + "\n")
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--traced-cli":
        return traced_cli(argv[1], argv[2], argv[3], argv[4:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="driver's perf_counter() just before spawn")
    parser.add_argument("--store-src", default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--references", action="store_true")
    args = parser.parse_args(argv)
    leaked = [name for name in SCRUBBED_ENV if name in os.environ]
    if leaked:
        parser.error(f"environment not scrubbed: {leaked}")
    report = run_rep(args)
    with open(os.path.join(args.work_dir, "report.json"), "w",
              encoding="utf-8") as sink:
        json.dump(report, sink)
    return 0


if __name__ == "__main__":
    # Started by path: make ``benchmarks.perf`` and ``repro`` importable.
    # (replacing the script's own directory, whose ``trace.py`` would
    # otherwise shadow the standard library's).
    sys.path[0:1] = [str(ROOT), str(SRC)]
    from benchmarks.perf import child as _self

    sys.exit(_self.main())
