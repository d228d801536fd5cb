"""The per-module ledger: per-layer metrics from one traced rep.

Everything here is read from outside the program — the benchmark's own
spans and tallies (``trace.py``), the stamped ``repro.obs`` events, the
public metrics registry, and the completed results' ``ProcStats``.
"""

from __future__ import annotations

import time

from .metrics import LAYERS, PER_LAYER
from .trace import ledger, self_times


def _isa_probe(rep) -> dict:
    """A direct ``Interpreter(program).run()`` pass over the plan's
    programs: the functional model's speed with nothing around it."""
    from repro.harness import runner
    from repro.isa.interp import Interpreter

    programs = list(rep.plan.programs)
    if not programs:
        programs = sorted({(r["bench"], r["scale"])
                           for r in rep.results.values()})
    seconds = 0.0
    blocks = 0
    for bench, scale in programs:
        program = runner.cached_program("edge", bench, scale)[0]
        began = time.perf_counter()
        outcome = Interpreter(program).run(max_blocks=10_000_000)
        seconds += time.perf_counter() - began
        blocks += outcome.blocks_executed
    return {"isa.interp_s": seconds, "isa.interp_blocks": blocks,
            "isa.interp_blocks_per_s": blocks / seconds if seconds else 0.0}


def _rung_seconds(events: list) -> dict:
    """Wall clock of each halving rung, summed over the searches: a
    rung ends at its last ``search.rung`` event and starts where the
    previous rung (or ``search.start``) ended."""
    out = {0: 0.0, 1: 0.0, 2: 0.0}
    edge = None
    current = None
    last = None
    for event in events:
        if event["kind"] == "search.start":
            edge, current, last = event["t"], None, None
        elif event["kind"] == "search.rung" and edge is not None:
            if current is not None and event["rung"] != current:
                out[current] = out.get(current, 0.0) + last - edge
                edge = last
            current, last = event["rung"], event["t"]
        elif event["kind"] == "search.best" and current is not None:
            out[current] = out.get(current, 0.0) + last - edge
            edge, current = last, None
    return out


def collect(rep, tracer, import_s: float, wall_s: float) -> dict:
    tracer.merge_side_files()
    tracer.add_job_spans()
    spans = tracer.spans
    obs_metrics = tracer.metrics

    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    phases: dict[str, list] = {}
    tally: dict[str, list] = {}
    for span in spans:
        name = span["name"]
        dur[name] = dur.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, (seconds, n) in span.get("phases", {}).items():
            entry = phases.setdefault(key, [0.0, 0])
            entry[0] += seconds
            entry[1] += n
        for key, (n, seconds) in span.get("tally", {}).items():
            entry = tally.setdefault(key, [0, 0.0])
            entry[0] += n
            entry[1] += seconds

    own: dict[str, float] = {}
    for entry in self_times(spans):
        name = entry["span"]["name"]
        own[name] = own.get(name, 0.0) + entry["self"]

    def phase_s(name):
        return phases.get(name, [0.0, 0])[0]

    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(_isa_probe(rep))

    invocations = calls.get("cli.invoke", 0)
    m["cli.import_s"] = (dur.get("cli.import", 0.0) / invocations
                         if invocations else import_s)
    m["cli.invoke_s"] = (dur.get("cli.invoke", 0.0) / invocations
                         if invocations else 0.0)

    m["harness.plan_s"] = dur.get("harness.plan", 0.0)
    run_specs_s = dur.get("exec.run_specs", 0.0)
    m["harness.assemble_s"] = max(0.0, dur.get("harness.fig6_performance", 0.0)
                                  + dur.get("harness.fig_best", 0.0)
                                  - run_specs_s)
    m["harness.reduce_s"] = (dur.get("harness.reduce", 0.0)
                             + dur.get("harness.render", 0.0))
    m["harness.mem_cache_hits"] = (
        obs_metrics.counter("run.cache_hits", source="memory")
        + counts.get("mem_cache_hits", 0))

    hashes, hash_s = tally.get("exec.hash", [0, 0.0])
    jobs = calls.get("exec.job", 0)
    # Dispatch -> done as the driver saw it; ``JobResult.duration``
    # counts from batch start, so it includes each job's queue wait.
    job_s = dur.get("exec.job", 0.0)
    workers = max(1, rep.args.jobs)
    m["exec.hash_s"] = hash_s
    m["exec.hashes"] = hashes
    m["exec.run_specs_s"] = run_specs_s
    m["exec.jobs"] = jobs
    m["exec.job_s_sum"] = job_s
    if jobs and run_specs_s:
        m["exec.worker_busy_frac"] = job_s / (workers * run_specs_s)
        m["exec.dispatch_overhead_s"] = run_specs_s - job_s / workers
    batch_start = {s["id"]: s["start"] for s in spans
                   if s["name"] == "exec.run_specs"}
    first_job: dict = {}
    for span in spans:
        if span["name"] == "exec.job" and span["parent"] in batch_start:
            first_job[span["parent"]] = min(
                span["start"], first_job.get(span["parent"], span["start"]))
    m["exec.pool_boot_s"] = sum(first - batch_start[batch]
                                for batch, first in first_job.items())
    m["exec.retries"] = obs_metrics.counter_total("exec.retries")
    m["exec.respawns"] = obs_metrics.counter_total("exec.worker_respawns")
    m["exec.coalesced"] = obs_metrics.counter_total("exec.coalesced")
    m["exec.store_write_s"] = dur.get("exec.store_write", 0.0)
    m["exec.store_writes"] = counts.get("store_writes", 0)
    m["exec.store_read_s"] = dur.get("exec.store_load", 0.0)
    reads = counts.get("store_reads", 0)
    m["exec.store_reads"] = reads
    m["exec.store_hit_frac"] = (counts.get("store_hits", 0) / reads
                                if reads else 0.0)
    m["exec.store_bytes"] = counts.get("store_bytes", 0)
    m["exec.payload_bytes"] = counts.get("payload_bytes", 0)

    m["search.evals"] = obs_metrics.counter_total("search.evals")
    m["search.detailed_jobs"] = obs_metrics.counter_total(
        "search.detailed_jobs")
    m["search.eliminations"] = obs_metrics.counter_total(
        "search.eliminations")
    for rung, seconds in _rung_seconds(tracer.events).items():
        m[f"search.rung{rung}_s"] = seconds
    m["search.self_s"] = own.get("search.search_best", 0.0)

    ff_s = phase_s("sample.ff")
    replay_s = phase_s("sample.ff_replay")
    m["sample.run_s"] = dur.get("sample.run_sampled", 0.0)
    m["sample.ff_s"] = ff_s
    m["sample.ff_replay_s"] = replay_s
    m["sample.window_s"] = max(0.0, m["sample.run_s"] - ff_s - replay_s)
    m["sample.ff_blocks"] = counts.get("sample.ff_blocks", 0)
    m["sample.ff_replay_blocks"] = counts.get("sample.ff_replayed_blocks", 0)
    m["sample.windows"] = counts.get("sample.windows", 0)
    records = counts.get("sample.trace_records", 0)
    replays = counts.get("sample.trace_replays", 0)
    m["sample.trace_records"] = records
    m["sample.trace_replays"] = replays
    m["sample.trace_mismatches"] = counts.get("sample.trace_mismatches", 0)
    m["sample.trace_bytes"] = sum(
        path.stat().st_size for path in rep.trace_dir.glob("??/*.json.gz"))
    if records + replays:
        m["sample.replay_useful_frac"] = replays / (records + replays)

    m["workloads.build_s"] = own.get("workloads.build", 0.0)
    m["workloads.builds"] = calls.get("workloads.build", 0)
    m["compiler.compile_edge_s"] = dur.get("compiler.compile_edge", 0.0)
    m["workloads.verify_s"] = dur.get("workloads.verify", 0.0)

    run_s = dur.get("tflex.run", 0.0)
    events = counts.get("events", 0)
    m["tflex.construct_s"] = own.get("tflex.construct", 0.0)
    m["tflex.run_s"] = run_s
    m["tflex.events"] = events
    m["tflex.us_per_event"] = 1e6 * run_s / events if events else 0.0
    m["tflex.blocks"] = counts.get("blocks", 0)
    m["tflex.cycles"] = counts.get("cycles", 0)
    if counts.get("cycles"):
        m["tflex.ipc"] = counts.get("insts", 0) / counts["cycles"]
    if counts.get("blocks_fetched"):
        m["tflex.squash_frac"] = (counts.get("blocks_squashed", 0)
                                  / counts["blocks_fetched"])
    for phase in ("fetch", "issue", "execute", "commit"):
        m[f"tflex.{phase}_s"] = phase_s(phase)
    m["tflex.unattributed_s"] = max(0.0, run_s - sum(
        phase_s(p) for p in ("fetch", "issue", "execute", "commit", "noc",
                             "lsq", "recovery")))
    m["noc.s"] = phase_s("noc")
    m["noc.calls"] = phases.get("noc", [0.0, 0])[1]
    m["lsq.s"] = phase_s("lsq")

    sim = {}
    for result in rep.results.values():
        if result["simulated"]:
            for key, value in result["counts"].items():
                sim[key] = sim.get(key, 0) + value
    m["noc.opn_hops"] = sim.get("opn_hop", 0)
    m["noc.control_hops"] = sim.get("control_hop", 0)
    m["lsq.searches"] = sim.get("lsq_search", 0)
    m["lsq.violations"] = sim.get("violations", 0)
    m["lsq.replays"] = sim.get("replays", 0)
    m["lsq.nacks"] = sim.get("nacks", 0)
    m["mem.l1d_accesses"] = sim.get("dcache_read", 0) + sim.get(
        "dcache_write", 0)
    m["mem.l1i_accesses"] = sim.get("icache_access", 0)
    m["mem.l2_accesses"] = sim.get("l2_access", 0)
    m["mem.dram_requests"] = sim.get("dram_requests", 0)
    m["predictor.accesses"] = sim.get("predictor_access", 0)
    if sim.get("predictions"):
        m["predictor.accuracy"] = (sim["predictions_correct"]
                                   / sim["predictions"])

    m["power.breakdown_s"] = dur.get("power.breakdown", 0.0)
    m["sched.fig10_s"] = dur.get("sched.fig10", 0.0)

    books = ledger(spans, "bench.timed_region")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = books["layers"].get(layer, 0.0)
    m["unattributed_s"] = books["unattributed"]
    m["traced_wall_s"] = wall_s
    return m
