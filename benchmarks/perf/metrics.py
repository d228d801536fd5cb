"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` is generated from these tables (``python
benchmarks/perf/metrics.py`` rewrites it) and ``tests/test_bench.py``
checks the two agree, so a metric is declared exactly once.

The driver's contract wants every ``end_to_end`` metric from every
workload, never zero, so ``END_TO_END`` holds the six host metrics all
five workloads define.  The issue's other eight end-to-end metrics —
exact simulated quantities that are zero when all is well, and metrics
only one or two workloads define — are ``WORKLOAD_METRICS``: printed by
name with the per-layer set (``--trace 1``), gated through ``correct``
/ ``failed``, and compared by ``--compare`` with the bounds below.
"""

from __future__ import annotations

import json
import pathlib
import sys

LAYERS = ("cli", "harness", "exec", "search", "sample", "isa", "compiler",
          "workloads", "tflex", "noc", "lsq", "power", "sched")

#: name -> (unit, better, bound as a share of the parent's median).
#: The issue asked for 10 %; the driver wants three times the widest
#: quartile spread seen over ten seeds, which on the 2-hyperthread
#: sandbox reached 7.9 % (README "Reference run"), so every bound is
#: the contract's maximum.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "insts_per_s": ("1/s", "higher", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
}

#: name -> (unit, better, bound, kind): ``rel`` bounds are a share of
#: the base, ``abs`` bounds are in the metric's own unit, ``exact``
#: metrics must be equal.  0 where a workload does not define one.
WORKLOAD_METRICS = {
    "invoke_p50_s": ("s", "lower", 0.10, "rel"),
    "invoke_p66_s": ("s", "lower", 0.15, "rel"),
    "failed_frac": ("ratio", "lower", 0.0, "exact"),
    "result_mismatches": ("count", "lower", 0.0, "exact"),
    "sampled_err_pct": ("%", "lower", 0.5, "abs"),
    "best_agree_frac": ("ratio", "higher", 0.0, "exact"),
    "paper_gap_pct": ("%", "lower", 0.5, "abs"),
    "detail_job_reduction_x": ("x", "higher", 0.0, "exact"),
}


def _seconds(*names):
    return {name: ("s", "lower") for name in names}


def _counts(*names, better="lower"):
    return {name: ("count", better) for name in names}


#: name -> (unit, better); from the traced rep.
PER_LAYER = {
    **_seconds("cli.import_s", "cli.invoke_s", "harness.plan_s",
               "harness.assemble_s", "harness.reduce_s"),
    **_counts("harness.mem_cache_hits", better="higher"),
    **_seconds("exec.hash_s", "exec.run_specs_s", "exec.job_s_sum",
               "exec.dispatch_overhead_s", "exec.pool_boot_s",
               "exec.store_write_s", "exec.store_read_s"),
    **_counts("exec.hashes", "exec.jobs", "exec.retries", "exec.respawns",
              "exec.store_writes", "exec.store_reads"),
    **_counts("exec.coalesced", better="higher"),
    "exec.worker_busy_frac": ("ratio", "higher"),
    "exec.store_hit_frac": ("ratio", "higher"),
    "exec.store_bytes": ("B", "lower"),
    "exec.payload_bytes": ("B", "lower"),
    **_counts("search.evals", "search.detailed_jobs"),
    **_counts("search.eliminations", better="higher"),
    **_seconds("search.rung0_s", "search.rung1_s", "search.rung2_s",
               "search.self_s"),
    **_seconds("sample.run_s", "sample.ff_s", "sample.ff_replay_s",
               "sample.window_s"),
    **_counts("sample.ff_blocks", "sample.ff_replay_blocks",
              "sample.windows", "sample.trace_records",
              "sample.trace_mismatches"),
    **_counts("sample.trace_replays", better="higher"),
    "sample.trace_bytes": ("B", "lower"),
    "sample.replay_useful_frac": ("ratio", "higher"),
    "isa.interp_s": ("s", "lower"),
    "isa.interp_blocks": ("count", "lower"),
    "isa.interp_blocks_per_s": ("1/s", "higher"),
    **_seconds("workloads.build_s", "compiler.compile_edge_s",
               "workloads.verify_s"),
    **_counts("workloads.builds"),
    **_seconds("tflex.construct_s", "tflex.run_s", "tflex.fetch_s",
               "tflex.issue_s", "tflex.execute_s", "tflex.commit_s",
               "tflex.unattributed_s"),
    **_counts("tflex.events", "tflex.blocks", "tflex.cycles"),
    "tflex.us_per_event": ("us", "lower"),
    "tflex.ipc": ("1/cycle", "higher"),
    "tflex.squash_frac": ("ratio", "lower"),
    "noc.s": ("s", "lower"),
    **_counts("noc.calls", "noc.opn_hops", "noc.control_hops"),
    "lsq.s": ("s", "lower"),
    **_counts("lsq.searches", "lsq.violations", "lsq.replays", "lsq.nacks"),
    **_counts("mem.l1d_accesses", "mem.l1i_accesses", "mem.l2_accesses",
              "mem.dram_requests"),
    **_counts("predictor.accesses"),
    "predictor.accuracy": ("ratio", "higher"),
    **_seconds("power.breakdown_s", "sched.fig10_s"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
    # The ledger: traced wall clock charged to each layer's own code.
    **_seconds(*(f"self.{layer}_s" for layer in LAYERS)),
    **_seconds("unattributed_s", "traced_wall_s"),
}

WORKLOAD_WHY = {
    "detail_serial": "in-process full-detail TFlexSystem runs, caches off: "
                     "tflex/noc/lsq/mem/predictor do the work, exec/sample/"
                     "search/store do none",
    "sampled_ff_share": "serial sampled sweep over a fresh trace store (1 "
                        "record + 4 replays per program): isa.interp and "
                        "sample dominate, tflex is small",
    "fig6_pool_cold": "the canonical fig6 sweep (182 short jobs, 2 workers) "
                      "into an empty store: pool boot, dispatch, pickling and "
                      "store writes are at their largest share",
    "search_halving": "fig_best over all objectives with store and trace "
                      "store: crosses search, harness, exec, sample (short "
                      "fast-forward, windows dominate) and tflex",
    "warm_replay": "15 CLI invocations against a pre-filled store: zero "
                   "simulation, only interpreter start, imports, store reads "
                   "and reduce/render",
}

WORKLOADS = tuple(WORKLOAD_WHY)


def unit_of(name: str) -> str:
    for table in (END_TO_END, WORKLOAD_METRICS, PER_LAYER):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def benchmark_json() -> dict:
    """The contract file, derived from the tables above."""
    per_layer = [{"name": name, "unit": unit, "better": better}
                 for name, (unit, better, _, _) in WORKLOAD_METRICS.items()]
    per_layer += [{"name": name, "unit": unit, "better": better}
                  for name, (unit, better) in PER_LAYER.items()]
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": per_layer,
    }


if __name__ == "__main__":
    target = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}", file=sys.stderr)
