"""Central registry of every observability name the codebase may emit.

This module is the single source of truth for the obs vocabulary:

* :data:`EVENTS` — every ``kind`` the :class:`~repro.obs.bus.TraceBus`
  carries, mapped to a one-line description.
* :data:`METRICS` — every series name the
  :class:`~repro.obs.metrics.MetricsRegistry` records.
* :data:`PHASES` — the :class:`~repro.obs.profile.PhaseProfiler` phase
  vocabulary.

Two guards keep it honest:

* the static pass ``repro.analysis.obsnames`` (run by ``repro lint``)
  flags any ``obs.emit("name", ...)`` / ``metrics.inc("name", ...)``
  call site whose literal name is missing here;
* ``tests/obs/test_schema.py`` asserts every name here appears in
  docs/OBSERVABILITY.md, and runs a small workload to assert every name
  emitted at runtime (including dynamically formatted ones such as the
  ``tflex.*`` scalar flush) is registered.

Adding a new event or metric therefore means: emit it, register it
here, and document it in docs/OBSERVABILITY.md — the lint/tests fail
until all three agree.
"""

from __future__ import annotations

#: TraceBus event kinds -> one-line description.
EVENTS: dict[str, str] = {
    # Simulator (repro.tflex.system / processor)
    "block.fetch": "block fetch command issued to the owner core",
    "block.commit": "block committed (carries the pipeline timestamps)",
    "block.mispredict": "next-block prediction resolved wrong",
    "block.squash": "pipeline flush squashed in-flight blocks",
    "proc.halt": "a composed processor halted (final cycle count)",
    "sim.done": "the whole system finished simulating",
    # Exec engine (repro.exec.executor / pool / store)
    "job.start": "executor handed a job to a worker",
    "job.done": "job finished and its result was recorded",
    "job.retry": "job is being re-run after it raised or its worker crashed",
    "job.cached": "job satisfied from the on-disk result store",
    "run.cache_hit": "in-process memo hit (repro.harness.runner)",
    "pool.spawn": "warm worker pool spawned a worker process",
    "pool.dispatch": "pool dispatched a job to a warm worker",
    "pool.respawn": "pool replaced a dead worker or one whose pipe broke",
    "pool.kill": "pool stopped a worker (lost, or at shutdown)",
    "pool.stop": "worker pool shut down",
    "cache.gc": "result-store garbage collection pass finished",
    # Fault injection / recomposition (repro.resil)
    "fault.inject": "a scheduled fault fired",
    "recompose.start": "recomposition around a failed core began",
    "recompose.done": "recomposition finished; substrate remapped",
    # Sampled simulation (repro.sample)
    "sample.window": "one detailed sampling window completed",
    "sample.ff": "one functional fast-forward segment executed",
    "sample.ff_replayed": "fast-forward segment satisfied by trace replay",
    "trace.record": "fast-forward trace recorded for reuse",
    "trace.replay": "fast-forward trace replayed into warm state",
    "trace.mismatch": "recorded trace failed validation; re-executed",
    "trace.write_failed": "recorded trace could not be persisted; kept in memory",
    # Composition search (repro.search)
    "search.start": "composition search started",
    "search.rung": "successive-halving rung completed",
    "search.best": "search selected the per-app BEST composition",
    # Metrics flush (repro.obs)
    "metrics.snapshot": "end-of-run dump of every metric series",
}

#: ProcStats scalar counters flushed as ``tflex.<field>`` on proc.halt.
#: Mirrors ``repro.tflex.stats.ProcStats._SCALAR_FIELDS`` — the runtime
#: drift test fails if the two sets diverge.
TFLEX_SCALARS: tuple[str, ...] = (
    "cycles",
    "blocks_committed",
    "insts_committed",
    "insts_fetched",
    "loads_executed",
    "stores_committed",
    "blocks_fetched",
    "blocks_squashed",
    "mispredictions",
    "violations",
    "replays",
    "nacks",
    "predictions",
    "predictions_correct",
    "inflight_integral",
)

#: Metric series names -> one-line description.
METRICS: dict[str, str] = {
    # Simulator scalars (per-proc counters, flushed on halt)
    **{f"tflex.{name}": f"ProcStats.{name} flushed on proc.halt"
       for name in TFLEX_SCALARS},
    "tflex.fetch_latency_blocks": "blocks in the fetch-latency breakdown",
    "tflex.commit_latency_blocks": "blocks in the commit-latency breakdown",
    "tflex.fetch_latency_cycles": "fetch-latency cycles by component",
    "tflex.commit_latency_cycles": "commit-latency cycles by component",
    "tflex.energy_events": "energy-model event counts by class",
    # Mesh networks (gauges per net label)
    "noc.messages": "messages injected into the mesh",
    "noc.hops": "total hop count across delivered messages",
    "noc.total_latency": "sum of per-message delivery latencies",
    "noc.contention_cycles": "cycles lost to link contention",
    "noc.local_deliveries": "messages delivered without entering the mesh",
    # Exec engine
    "exec.jobs": "jobs completed by the executor",
    "exec.retries": "jobs re-run after they raised or their worker crashed",
    "exec.crashes": "worker crashes observed",
    "exec.store_errors": "result-store writes that failed (job kept ok)",
    "exec.job_seconds": "histogram of per-job service seconds",
    "exec.pool_reuse": "jobs served by an already-warm worker",
    "exec.worker_respawns": "warm workers replaced",
    "exec.worker_idle_seconds": "histogram of seconds a pool worker waited for each job",
    "exec.gc_scanned": "result-store entries scanned by GC",
    "exec.gc_removed": "result-store entries deleted by GC",
    "exec.gc_bytes_freed": "bytes reclaimed by result-store GC",
    "run.cache_hits": "in-process memo hits",
    # Fault injection / recovery
    "resil.faults_injected": "faults fired by the schedule",
    "resil.recoveries": "successful recompositions",
    "resil.recovery_cycles": "cycles spent recovering",
    "resil.blocks_lost": "committed-block progress discarded on faults",
    # Sampled simulation
    "sample.windows": "detailed windows simulated",
    "sample.window_blocks": "blocks committed inside detailed windows",
    "sample.ff": "fast-forward segments executed functionally",
    "sample.ff_blocks": "blocks skipped via functional fast-forward",
    "sample.ff_replayed": "fast-forward segments satisfied from traces",
    "sample.ff_replayed_blocks": "blocks skipped via trace replay",
    "sample.warm_pred_skipped_blocks": "predictor warm-up blocks skipped at a loop fixed point",
    "sample.warm_icache_skipped_blocks": "I-cache warm-up blocks skipped at a loop fixed point",
    "sample.warm_tail_skipped_blocks": "fast-forward blocks left unwarmed because no window follows them",
    "sample.trace_records": "fast-forward traces recorded",
    "sample.trace_replays": "fast-forward traces replayed",
    "sample.trace_mismatches": "recorded traces that failed validation",
    "sample.trace_write_failures": "recorded traces the store could not persist",
    # Composition search
    "search.evals": "candidate evaluations (all rungs)",
    "search.eliminations": "candidates dropped by successive halving",
    "search.detailed_jobs": "full-detail confirmation jobs",
}

#: PhaseProfiler phase names (wall-clock attribution buckets).
PHASES: tuple[str, ...] = (
    "fetch",
    "issue",
    "execute",
    "commit",
    "noc",
    "lsq",
    "recovery",
    "sample.ff",
    "sample.ff_replay",
)

EVENT_NAMES: frozenset = frozenset(EVENTS)
METRIC_NAMES: frozenset = frozenset(METRICS)

__all__ = [
    "EVENTS",
    "EVENT_NAMES",
    "METRICS",
    "METRIC_NAMES",
    "PHASES",
    "TFLEX_SCALARS",
]
