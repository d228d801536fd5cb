"""Observability wired through the simulator, exec engine, and CLI.

The acceptance check lives here: ``repro fig9 --trace-out`` must emit
schema-valid JSONL whose final ``metrics.snapshot`` cross-checks against
the :class:`ProcStats` figure-9 breakdowns of the very same runs.
"""

import json
from collections import Counter

import repro.obs
from repro.exec import JobSpec, ParallelExecutor, ResultStore
from repro.obs import Observability, RingBufferSink
from repro.tflex import TFlexSystem, rectangle, tflex_config
from repro.workloads import BENCHMARKS

BENCH = "tblook"     # smallest/fastest benchmark in the suite


def _run_bench(name=BENCH, ncores=2, obs=None):
    program, __, __k = BENCHMARKS[name].edge_program(1)
    cfg = tflex_config(ncores)
    system = TFlexSystem(cfg, obs=obs)
    proc = system.compose(rectangle(cfg, ncores), program)
    system.run()
    return proc


class TestSimulatorEvents:
    def test_block_events_match_stats(self):
        obs = Observability()
        ring = obs.bus.attach(RingBufferSink())
        proc = _run_bench(ncores=4, obs=obs)
        commits = ring.of_kind("block.commit")
        assert len(commits) == proc.stats.blocks_committed
        assert all(e["proc"] == proc.name for e in commits)
        assert len(ring.of_kind("block.fetch")) == proc.stats.blocks_fetched
        halts = ring.of_kind("proc.halt")
        assert [h["cycles"] for h in halts] == [proc.stats.cycles]
        assert ring.of_kind("sim.done")
        for e in commits:
            assert (e["fetch_start"] <= e["fetch_cmd"] <= e["complete"]
                    <= e["commit_start"] <= e["committed"])

    def test_squash_events_account_for_every_squashed_block(self):
        obs = Observability()
        ring = obs.bus.attach(RingBufferSink(kinds=("block.squash",)))
        proc = _run_bench("rspeed", ncores=8, obs=obs)
        assert proc.stats.blocks_squashed > 0
        assert sum(e["count"] for e in ring.events) == proc.stats.blocks_squashed

    def test_mispredict_events(self):
        obs = Observability()
        ring = obs.bus.attach(RingBufferSink(kinds=("block.mispredict",)))
        proc = _run_bench("rspeed", ncores=8, obs=obs)
        assert len(ring) == proc.stats.mispredictions
        for e in ring.events:
            assert e["predicted"] != e["actual"]

    def test_halt_flushes_procstats_to_metrics(self):
        obs = Observability(metrics_enabled=True)
        proc = _run_bench(ncores=2, obs=obs)
        m = obs.metrics
        name = proc.name
        assert m.counter("tflex.blocks_committed",
                         proc=name) == proc.stats.blocks_committed
        assert m.counter("tflex.cycles", proc=name) == proc.stats.cycles
        for comp, cycles in proc.stats.fetch_latency.components.items():
            assert m.counter("tflex.fetch_latency_cycles", component=comp,
                             proc=name) == cycles
        for comp, cycles in proc.stats.commit_latency.components.items():
            assert m.counter("tflex.commit_latency_cycles", component=comp,
                             proc=name) == cycles
        # Network totals land as gauges at the end of the run.
        opn = proc.system.opn.stats
        gauges = m.snapshot()["gauges"]
        assert gauges["noc.messages{net=opn}"] == opn.messages
        assert gauges["noc.contention_cycles{net=opn}"] == (
            opn.contention_cycles)

    def test_global_bundle_is_picked_up_by_default(self):
        ring = repro.obs.current().bus.attach(
            RingBufferSink(kinds=("block.commit",)))
        proc = _run_bench(ncores=2)     # no explicit obs handed over
        assert len(ring) == proc.stats.blocks_committed

    def test_inactive_obs_emits_nothing_and_records_nothing(self):
        obs = Observability()
        proc = _run_bench(ncores=2, obs=obs)
        assert proc.stats.blocks_committed > 0
        assert obs.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert obs.profiler.snapshot() == {}


class TestBlockTraceViaBus:
    def test_block_trace_works_with_global_obs_inactive(self):
        program, __, __k = BENCHMARKS[BENCH].edge_program(1)
        cfg = tflex_config(2)
        system = TFlexSystem(cfg)
        proc = system.compose(rectangle(cfg, 2), program)
        proc.enable_block_trace()
        system.run()
        assert len(proc.block_trace) == proc.stats.blocks_committed
        gseqs = [t.gseq for t in proc.block_trace]
        assert gseqs == sorted(gseqs)

    def test_private_trace_also_reaches_global_sinks(self):
        ring = repro.obs.current().bus.attach(
            RingBufferSink(kinds=("block.commit",)))
        program, __, __k = BENCHMARKS[BENCH].edge_program(1)
        cfg = tflex_config(2)
        system = TFlexSystem(cfg)
        proc = system.compose(rectangle(cfg, 2), program)
        proc.enable_block_trace()
        system.run()
        assert [t.gseq for t in proc.block_trace] == \
               [e["gseq"] for e in ring.events]


class TestProfiler:
    def test_phases_cover_the_pipeline(self):
        obs = Observability()
        obs.profiler.enabled = True
        _run_bench("rspeed", ncores=8, obs=obs)
        phases = set(obs.profiler.snapshot())
        assert {"fetch", "issue", "execute", "commit", "noc", "lsq"} <= phases
        assert obs.profiler.total_seconds > 0.0


def _payload_worker(spec):
    return {"bench": spec.bench, "scale": spec.scale}


def _failing_worker(spec):
    raise RuntimeError("boom")


class TestExecutorEvents:
    def _specs(self, n=2):
        return [JobSpec.edge(BENCH, ncores=1, scale=s, verify=False)
                for s in range(1, n + 1)]

    def test_job_lifecycle_events_and_metrics(self):
        obs = Observability(metrics_enabled=True)
        ring = obs.bus.attach(RingBufferSink())
        ex = ParallelExecutor(jobs=1, worker=_payload_worker, obs=obs)
        results = ex.run(self._specs())
        assert all(r.status == "ok" for r in results)
        kinds = [e["kind"] for e in ring.events]
        assert kinds.count("job.start") == 2
        assert kinds.count("job.done") == 2
        assert obs.metrics.counter("exec.jobs", status="ok") == 2
        assert obs.metrics.snapshot()["histograms"][
            "exec.job_seconds"]["count"] == 2

    def test_cached_jobs_emit_cached_events(self, tmp_path):
        """A store hit is the harness's, read before the executor: it
        emits ``run.cache_hit`` with ``source=store``, and only the cold
        job produces executor events."""
        from repro.harness import runner

        specs = self._specs()
        runner.clear_cache()
        store = runner.configure_cache(tmp_path)
        try:
            runner.run_all(specs[:1])
            runner.clear_cache()
            obs = repro.obs.configure(metrics=True)
            ring = obs.bus.attach(RingBufferSink())
            runner.run_all(specs)
            hits = ring.of_kind("run.cache_hit")
            assert [(e["label"], e["source"]) for e in hits] == [
                (specs[0].label(), "store")]
            assert obs.metrics.counter("run.cache_hits", source="store") == 1
            assert len(ring.of_kind("job.start")) == 1
            assert obs.metrics.counter("exec.jobs", status="ok") == 1
            assert store.hits == 1
        finally:
            repro.obs.reset()
            runner.clear_cache()
            runner.configure_cache(enabled=False)

    def test_failed_job_reports_attempts(self):
        obs = Observability(metrics_enabled=True)
        ring = obs.bus.attach(RingBufferSink())
        ex = ParallelExecutor(jobs=1, worker=_failing_worker, obs=obs)
        results = ex.run(self._specs(1))
        assert results[0].status == "failed"
        done = ring.of_kind("job.done")
        assert done[0]["status"] == "failed"
        assert done[0]["attempts"] == 2
        assert "boom" in done[0]["error"]
        assert obs.metrics.counter("exec.jobs", status="failed") == 1


class TestCli:
    def test_profile_command_prints_table_and_resets(self, capsys):
        from repro.cli import main

        assert main(["profile", BENCH, "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "TOTAL" in out
        assert "cycles simulated" in out
        assert not repro.obs.current().active

    def test_fig9_trace_out_cross_checks_procstats(self, tmp_path, capsys):
        """The acceptance check: fig9 --trace-out emits schema-valid
        JSONL ending in a metrics snapshot whose figure-9 breakdown
        counters equal the ProcStats totals of the same runs."""
        from repro.cli import main
        from repro.harness import run_all
        from repro.harness import runner
        from repro.harness.experiments import CORE_COUNTS

        trace = tmp_path / "trace.jsonl"
        old_store = runner._STORE
        runner.clear_cache()
        try:
            rc = main(["fig9", "--bench", BENCH, "--no-cache",
                       "--trace-out", str(trace), "--metrics"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "Figure 9a" in out
            assert "tflex.blocks_committed" in out    # --metrics report

            lines = trace.read_text().splitlines()
            assert lines
            events = [json.loads(line) for line in lines]
            for event in events:
                assert isinstance(event, dict)
                assert isinstance(event.get("kind"), str)
            snapshot = events[-1]
            assert snapshot["kind"] == "metrics.snapshot"
            counters = snapshot["metrics"]["counters"]

            # Re-read the very same points (in-process cache: no resim)
            # and sum their ProcStats breakdowns independently.
            runs = run_all(
                [JobSpec.edge(BENCH, ncores=n) for n in CORE_COUNTS]
                + [JobSpec.edge(BENCH, ncores=max(CORE_COUNTS),
                                ideal_handshake=True)])
            fetch_totals: Counter = Counter()
            commit_totals: Counter = Counter()
            blocks = 0
            for run in runs:
                fetch_totals.update(run.stats.fetch_latency.components)
                commit_totals.update(run.stats.commit_latency.components)
                blocks += run.stats.blocks_committed

            def series(name, comp):
                return counters[f"{name}{{component={comp},proc={BENCH}}}"]

            for comp, cycles in fetch_totals.items():
                assert series("tflex.fetch_latency_cycles", comp) == cycles
            for comp, cycles in commit_totals.items():
                assert series("tflex.commit_latency_cycles", comp) == cycles
            assert counters[f"tflex.blocks_committed{{proc={BENCH}}}"] == blocks
            # ... and every committed block produced one trace event.
            commits = [e for e in events if e["kind"] == "block.commit"]
            assert len(commits) == blocks
            # The CLI restored the inactive default bundle on the way out.
            assert not repro.obs.current().active
        finally:
            runner._STORE = old_store
            runner.clear_cache()
