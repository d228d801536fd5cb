"""Store-backed runner: warm-replay acceptance, parallel determinism,
result serialisation."""

from collections import Counter

import pytest

from repro.exec import spec_hash
from repro.harness import (
    RiscResult,
    RunResult,
    clear_cache,
    configure_cache,
    fig6_performance,
    fig6_specs,
    run_edge_benchmark,
    simulation_count,
)
from repro.power.energy import PowerBreakdown
from repro.tflex.stats import ProcStats


SUBSET = dict(core_counts=(1, 2), benchmarks=["dither"],
              include_trips=False)


@pytest.fixture
def isolated_cache(tmp_path):
    """A fresh in-process cache and a tmp-rooted store; restores the
    session's store-off default afterwards."""
    clear_cache()
    yield tmp_path
    clear_cache()
    configure_cache(enabled=False)


class TestWarmReplay:
    def test_fig6_second_run_is_pure_store_hits(self, isolated_cache):
        """Acceptance: a figure-6 sweep run twice 'in a fresh process'
        (simulated by dropping the in-process cache) re-simulates
        nothing — every point is a disk-store hit."""
        store = configure_cache(isolated_cache / "store")
        fig6_performance(**SUBSET)
        sims_after_cold = simulation_count()
        assert len(list(store.root.glob("??/*.json"))) == 2   # 2 persisted
        assert store.hits == 0

        clear_cache()                               # "fresh process"
        result = fig6_performance(**SUBSET)
        assert simulation_count() == sims_after_cold   # zero re-simulation
        assert store.hits == 2
        assert result.cycles("dither", "tflex-2") > 0

    def test_store_results_equal_simulated_results(self, isolated_cache):
        store = configure_cache(isolated_cache / "store")
        cold = run_edge_benchmark("dither", ncores=2)
        clear_cache()
        warm = run_edge_benchmark("dither", ncores=2)
        assert store.hits == 1
        assert warm is not cold                     # materialised from disk
        assert warm.to_dict() == cold.to_dict()
        assert warm.stats.ipc == cold.stats.ipc
        assert warm.power.total == cold.power.total

    def test_no_cache_mode_skips_store(self, isolated_cache, monkeypatch):
        monkeypatch.chdir(isolated_cache)
        configure_cache(enabled=False)
        run_edge_benchmark("dither", ncores=1)
        assert list(isolated_cache.rglob("*.json")) == []


class TestParallelDeterminism:
    def test_jobs2_byte_identical_to_jobs1(self, isolated_cache):
        """Acceptance: --jobs 2 produces byte-identical stored records
        (and equal in-memory series) to --jobs 1."""
        specs = fig6_specs(**SUBSET)

        parallel_store = configure_cache(isolated_cache / "parallel")
        par = fig6_performance(**SUBSET, jobs=2)

        clear_cache()
        serial_store = configure_cache(isolated_cache / "serial")
        ser = fig6_performance(**SUBSET, jobs=1)

        for spec in specs:
            a = parallel_store.path_for(parallel_store.key(spec))
            b = serial_store.path_for(serial_store.key(spec))
            assert a.read_bytes() == b.read_bytes()
        for label in ("tflex-1", "tflex-2"):
            assert par.cycles("dither", label) == ser.cycles("dither", label)

    def test_parallel_results_keyed_correctly(self, isolated_cache):
        configure_cache(isolated_cache / "store")
        fig6_performance(**SUBSET, jobs=2)
        # The fan-out populated the in-process cache under the same
        # hashes the serial path uses.
        sims = simulation_count()
        run_edge_benchmark("dither", ncores=1)
        run_edge_benchmark("dither", ncores=2)
        assert simulation_count() == sims


class TestJobFailure:
    def test_run_spec_raises_job_failed_after_the_retries(
            self, isolated_cache):
        """A failing point is attempted ``retries + 1`` times by the
        executor and then raised once — no further in-process
        re-simulation behind the executor's back."""
        from repro.exec import JobSpec
        from repro.harness import JobFailed
        from repro.harness.runner import run_spec

        configure_cache(enabled=False)
        bad = JobSpec(kind="bogus", bench="dither", scale=1, ncores=1)
        before = simulation_count()
        with pytest.raises(JobFailed, match="unknown job kind") as caught:
            run_spec(bad)
        assert simulation_count() == before + 2     # default retries=1
        assert caught.value.spec == bad
        assert caught.value.attempts == 2
        assert caught.value.error.startswith("ValueError: unknown job kind")

    def test_batch_failure_keeps_the_successes(self, isolated_cache):
        from repro.exec import JobSpec
        from repro.harness import JobFailed, prewarm_specs

        configure_cache(enabled=False)
        good = JobSpec.edge("dither", ncores=1)
        bad = JobSpec(kind="bogus", bench="dither", scale=1, ncores=1)
        with pytest.raises(JobFailed):
            prewarm_specs([bad, good])
        sims = simulation_count()
        run_edge_benchmark("dither", ncores=1)      # memory hit
        assert simulation_count() == sims


class TestResultSerialisation:
    def _run_result(self, cycles=0):
        return RunResult(
            bench="x", label="tflex-1", num_cores=1, cycles=cycles,
            insts_committed=0, stats=ProcStats(),
            power=PowerBreakdown(watts={}, cycles=cycles, num_cores=1),
            dram_requests=0)

    def test_performance_guards_zero_cycles(self):
        assert self._run_result(cycles=0).performance == 0.0
        assert self._run_result(cycles=4).performance == 0.25

    def test_run_result_round_trip(self):
        stats = ProcStats(cycles=100, insts_committed=250, blocks_fetched=7)
        stats.fetch_latency.record(prediction=3, handoff=1)
        stats.commit_latency.record(state_update=2)
        stats.energy_events = Counter({"alu_op": 42})
        original = RunResult(
            bench="conv", label="tflex-4", num_cores=4, cycles=100,
            insts_committed=250, stats=stats,
            power=PowerBreakdown(watts={"clock": 0.5, "l2": 0.1},
                                 cycles=100, num_cores=4),
            dram_requests=9)
        restored = RunResult.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert restored.stats.fetch_latency.mean("prediction") == 3.0
        assert restored.stats.energy_events["alu_op"] == 42
        assert restored.power.total == pytest.approx(0.6)
        assert restored.performance == original.performance

    def test_risc_result_round_trip(self):
        original = RiscResult(bench="mcf", cycles=10, insts=20,
                              mispredictions=3)
        assert RiscResult.from_dict(original.to_dict()) == original


class TestSpecKeyedCache:
    def test_typed_overrides_cached_separately(self, isolated_cache):
        """The old label-keyed cache collided int 1 with str "1"; the
        spec-keyed cache must not (satellite fix)."""
        from repro.exec import JobSpec

        a = JobSpec.edge("dither", overrides={"x": 1})
        b = JobSpec.edge("dither", overrides={"x": "1"})
        assert a.label() == b.label()
        assert spec_hash(a) != spec_hash(b)

    def test_batch_keyed_by_hash_not_equality(self, isolated_cache):
        """``1`` and ``1.0`` make equal specs but different jobs: one
        batch holding both runs both, each result is its solo run's,
        and a repeated spec runs once."""
        import json

        from repro.exec import JobSpec
        from repro.harness.runner import prewarm_specs, run_all, run_spec

        def text(run):      # 3300 == 3300.0, but not as JSON
            return json.dumps(run.to_dict(), sort_keys=True)

        a = JobSpec.edge("dither", 2, overrides={"hop_latency": 1})
        b = JobSpec.edge("dither", 2, overrides={"hop_latency": 1.0})
        assert a == b and spec_hash(a) != spec_hash(b)
        sims = simulation_count()
        assert len(prewarm_specs([a, b])) == 2
        ra, rb = run_spec(a), run_spec(b)                 # memory hits
        assert simulation_count() == sims + 2
        clear_cache()
        assert text(run_spec(b)) == text(rb)
        assert text(run_spec(a)) == text(ra) != text(rb)

        clear_cache()
        sims = simulation_count()
        runs = run_all([a, a, a])
        assert simulation_count() == sims + 1
        assert runs[0] is runs[1] is runs[2]

    def test_verify_flag_part_of_key(self):
        from repro.exec import JobSpec

        assert spec_hash(JobSpec.edge("conv")) != \
            spec_hash(JobSpec.edge("conv", verify=False))
