"""Sampled-engine semantics: exact fallback, spec plumbing, config
validation, runner routing, and observability hooks."""

import json

import pytest

import repro.obs as obs
from repro.exec.spec import SCHEMA_VERSION, JobSpec, spec_hash
from repro.harness.runner import RunResult, simulate_spec
from repro.obs import RingBufferSink
from repro.sample import SamplingConfig
from repro.sample.engine import SampledRun, run_sampled


SAMPLING = {"ff_blocks": 16, "window_blocks": 32, "warmup_blocks": 8}


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


class TestExactFallback:
    def test_short_program_is_bit_identical(self):
        """A program shorter than one window never fast-forwards, so
        the sampled result must equal the full-detail run bit for bit
        (cycles, every stats counter, power, DRAM traffic)."""
        full = simulate_spec(JobSpec.edge("a2time", 8, scale=1))
        sampled = run_sampled(JobSpec.edge(
            "a2time", 8, scale=1,
            sampling={"ff_blocks": 16, "window_blocks": 256,
                      "warmup_blocks": 8}))
        assert sampled.sampling["exact"]
        assert sampled.sampling["windows"] == 1

        want = full.to_dict()
        got = sampled.to_dict()
        assert got.pop("sampling")["ipc_rel_stddev"] == 0.0
        got["label"] = want["label"]     # only "+sampled" differs
        assert got == want


class TestSpecPlumbing:
    def test_sampling_changes_spec_hash(self):
        base = JobSpec.edge("conv", 8, scale=2)
        sampled = JobSpec.edge("conv", 8, scale=2, sampling=SAMPLING)
        other = JobSpec.edge("conv", 8, scale=2,
                             sampling=dict(SAMPLING, ff_blocks=17))
        hashes = {spec_hash(s) for s in (base, sampled, other)}
        assert len(hashes) == 3

    def test_sampled_label_suffix(self):
        assert JobSpec.edge("conv", 8).label() == "tflex-8"
        assert JobSpec.edge(
            "conv", 8, sampling=SAMPLING).label() == "tflex-8+sampled"

    def test_spec_dict_roundtrip_preserves_sampling(self):
        spec = JobSpec.edge("conv", 8, scale=2, sampling=SAMPLING)
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.sampling_dict() == SAMPLING

    def test_schema_version_covers_sampling(self):
        # Sampling support bumped the exec-store schema: cached results
        # from pre-sampling builds must not be replayed.
        assert SCHEMA_VERSION >= 2


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        SamplingConfig().validate()

    @pytest.mark.parametrize("bad", [
        {"ff_blocks": 0},
        {"window_blocks": 0},
        {"warmup_blocks": -1},
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            SamplingConfig.from_dict(dict(SAMPLING, **bad))

    def test_from_dict_empty_means_full_detail(self):
        assert SamplingConfig.from_dict(None) is None
        assert SamplingConfig.from_dict({}) is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling parameter"):
            SamplingConfig.from_dict({"window": 40})


class TestRouting:
    def test_trips_spec_rejected_by_engine(self):
        # No sampled TRIPS spec reaches the engine: JobSpec refuses one.
        with pytest.raises(ValueError, match="full detail"):
            JobSpec(kind="edge", bench="conv", ncores=0, trips=True,
                    sampling=tuple(sorted(SAMPLING.items())))

    def test_runner_falls_back_to_detail_for_trips(self):
        spec = JobSpec.edge("conv", trips=True, scale=1, sampling=SAMPLING)
        assert spec == JobSpec.edge("conv", trips=True, scale=1)
        result = simulate_spec(spec)
        assert result.sampling is None          # ran full detail

    def test_risc_spec_rejected(self):
        spec = JobSpec.risc("conv")
        with pytest.raises(ValueError):
            SampledRun(spec)


class TestSampledResult:
    def test_extrapolated_run_reports_coverage(self):
        result = simulate_spec(JobSpec.edge(
            "conv", 8, scale=2, sampling=SAMPLING))
        info = result.sampling
        assert info is not None and not info["exact"]
        assert info["windows"] >= info["measured_windows"] >= 1
        assert 0 < info["window_insts"] < info["total_insts"]
        assert info["total_insts"] == result.insts_committed
        assert info["ipc_estimate"] == pytest.approx(
            result.insts_committed / result.cycles)

    def test_result_dict_roundtrip_with_sampling(self):
        result = simulate_spec(JobSpec.edge(
            "conv", 8, scale=2, sampling=SAMPLING))
        rebuilt = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.sampling == result.sampling

    def test_unsampled_result_has_no_sampling_section(self):
        # Golden-suite payload compatibility: full-detail results must
        # serialize exactly as they did before sampling existed.
        result = simulate_spec(JobSpec.edge("a2time", 8, scale=1))
        assert result.sampling is None
        assert "sampling" not in result.to_dict()

    def test_verification_still_runs_on_sampled_memory(self):
        # The sampled run executes every block architecturally, so the
        # workload's end-state check stays enabled; a run that reaches
        # result() has passed it.
        result = run_sampled(JobSpec.edge(
            "gzip", 8, scale=1, sampling=SAMPLING, verify=True))
        assert result.insts_committed > 0


def test_swap_checks_every_pair_before_moving_any():
    """The window hand-off pairs the shadow's RAS, predictor, I-, D- and
    L2 banks with a window system's, in that order; a last D-cache pair
    of another geometry must be refused with every part still where it
    was (regression: the earlier parts had already been exchanged)."""
    from repro.mem.cache import CacheBank
    from repro.sample.shadow import ShadowUarch
    from repro.tflex import TFlexSystem
    from repro.tflex.placement import rectangle

    run = SampledRun(JobSpec.edge("conv", 4, scale=2, sampling=SAMPLING))
    run.step()                              # a window, then a warmed interval
    system = TFlexSystem(run.cfg)
    proc = system.compose(rectangle(run.cfg, run.ncores), run.program)
    core = system.cores[proc.dbank_core(run.shadow.num_dbanks - 1)]
    core.dcache = CacheBank(2 * run.cfg.core.dcache_bytes,
                            run.cfg.core.dcache_assoc, run.cfg.line_size)
    parts = [proc.ras, *(c.predictor for c in system.cores),
             *(c.icache for c in system.cores),
             *(c.dcache for c in system.cores), *system.l2.banks]
    before = ([part.state_dict() for part in parts],
              run.shadow.state_dict())
    cold = ShadowUarch(run.cfg, run.ncores).state_dict()
    assert all(before[1][part] != cold[part]
               for part in ("pred", "icache", "dcache", "l2"))
    with pytest.raises(ValueError, match="geometr"):
        run._swap_state(system, proc)
    assert ([part.state_dict() for part in parts],
            run.shadow.state_dict()) == before


class TestObservability:
    def test_window_and_ff_events_and_metrics(self):
        bundle = obs.configure(metrics=True)
        sink = RingBufferSink()
        bundle.bus.attach(sink)
        run = SampledRun(JobSpec.edge("conv", 8, scale=2, sampling=SAMPLING))
        run.run()

        windows = sink.of_kind("sample.window")
        ffs = sink.of_kind("sample.ff")
        assert len(windows) == len(run.windows)
        assert windows[0]["bench"] == "conv"
        assert ffs and ffs[-1]["finished"] in (True, False)

        counters = bundle.metrics.snapshot()["counters"]
        for name in ("sample.windows", "sample.window_blocks",
                     "sample.ff_blocks"):
            assert any(key.startswith(name) for key in counters), name

    def test_ff_profiler_phase_recorded(self):
        bundle = obs.configure(metrics=True, profile=True)
        run = SampledRun(JobSpec.edge("conv", 8, scale=2, sampling=SAMPLING))
        run.run()
        assert bundle.profiler.seconds("sample.ff") > 0
