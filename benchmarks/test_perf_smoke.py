"""Performance smoke tests: catch wall-clock regressions in the
simulator hot path.

The timed jobs:

* the figure-6 driver over the golden benchmark subset at scale=1 (the
  same sweep the golden-result suite replays bit-identically),
* a micro benchmark of the bare event-queue step loop,
* the functional interpreter loop (the sampled-simulation
  fast-forward path) over a golden program, and
* the shared fast-forward trace store against per-job fast-forward
  interpretation over a sampled composition sweep.

Each measurement is **appended** to ``BENCH_sim.json`` at the repo root
as part of this session's run record (machine id, git sha, python
version, timings — see :mod:`repro.harness.benchrecord`), so the file
accumulates a trajectory across runs; CI uploads it as an artifact.
Times are compared against the committed baseline in
``benchmarks/BENCH_baseline.json``.  Because absolute wall-clock
differs across machines, the comparison is **calibrated**: a fixed
pure-Python spin loop is timed alongside, and the baseline is scaled by
the observed machine-speed ratio before applying the regression gate
(>25% slower than the scaled baseline fails).
"""

from __future__ import annotations

import json
import pathlib
import time

import repro.harness.runner as runner_mod
from repro.exec import ResultStore
from repro.exec.spec import JobSpec
from repro.exec.worker import execute_spec
from repro.harness import (
    clear_cache,
    configure_cache,
    fig6_performance,
)
from repro.harness.benchrecord import record_job
from repro.harness.golden import GOLDEN_BENCHMARKS, GOLDEN_SCALE
from repro.isa.interp import Interpreter
from repro.sample.trace import configure_ff_trace, reset_ff_trace
from repro.tflex.events import EventQueue
from repro.workloads import BENCHMARKS


ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_baseline.json"
OUTPUT_PATH = ROOT / "BENCH_sim.json"

#: Regression gate: fail when a job runs >25% slower than the
#: machine-scaled baseline.
REGRESSION_FACTOR = 1.25
#: Clamp on the calibration ratio, so a pathological calibration sample
#: cannot silently disable (or absurdly tighten) the gate.
CALIBRATION_CLAMP = (0.25, 4.0)
STEP_LOOP_EVENTS = 200_000


def calibrate() -> float:
    """Wall time of a fixed pure-Python spin loop (machine-speed probe)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x ^= i
    return time.perf_counter() - t0


def step_loop(n: int = STEP_LOOP_EVENTS) -> int:
    """Drive the bare event-queue kernel through ``n`` chained events."""
    queue = EventQueue()
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            queue.after(1, tick)

    queue.after(1, tick)
    queue.run(max_cycles=n + 10)
    return queue.events_processed


def fig6_subset_cold() -> object:
    """The golden-subset figure-6 sweep with every cache cold.

    The session-wide in-process cache is stashed and restored so this
    measurement is cold without slowing the other benchmark harnesses.
    """
    saved = dict(runner_mod._CACHE)
    runner_mod._CACHE.clear()
    configure_cache(enabled=False)
    try:
        return fig6_performance(scale=GOLDEN_SCALE,
                                benchmarks=list(GOLDEN_BENCHMARKS))
    finally:
        runner_mod._CACHE.clear()
        runner_mod._CACHE.update(saved)


def interp_loop(iterations: int = 10) -> int:
    """Functionally execute a golden program ``iterations`` times.

    This is the sampled-simulation fast-forward path: prepared blocks
    are compiled once per interpreter and reused across executions."""
    program, __, __k = BENCHMARKS["ammp"].edge_program(1)
    blocks = 0
    for _ in range(iterations):
        interp = Interpreter(program)
        result = interp.run()
        assert not result.truncated
        blocks += result.blocks_executed
    return blocks


def _record(job: str, seconds: float, calibration: float) -> None:
    record_job(OUTPUT_PATH, ROOT, job, seconds, calibration)


def _check_regression(job: str, seconds: float, calibration: float) -> None:
    baseline = json.loads(BASELINE_PATH.read_text())
    if job not in baseline:
        # New job with no committed baseline yet: record only.
        return
    ratio = calibration / baseline["calibration"]
    lo, hi = CALIBRATION_CLAMP
    ratio = min(max(ratio, lo), hi)
    allowed = baseline[job] * ratio * REGRESSION_FACTOR
    assert seconds <= allowed, (
        f"{job}: {seconds:.3f}s exceeds scaled baseline "
        f"{allowed:.3f}s (committed {baseline[job]:.3f}s, "
        f"machine ratio {ratio:.2f}, gate x{REGRESSION_FACTOR})")


def test_fig6_driver_smoke(benchmark):
    calibration = calibrate()
    result = benchmark.pedantic(fig6_subset_cold, rounds=1, iterations=1)
    assert result.mean_best_speedup() > 1.0
    seconds = benchmark.stats.stats.min
    _record("fig6_subset", seconds, calibration)
    _check_regression("fig6_subset", seconds, calibration)


def test_step_loop_smoke(benchmark):
    calibration = calibrate()
    processed = benchmark.pedantic(step_loop, rounds=3, iterations=1)
    assert processed == STEP_LOOP_EVENTS
    seconds = benchmark.stats.stats.min
    _record("step_loop", seconds, calibration)
    _check_regression("step_loop", seconds, calibration)


#: Per-benchmark data scales sized so every golden benchmark commits
#: roughly 25k blocks (ammp grows quadratically with scale, the others
#: linearly), keeping the sampled sweep's fast-forward region — the
#: work the shared trace amortises — comparable across benchmarks.
SHARED_FF_SCALES = {"a2time": 2048, "ammp": 24, "bzip2": 256,
                    "conv": 192, "dither": 1024, "equake": 384,
                    "gzip": 320}
#: Fast-forward schedule: interval length chosen so each run takes two
#: detailed windows (ammp's larger block count gets a longer interval).
SHARED_FF_BLOCKS = {"ammp": 40_000}
SHARED_FF_DEFAULT_BLOCKS = 16_000
#: Acceptance floor for record-once/replay-many vs per-job
#: fast-forward.  Measured: ~2.6-2.7x on the development machine; the
#: gate is set well below so shared-CI load jitter cannot flake it,
#: while the recorded fig6_shared_ff/fig6_perjob_ff trajectory in
#: BENCH_sim.json carries the real ratio.
SHARED_FF_FLOOR = 1.8


def _shared_ff_specs() -> list:
    """7 compositions x golden subset, sampled: the fig6 core sweep
    (1..32 cores) plus the ideal-handshake ablation arm — every spec of
    one benchmark shares (program, scale, schedule), so one recorded
    trace serves all seven."""
    specs = []
    for name in GOLDEN_BENCHMARKS:
        scale = SHARED_FF_SCALES[name]
        sampling = {
            "ff_blocks": SHARED_FF_BLOCKS.get(name, SHARED_FF_DEFAULT_BLOCKS),
            "window_blocks": 12, "warmup_blocks": 4,
        }
        for n in (1, 2, 4, 8, 16, 32):
            specs.append(JobSpec.edge(name, ncores=n, scale=scale,
                                      sampling=sampling))
        specs.append(JobSpec.edge(name, ncores=32, scale=scale,
                                  ideal_handshake=True, sampling=sampling))
    return specs


def _run_ff_arm(store_root: pathlib.Path, trace_dir) -> tuple:
    """Run the sampled sweep serially in-process with the fast-forward
    trace store pointed at ``trace_dir`` (or disabled when ``None``).

    Serial execution on one worker is the honest-work comparison: the
    per-job arm interprets the fast-forward region for every
    composition, the shared arm records it once per benchmark and
    replays it for the other six.  Each arm starts from a cold program
    cache and a cold store.
    """
    clear_cache()
    configure_cache(enabled=False)
    if trace_dir is None:
        configure_ff_trace(enabled=False)
    else:
        configure_ff_trace(enabled=True, cache_dir=trace_dir)
    store = ResultStore(store_root)
    specs = _shared_ff_specs()
    t0 = time.perf_counter()
    for spec in specs:
        store.store(spec, execute_spec(spec))
    return time.perf_counter() - t0, store, specs


def test_shared_ff_vs_perjob(tmp_path):
    """Acceptance: recording each benchmark's fast-forward trace once
    and replaying it across the other six compositions beats per-job
    fast-forward interpretation by >=1.8x aggregate wall clock, with
    byte-identical result-store records."""
    calibration = calibrate()
    try:
        perjob_s, perjob_store, specs = _run_ff_arm(
            tmp_path / "perjob", None)
        shared_s, shared_store, __ = _run_ff_arm(
            tmp_path / "shared", tmp_path / "traces")
    finally:
        reset_ff_trace()
        clear_cache()
        configure_cache(enabled=False)

    for spec in specs:
        a = shared_store.path_for(shared_store.key(spec)).read_bytes()
        b = perjob_store.path_for(perjob_store.key(spec)).read_bytes()
        assert a == b, f"records diverge for {spec.label()}"

    _record("fig6_shared_ff", shared_s, calibration)
    _record("fig6_perjob_ff", perjob_s, calibration)
    _check_regression("fig6_shared_ff", shared_s, calibration)
    assert perjob_s >= SHARED_FF_FLOOR * shared_s, (
        f"shared fast-forward not fast enough: shared {shared_s:.2f}s vs "
        f"per-job {perjob_s:.2f}s ({perjob_s / shared_s:.2f}x, "
        f"need >={SHARED_FF_FLOOR}x)")


def test_interp_loop_smoke(benchmark):
    calibration = calibrate()
    blocks = benchmark.pedantic(interp_loop, rounds=3, iterations=1)
    assert blocks > 0
    seconds = benchmark.stats.stats.min
    _record("interp_loop", seconds, calibration)
    _check_regression("interp_loop", seconds, calibration)
