"""Honest-work accounting for shared fast-forward traces.

A search rung (and every figure sweep) evaluates N compositions of each
benchmark under one sampling schedule.  With the trace store on, the
fan-out must interpret each (benchmark, schedule) fast-forward
trajectory exactly once — the recorder — and replay it N-1 times.  The
``sample.ff`` / ``sample.ff_replayed`` metrics are the ledger; this
suite asserts it balances.
"""

import collections

import pytest

import repro.obs as obs_lib
from repro.exec.spec import JobSpec
from repro.harness import clear_cache, configure_cache
from repro.harness.runner import prewarm_specs, run_spec
from repro.obs import RingBufferSink
from repro.sample.trace import (
    configure_ff_trace,
    prewarm_partition,
    reset_ff_trace,
    schedule_tag,
    trace_root,
)


RUNG = {"ff_blocks": 160, "window_blocks": 24, "warmup_blocks": 8}
BENCHES = ("conv", "gzip")
NCORES = (2, 4, 8)


@pytest.fixture(autouse=True)
def _isolated(tmp_path):
    clear_cache()
    configure_cache(enabled=False)
    reset_ff_trace()
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces")
    yield
    reset_ff_trace()
    clear_cache()
    configure_cache(enabled=False)
    obs_lib.reset()


def _rung_specs(sampling, benches=BENCHES, ncores=NCORES):
    # Composition-major order, the shape a halving rung produces: the
    # group members are interleaved, not adjacent.
    return [JobSpec.edge(bench, n, scale=2, sampling=sampling)
            for n in ncores for bench in benches]


def test_rung_interprets_each_group_exactly_once():
    """The acceptance ledger: per (benchmark, schedule) group, one
    ``sample.ff`` interpretation pass and N-1 replay passes."""
    obs = obs_lib.configure(metrics=True)
    ring = obs.bus.attach(RingBufferSink(
        kinds=("trace.record", "trace.replay", "trace.mismatch",
               "sample.ff", "sample.ff_replayed")))

    specs = _rung_specs(RUNG)
    recorders, rest = prewarm_partition(specs)
    assert sorted(s.bench for s in recorders) == sorted(BENCHES)
    assert len(rest) == len(specs) - len(BENCHES)
    for spec in recorders + rest:        # the executor's serial order
        run_spec(spec)

    tag = schedule_tag(RUNG)
    records = {e["bench"]: e for e in ring.of_kind("trace.record")}
    lives = collections.Counter(e["bench"] for e in ring.of_kind("sample.ff"))
    replayed = collections.Counter(
        e["bench"] for e in ring.of_kind("sample.ff_replayed"))

    assert not ring.of_kind("trace.mismatch")
    assert sorted(records) == sorted(BENCHES)
    for bench in BENCHES:
        intervals = records[bench]["intervals"]
        assert intervals >= 1
        # One interpretation pass...
        assert obs.metrics.counter("sample.trace_records",
                                   bench=bench, schedule=tag) == 1
        assert lives[bench] == intervals
        # ...and N-1 replay passes covering every interval.
        assert obs.metrics.counter("sample.trace_replays",
                                   bench=bench, schedule=tag) \
            == len(NCORES) - 1
        assert replayed[bench] == (len(NCORES) - 1) * intervals
        assert obs.metrics.counter("sample.trace_mismatches",
                                   bench=bench) == 0


def test_new_rung_schedule_records_again():
    """A finer rung is a different trajectory: its group records once
    even though the coarser rung's trace is already on disk."""
    obs = obs_lib.configure(metrics=True)
    coarse = _rung_specs(RUNG, benches=("conv",), ncores=(2, 4))
    recorders, rest = prewarm_partition(coarse)
    for spec in recorders + rest:
        run_spec(spec)

    fine = dict(RUNG, ff_blocks=96)
    specs = _rung_specs(fine, benches=("conv",), ncores=(2, 4))
    recorders, rest = prewarm_partition(specs)
    assert [s.sampling_dict()["ff_blocks"] for s in recorders] == [96]
    for spec in recorders + rest:
        run_spec(spec)

    for sampling in (RUNG, fine):
        assert obs.metrics.counter("sample.trace_records", bench="conv",
                                   schedule=schedule_tag(sampling)) == 1
    assert obs.metrics.counter("sample.trace_mismatches", bench="conv") == 0
    assert len(list(trace_root().glob("??/*.json.gz"))) == 2


@pytest.mark.slow
def test_prewarm_specs_fans_out_with_shared_traces(tmp_path, monkeypatch):
    """End to end through the parallel executor: forked worker
    processes inherit ``configure_ff_trace`` with nothing set in the
    environment, recorders run before the fan-out, and exactly one
    trace per group lands on disk."""
    monkeypatch.delenv("REPRO_FF_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FF_TRACE_DIR", raising=False)
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces")

    specs = _rung_specs(RUNG, ncores=(2, 4))
    outcomes = prewarm_specs(specs, jobs=2)
    assert len(outcomes) == len(specs)
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    # Recorders (one per benchmark group) were dispatched first.
    assert sorted(o.spec.bench for o in outcomes[:len(BENCHES)]) \
        == sorted(BENCHES)
    assert (len(list((tmp_path / "traces").glob("??/*.json.gz")))
            == len(BENCHES))
