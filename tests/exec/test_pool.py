"""WorkerPool: warm reuse, watchdog escalation, transparent respawn.

Worker functions live at module level so they pickle into children.
The nasty ones model the three ways a real worker dies: ignoring
SIGTERM (stuck in C code), breaking the pipe mid-send, and crashing
outright.
"""

import os
import signal
import struct
import time

import pytest

from repro.exec import JobSpec, ParallelExecutor, run_specs
from repro.exec.pool import WorkerPool
from repro.obs import Observability


def _specs(n, bench="conv"):
    return [JobSpec.edge(bench, ncores=2, scale=i + 1) for i in range(n)]


def _ok_worker(spec):
    return {"bench": spec.bench, "scale": spec.scale,
            "value": spec.scale * 10}


def _sigterm_ignoring_worker(spec):
    """The acceptance scenario: a worker wedged with SIGTERM trapped.
    Only SIGKILL (the watchdog's escalation) can take it down."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)
    return _ok_worker(spec)


def _broken_pipe_worker(spec):
    """Corrupt the reply stream mid-frame: write a length header that
    promises 64 bytes, deliver 2, and die.  The parent's recv() must
    classify this as a lost worker, not block forever."""
    from repro.exec.worker import current_connection

    conn = current_connection()
    os.write(conn.fileno(), struct.pack("!i", 64) + b"xx")
    os._exit(0)


def _crash_on_scale_2(spec):
    if spec.scale == 2:
        os._exit(13)
    return _ok_worker(spec)


def _obs():
    return Observability(metrics_enabled=True)


class TestWarmReuse:
    def test_pool_matches_serial(self):
        specs = _specs(6)
        serial = run_specs(specs, jobs=1, worker=_ok_worker)
        pooled = run_specs(specs, jobs=2, worker=_ok_worker)
        assert [r.payload for r in pooled] == [r.payload for r in serial]
        assert [r.spec for r in pooled] == specs

    def test_workers_are_reused_across_jobs(self):
        """6 jobs over 2 warm workers: at least 4 are served by a worker
        that already ran one — the exec.pool_reuse counter proves jobs
        are not paying a process spawn each."""
        obs = _obs()
        results = run_specs(_specs(6), jobs=2, worker=_ok_worker,
                            obs=obs)
        assert all(r.status == "ok" for r in results)
        assert obs.metrics.counter("exec.pool_reuse") >= 4

    def test_pool_size_capped_by_todo(self):
        results = run_specs(_specs(2), jobs=8, worker=_ok_worker)
        assert [r.status for r in results] == ["ok", "ok"]


class TestWatchdog:
    def test_sigterm_ignoring_worker_is_killed_within_grace(self):
        """Regression (acceptance criterion): a worker that traps
        SIGTERM used to wedge the sweep in an unbounded join().  The
        watchdog must escalate to SIGKILL within the grace period and
        mark the job failed."""
        executor = ParallelExecutor(jobs=2, timeout=0.3, retries=0,
                                    worker=_sigterm_ignoring_worker)
        executor.grace = 1.0
        started = time.monotonic()
        (r,) = executor.run(_specs(1))
        elapsed = time.monotonic() - started
        assert r.status == "failed"
        assert "timed out" in r.error
        # timeout + terminate-grace + kill-grace + scheduling slack —
        # nowhere near the worker's 60s sleep.
        assert elapsed < 15

    def test_timeout_error_string_matches_spawn_path(self):
        (r,) = run_specs(_specs(1), jobs=2, timeout=0.2, retries=0,
                         worker=_sigterm_ignoring_worker)
        assert r.error.startswith("worker timed out after 0.2s")


class TestRespawn:
    def test_pipe_broken_mid_send_fails_job_not_sweep(self):
        """A worker that corrupts the reply stream and dies loses its
        own job; the pool respawns the slot and the sweep completes."""
        obs = _obs()
        specs = _specs(1)
        # jobs=2 with one cold spec: a one-slot pool (jobs=1 would run
        # the job in this process).
        results = run_specs(specs, jobs=2, retries=0,
                            worker=_broken_pipe_worker, obs=obs)
        (r,) = results
        assert r.status == "failed"
        assert "worker" in r.error      # pipe broken / crashed (exit 0)
        respawns = sum(
            obs.metrics.counter("exec.worker_respawns", reason=reason)
            for reason in ("pipe", "crash"))
        assert respawns >= 1

    def test_respawn_after_crash_keeps_serving(self):
        """One job crashes its worker; the pool replaces the slot and
        every other job still completes."""
        obs = _obs()
        specs = _specs(4)
        results = run_specs(specs, jobs=2, retries=0,
                            worker=_crash_on_scale_2, obs=obs)
        by_scale = {r.spec.scale: r for r in results}
        assert by_scale[2].status == "failed"
        assert "exit code 13" in by_scale[2].error
        for scale in (1, 3, 4):
            assert by_scale[scale].status == "ok"
        assert obs.metrics.counter("exec.worker_respawns",
                                   reason="crash") >= 1

    def test_crash_is_retried_like_spawn_path(self):
        """The executor's retry policy keys on the pool's crash error
        string (the one the deleted per-job-spawn path reported)."""
        obs = _obs()
        results = run_specs([JobSpec.edge("conv", ncores=2, scale=2)],
                            jobs=2, worker=_crash_on_scale_2, obs=obs)
        (r,) = results
        assert r.status == "failed"
        assert r.attempts == 2
        assert "worker crashed (exit code 13)" in r.error
        assert obs.metrics.counter("exec.crashes", bench="conv") == 2


class TestPoolUnit:
    def test_dispatch_requires_idle_worker(self):
        pool = WorkerPool(size=1, worker=_ok_worker)
        try:
            pool.dispatch(0, _specs(1)[0])
            with pytest.raises(RuntimeError):
                pool.dispatch(1, _specs(1)[0])
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_fast(self):
        pool = WorkerPool(size=2, worker=_ok_worker, grace=2.0)
        started = time.monotonic()
        pool.shutdown()
        pool.shutdown()
        assert time.monotonic() - started < 8
        assert all(not pw.process.is_alive() for pw in pool.workers)

    def test_events_come_back_with_durations(self):
        pool = WorkerPool(size=1, worker=_ok_worker)
        try:
            pool.dispatch(7, _specs(1)[0])
            deadline = time.monotonic() + 30
            events = []
            while not events and time.monotonic() < deadline:
                events = pool.poll()
                time.sleep(0.01)
            (event,) = events
            assert event.tag == 7
            assert event.ok
            assert event.value == _ok_worker(_specs(1)[0])
            assert event.duration >= 0.0
        finally:
            pool.shutdown()
