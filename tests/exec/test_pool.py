"""WorkerPool: warm reuse, stop escalation, transparent respawn.

Worker functions live at module level so they pickle into children.
The nasty ones model the three ways a real worker dies: ignoring
SIGTERM (stuck in C code), breaking the pipe mid-send, and crashing
outright.

Includes the event-driven-wake latency tests (``TestEventDrivenWake``:
two-second budgets on a poll that blocks until a reply or a death) and
the SIGKILL chaos sweeps (``TestChaos``); ~15 s in all.  A wedged
dispatch loop would hang here, which is why CI puts a time limit on the
tier-1 step.
"""

import multiprocessing
import os
import pathlib
import random
import signal
import struct
import time

import pytest

import repro.exec.executor as executor_mod
from repro.exec import JobSpec, ParallelExecutor, ResultStore, run_specs
from repro.exec.pool import WorkerPool
from repro.obs import CallbackSink, Observability


def _specs(n, bench="conv"):
    return [JobSpec.edge(bench, ncores=2, scale=i + 1) for i in range(n)]


def _ok_worker(spec):
    return {"bench": spec.bench, "scale": spec.scale,
            "value": spec.scale * 10}


def _sigterm_ignoring_worker(spec):
    """The acceptance scenario: a worker wedged with SIGTERM trapped.
    Only SIGKILL (the stop's escalation) can take it down.  It touches
    the file named by ``REPRO_TEST_TRAPPED`` once the trap is set."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    pathlib.Path(os.environ["REPRO_TEST_TRAPPED"]).touch()
    time.sleep(60)
    return _ok_worker(spec)


def _sleep_worker(spec):
    time.sleep(20)
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


def _nap_worker(spec):
    time.sleep(0.03)
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
    """Stopping a worker escalates terminate → grace → kill."""

    def test_sigterm_ignoring_worker_is_killed_within_grace(
            self, tmp_path, monkeypatch):
        """Regression (acceptance criterion): a worker that traps
        SIGTERM used to wedge the sweep in an unbounded join().  Shutting
        the pool down with its job in flight must escalate to SIGKILL
        after the grace period, well inside the job's 60 s sleep."""
        trapped = tmp_path / "trapped"
        monkeypatch.setenv("REPRO_TEST_TRAPPED", str(trapped))
        monkeypatch.setattr(WorkerPool, "grace", 1.0)
        obs = _obs()
        kills = []
        obs.bus.attach(CallbackSink(kills.append, kinds=("pool.kill",)))
        pool = WorkerPool(size=1, worker=_sigterm_ignoring_worker, obs=obs)
        (pw,) = pool.workers
        try:
            pool.dispatch(0, _specs(1)[0])
            while not trapped.exists() and pw.process.is_alive():
                time.sleep(0.01)
            assert trapped.exists()
            started = time.monotonic()
            pool.shutdown()
            assert time.monotonic() - started < 15
            assert [e["escalated"] for e in kills] == [True]
            assert not pw.process.is_alive()
        finally:
            if pw.process.is_alive():
                pw.process.kill()


class TestRespawn:
    def test_pipe_broken_mid_send_fails_job_not_sweep(self, monkeypatch):
        """A worker that corrupts the reply stream and dies loses its
        own job; the pool respawns the slot and the sweep completes."""
        monkeypatch.setattr(ParallelExecutor, "retries", 0)
        obs = _obs()
        specs = _specs(1)
        # jobs=2 with one cold spec: a one-slot pool (jobs=1 would run
        # the job in this process).
        results = run_specs(specs, jobs=2, worker=_broken_pipe_worker,
                            obs=obs)
        (r,) = results
        assert r.status == "failed"
        assert "worker" in r.error      # pipe broken / crashed (exit 0)
        respawns = sum(
            obs.metrics.counter("exec.worker_respawns", reason=reason)
            for reason in ("pipe", "crash"))
        assert respawns >= 1

    def test_respawn_after_crash_keeps_serving(self, monkeypatch):
        """One job crashes its worker; the pool replaces the slot and
        every other job still completes."""
        monkeypatch.setattr(ParallelExecutor, "retries", 0)
        obs = _obs()
        specs = _specs(4)
        results = run_specs(specs, jobs=2, worker=_crash_on_scale_2,
                            obs=obs)
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

    def test_shutdown_is_idempotent_and_fast(self, monkeypatch):
        monkeypatch.setattr(WorkerPool, "grace", 2.0)
        pool = WorkerPool(size=2, worker=_ok_worker)
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

    def test_an_idle_worker_death_wakes_poll(self):
        """poll() blocks on every worker's sentinel, idle ones too: an
        idle worker killed while the other runs a 20 s job is replaced
        at once, and poll returns no finished job instead of waiting
        for that one."""
        pool = WorkerPool(size=2, worker=_sleep_worker)
        busy, idle = pool.workers
        try:
            pool.dispatch(0, _specs(1)[0])
            os.kill(idle.process.pid, signal.SIGKILL)
            assert pool.poll() == []
            assert busy.busy and busy.generation == 0
            assert idle.generation == 1 and idle.process.is_alive()
        finally:
            pool.shutdown()


class TestEventDrivenWake:
    """The dispatch loop has no tick: a reply or a death wakes it
    through the pipe or the process sentinel, within the two-second
    budgets below."""

    def _executor(self, **kwargs):
        return ParallelExecutor(jobs=2, **kwargs)

    def test_a_reply_wakes_the_parent(self):
        started = time.monotonic()
        results = self._executor(worker=_ok_worker).run(_specs(6))
        assert time.monotonic() - started < 2
        assert [r.status for r in results] == ["ok"] * 6

    def test_a_death_wakes_the_parent(self):
        obs = _obs()
        started = time.monotonic()
        results = self._executor(worker=_crash_on_scale_2, obs=obs).run(
            _specs(3))
        assert time.monotonic() - started < 2
        by_scale = {r.spec.scale: r for r in results}
        assert by_scale[2].status == "failed" and by_scale[2].attempts == 2
        assert "worker crashed (exit code 13)" in by_scale[2].error
        assert by_scale[1].status == by_scale[3].status == "ok"
        assert obs.metrics.counter("exec.retries", reason="crash",
                                   bench="conv") == 1


class _LoggingStore(ResultStore):
    """Appends ``("store", label)`` to a log shared with the obs sink."""

    def __init__(self, root, log):
        super().__init__(root)
        self.log = log

    def store(self, spec, payload):
        self.log.append(("store", spec.label()))
        return super().store(spec, payload)


def _raise_on_2_cores(spec):
    if spec.ncores == 2:
        raise ValueError("simulated bad configuration")
    return _ok_worker(spec)


def _one_worker_pool(monkeypatch, obs):
    """Make ``jobs=1`` run on a one-worker pool instead of in this
    process, reporting to ``obs``."""
    monkeypatch.setattr(executor_mod, "_InProcessSlot",
                        lambda worker: WorkerPool(1, worker, obs))


#: One slot either way — the in-process one, or a one-worker pool — so
#: the order is exact.
_ONE_SLOT = pytest.mark.parametrize(
    "pooled", [False, True], ids=["in-process", "one-worker-pool"])


@_ONE_SLOT
class TestDispatchBeforePersist:
    @pytest.fixture(autouse=True)
    def _slot(self, monkeypatch, pooled):
        self.obs = _obs()
        if pooled:
            _one_worker_pool(monkeypatch, self.obs)

    def _run(self, tmp_path, worker):
        log = []
        self.obs.bus.attach(CallbackSink(
            lambda e: log.append(("start", e["label"], e["attempt"])),
            kinds=("job.start",)))
        results = run_specs(
            [JobSpec.edge("conv", ncores=n) for n in (1, 2, 4, 8)],
            jobs=1, worker=worker, obs=self.obs,
            store=_LoggingStore(tmp_path, log))
        return [r.status for r in results], log

    def test_the_freed_slot_is_refilled_before_the_record_is_written(
            self, tmp_path):
        statuses, log = self._run(tmp_path, _ok_worker)
        assert statuses == ["ok"] * 4
        assert log == [("start", "tflex-1", 1),
                       ("start", "tflex-2", 1), ("store", "tflex-1"),
                       ("start", "tflex-4", 1), ("store", "tflex-2"),
                       ("start", "tflex-8", 1), ("store", "tflex-4"),
                       ("store", "tflex-8")]

    def test_a_failed_attempt_is_redispatched_before_any_new_spec(
            self, tmp_path):
        statuses, log = self._run(tmp_path, _raise_on_2_cores)
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert log == [("start", "tflex-1", 1),
                       ("start", "tflex-2", 1), ("store", "tflex-1"),
                       ("start", "tflex-2", 2),     # the retry, not tflex-4
                       ("start", "tflex-4", 1),
                       ("start", "tflex-8", 1), ("store", "tflex-4"),
                       ("store", "tflex-8")]


class _SlowStore(ResultStore):
    def store(self, spec, payload):
        time.sleep(0.1)
        return super().store(spec, payload)


class TestWorkerClock:
    def test_duration_and_idle_time_are_the_workers_own(
            self, tmp_path, monkeypatch):
        """Three 30 ms jobs on one pool worker behind a store that takes
        100 ms a record: the parent is still writing record N when job
        N+1 finishes, so on the parent's clock every job "took" 100 ms.
        The worker's own service time says 30 ms, and its idle time —
        what it spent blocked in recv() before each job — shows the
        70 ms the parent made it wait."""
        obs = _obs()
        _one_worker_pool(monkeypatch, obs)
        results = run_specs(_specs(3), jobs=1, obs=obs, worker=_nap_worker,
                            store=_SlowStore(tmp_path))
        assert all(0.03 <= r.duration < 0.09 for r in results)
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["exec.job_seconds"]["max"] < 0.09
        idle = histograms["exec.worker_idle_seconds"]
        assert idle["count"] == 3
        assert 0.05 <= idle["max"] < 0.5


class _ChaosStore(ResultStore):
    """SIGKILLs a randomly chosen live pool worker while writing its
    5th, 15th and 25th record.  The store is written in the parent's
    dispatch loop right after the freed slot was refilled, so both
    workers are mid-job when the signal lands."""

    def __init__(self, root, rng):
        super().__init__(root)
        self.rng = rng
        self.killed = []
        self.written = 0

    def store(self, spec, payload):
        path = super().store(spec, payload)
        self.written += 1
        if self.written in (5, 15, 25):
            workers = sorted(
                (p for p in multiprocessing.active_children()
                 if p.name.startswith("repro-pool-")), key=lambda p: p.name)
            victim = self.rng.choice(workers)
            os.kill(victim.pid, signal.SIGKILL)
            self.killed.append(victim.name)
        return path


class TestChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_survives_three_sigkills_byte_identically(
            self, tmp_path, seed):
        specs = _specs(40)
        calm = ResultStore(tmp_path / "calm")
        run_specs(specs, jobs=2, worker=_nap_worker, store=calm)

        obs = _obs()
        chaos = _ChaosStore(tmp_path / "chaos", random.Random(seed))
        started = time.monotonic()
        results = run_specs(specs, jobs=2, worker=_nap_worker, store=chaos,
                            obs=obs)
        assert time.monotonic() - started < 20
        assert len(chaos.killed) == 3
        assert [r.status for r in results] == ["ok"] * 40
        assert obs.metrics.counter_total("exec.worker_respawns") == 3
        assert 1 <= obs.metrics.counter_total("exec.retries") <= 3
        records = sorted(path.relative_to(calm.root)
                         for path in calm.root.glob("??/*.json"))
        assert sorted(path.relative_to(chaos.root)
                      for path in chaos.root.glob("??/*.json")) == records
        for record in records:
            assert ((chaos.root / record).read_bytes()
                    == (calm.root / record).read_bytes())
        assert not multiprocessing.active_children()
