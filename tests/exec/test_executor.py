"""ParallelExecutor: one dispatch loop at every ``jobs`` — retry and
store integration.

Worker functions live at module level so they pickle into children.
"""

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.exec import JobSpec, ParallelExecutor, ResultStore, run_specs
from repro.exec.pool import WorkerPool


def _specs(n, bench="conv"):
    return [JobSpec.edge(bench, ncores=2, scale=i + 1) for i in range(n)]


def _ok_worker(spec):
    return {"bench": spec.bench, "scale": spec.scale,
            "value": spec.scale * 10}


def _raise_on_scale_2(spec):
    if spec.scale == 2:
        raise ValueError("simulated bad configuration")
    return _ok_worker(spec)


def _crash_worker(spec):
    os._exit(13)


def _sleep_worker(spec):
    time.sleep(30)
    return _ok_worker(spec)


def _nap_worker(spec):
    time.sleep(0.1)
    return _ok_worker(spec)


def _flaky_worker(spec):
    """Crash on the first attempt, succeed on the retry (state shared
    through a sentinel file named by the test via the environment)."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_FLAKY_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("first attempt crashed")
        os._exit(13)
    return _ok_worker(spec)


_SERIAL_AND_POOL = pytest.mark.parametrize("jobs", [1, 2],
                                           ids=["serial", "warm-pool"])


class TestPoolSemantics:
    """Where a job runs (in this process or on a pool worker) is an
    optimisation, never a semantic: both are observationally identical
    to calling the worker directly."""

    @_SERIAL_AND_POOL
    def test_parallel_matches_serial(self, jobs):
        specs = _specs(6)
        results = run_specs(specs, jobs=jobs, worker=_ok_worker)
        assert [r.payload for r in results] == [_ok_worker(s) for s in specs]
        assert all(r.status == "ok" for r in results)
        # Input order is preserved regardless of completion order.
        assert [r.spec for r in results] == specs

    @_SERIAL_AND_POOL
    def test_byte_identical_records(self, tmp_path, jobs):
        specs = _specs(5)
        direct = ResultStore(tmp_path / "direct")
        store = ResultStore(tmp_path / "executor")
        for spec in specs:
            direct.store(spec, _ok_worker(spec))
        run_specs(specs, jobs=jobs, worker=_ok_worker, store=store)
        for spec in specs:
            a = direct.path_for(direct.key(spec)).read_bytes()
            b = store.path_for(store.key(spec)).read_bytes()
            assert a == b

    @pytest.mark.parametrize("jobs", [8], ids=["warm-pool"])
    def test_more_jobs_than_specs(self, jobs):
        results = run_specs(_specs(2), jobs=jobs, worker=_ok_worker)
        assert [r.status for r in results] == ["ok", "ok"]


class TestFailureHandling:
    def test_raise_is_retried_once_then_reported(self):
        specs = _specs(4)
        results = run_specs(specs, jobs=2, worker=_raise_on_scale_2)
        by_scale = {r.spec.scale: r for r in results}
        bad = by_scale[2]
        assert bad.status == "failed"
        assert bad.attempts == 2                    # one retry
        assert "simulated bad configuration" in bad.error
        # The rest of the sweep survived.
        for scale in (1, 3, 4):
            assert by_scale[scale].status == "ok"

    def test_crash_is_retried_then_reported(self):
        results = run_specs(_specs(1), jobs=2, worker=_crash_worker)
        (r,) = results
        assert r.status == "failed"
        assert r.attempts == 2
        assert "exit code" in r.error

    def test_crash_then_success_on_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        results = run_specs(_specs(1), jobs=2, worker=_flaky_worker)
        (r,) = results
        assert r.status == "ok"
        assert r.attempts == 2
        assert r.payload == _ok_worker(_specs(1)[0])

    def test_serial_path_retries_raises(self):
        results = run_specs(_specs(4), jobs=1, worker=_raise_on_scale_2)
        by_scale = {r.spec.scale: r for r in results}
        assert by_scale[2].status == "failed"
        assert by_scale[2].attempts == 2
        assert by_scale[1].status == "ok"


class _BrokenConn:
    """Pipe end whose poll() raises, as a dead fd does."""

    def poll(self):
        raise OSError(32, "Broken pipe")

    def close(self):
        pass


class _LaggedConn:
    """Pipe end whose first poll() misses the buffered message, as a
    real fd does when the worker sends and exits between two checks."""

    def __init__(self, conn):
        self._conn = conn
        self._polls = 0

    def poll(self):
        self._polls += 1
        return False if self._polls == 1 else self._conn.poll()

    def recv(self):
        return self._conn.recv()

    def close(self):
        self._conn.close()


@pytest.fixture
def busy_pool(monkeypatch):
    """A one-worker pool whose slot holds job 0, ready to have its
    pipe or process swapped for a stub."""
    monkeypatch.setattr(WorkerPool, "grace", 1.0)
    pool = WorkerPool(size=1, worker=_sleep_worker)
    pool.dispatch(0, _specs(1)[0])
    yield pool
    pool.shutdown()


class TestBrokenPipe:
    def test_broken_pipe_treated_as_crash(self, busy_pool):
        """A live-but-wedged worker whose pipe died must settle as a
        failure instead of spinning the scheduler forever (regression:
        a raising poll() used to read as 'no message yet')."""
        (pw,) = busy_pool.workers
        wedged = pw.process
        pw.conn.close()
        pw.conn = _BrokenConn()
        (event,) = busy_pool.poll()
        assert not event.ok
        assert event.value == "worker pipe broken"
        assert not wedged.is_alive()            # stopped, not waited on
        assert not pw.busy and pw.generation == 1   # slot respawned


class TestSendExitRace:
    def test_result_sent_just_before_exit_is_not_a_crash(self, busy_pool):
        """A worker that sends its report and exits between the pool's
        drain and its liveness check must settle with the report, not
        as 'worker crashed (exit code 0)' (regression: the dead-process
        branch never re-read the pipe)."""
        (pw,) = busy_pool.workers
        pw.process.kill()
        pw.process.join(5)
        pw.conn.close()
        recv, send = multiprocessing.get_context().Pipe(duplex=False)
        send.send(("result", 0, "ok", {"value": 42}, 0.5, 0.0))
        send.close()
        pw.conn = _LaggedConn(recv)
        (event,) = busy_pool.poll()
        assert event.ok
        assert event.value == {"value": 42}

    def test_death_seen_before_the_closed_pipe_respawns_once(self, busy_pool):
        """The liveness check can notice a killed worker before its
        pipe reads EOF; the second drain then replaces the slot, and
        the dead-process branch must not replace it again (regression:
        it did, orphaning the worker it had just spawned)."""
        (pw,) = busy_pool.workers
        pw.process.kill()
        pw.process.join(5)
        pw.conn.close()
        recv, send = multiprocessing.get_context().Pipe(duplex=False)
        send.close()
        pw.conn = _LaggedConn(recv)
        (event,) = busy_pool.poll()
        assert event.value == "worker crashed (exit code -9)"
        assert pw.generation == 1 and busy_pool.respawns == 1
        assert len(multiprocessing.active_children()) == 1


@_SERIAL_AND_POOL
class TestCoalescing:
    """Equal-hash duplicates within one batch run once and every
    duplicate reads back the one result.  The dedup is the harness
    batch's (``prewarm_specs``); ``run_specs`` runs each spec it is
    handed."""

    def test_duplicates_run_once(self, tmp_path, jobs):
        from repro.harness import clear_cache, configure_cache
        from repro.harness.runner import prewarm_specs, run_all

        clear_cache()
        store = configure_cache(tmp_path / "store")
        try:
            spec = JobSpec.edge("dither", ncores=2)
            other = JobSpec.edge("dither", ncores=4)
            batch = [spec, other, spec, spec]
            outcomes = prewarm_specs(batch, jobs=jobs)
            assert sorted(o.spec.ncores for o in outcomes) == [2, 4]
            assert all(o.status == "ok" for o in outcomes)
            records = {path: path.stat().st_ino   # two unique hashes
                       for path in store.root.glob("??/*.json")}
            assert len(records) == 2
            runs = run_all(batch, jobs=jobs)         # all memory hits
            assert {path: path.stat().st_ino          # none rewritten
                    for path in store.root.glob("??/*.json")} == records
            assert runs[0] is runs[2] is runs[3]
            assert runs[1] is not runs[0]
        finally:
            clear_cache()
            configure_cache(enabled=False)


@_SERIAL_AND_POOL
class TestJobDuration:
    def test_duration_is_service_time_not_queue_wait(self, jobs):
        """Six 0.1s jobs: every duration is its own dispatch→completion
        time (regression: the pool stamped every job at batch start, so
        the last job of a sweep "took" the whole sweep)."""
        from repro.obs import Observability

        obs = Observability(metrics_enabled=True)
        results = run_specs(_specs(6), jobs=jobs, worker=_nap_worker, obs=obs)
        assert all(0.1 <= r.duration < 0.3 for r in results)
        histogram = obs.metrics.snapshot()["histograms"]["exec.job_seconds"]
        assert histogram["count"] == 6 and histogram["max"] < 0.3


class TestPolicyParity:
    def test_jobs_1_and_2_agree_on_everything_but_speed(self, tmp_path):
        """One loop, one policy: statuses, attempts, error strings,
        retry metrics and store bytes do not depend on ``jobs``."""
        from repro.obs import Observability

        seen = {}
        for jobs in (1, 2):
            obs = Observability(metrics_enabled=True)
            store = ResultStore(tmp_path / str(jobs))
            results = run_specs(_specs(4), jobs=jobs, store=store, obs=obs,
                                worker=_raise_on_scale_2)
            seen[jobs] = (
                [(r.status, r.attempts, r.error, r.payload) for r in results],
                obs.metrics.counter("exec.retries", reason="exception",
                                    bench="conv"),
                obs.metrics.counter("exec.jobs", status="failed"),
                {path.name: path.read_bytes()
                 for path in store.root.glob("??/*.json")})
        assert seen[1] == seen[2]
        statuses = [status for status, *__ in seen[1][0]]
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert seen[1][1] == 1 and len(seen[1][3]) == 3


class TestStoreIntegration:
    def test_successes_persisted_and_replayed(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _specs(3)
        first = run_specs(specs, jobs=2, worker=_ok_worker, store=store)
        assert [r.status for r in first] == ["ok"] * 3
        assert len(list(tmp_path.glob("??/*.json"))) == 3

        # Second run: everything is a store hit, no worker runs at all
        # (the crash worker would fail loudly if launched).
        replay = run_specs(specs, jobs=2, worker=_crash_worker, store=store)
        assert [r.status for r in replay] == ["cached"] * 3
        assert [r.payload for r in replay] == [r.payload for r in first]

    def test_failures_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        run_specs(_specs(4), jobs=2, worker=_raise_on_scale_2, store=store)
        assert len(list(tmp_path.glob("??/*.json"))) == 3


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_write_error_costs_the_record_not_the_sweep(
            self, tmp_path, monkeypatch, jobs):
        """Regression: an OSError from the store write (read-only or
        full cache dir) used to propagate out of run() and discard
        every completed result."""
        from repro.obs import Observability

        def full_disk(self, spec, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultStore, "store", full_disk)
        obs = Observability(metrics_enabled=True)
        specs = _specs(4)
        with pytest.warns(RuntimeWarning, match="not writable") as caught:
            results = run_specs(specs, jobs=jobs, worker=_ok_worker,
                                store=ResultStore(tmp_path), obs=obs)
        assert len(caught) == 1                     # warned once
        reference = run_specs(specs, jobs=jobs, worker=_ok_worker)
        assert ([(r.status, r.payload) for r in results]
                == [(r.status, r.payload) for r in reference])
        assert obs.metrics.counter("exec.store_errors") == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_sweep_leaves_only_records_in_the_store(self, tmp_path,
                                                         jobs):
        """A store root holds result records and the advisory lock file,
        nothing else — no sidecar for a later invocation to find."""
        store = ResultStore(tmp_path)
        run_specs(_specs(4), jobs=jobs, worker=_ok_worker, store=store)
        files = {p.relative_to(tmp_path).as_posix()
                 for p in tmp_path.rglob("*") if p.is_file()}
        records = {path.relative_to(tmp_path).as_posix()
                   for path in tmp_path.glob("??/*.json")}
        assert len(records) == 4
        assert files - {".lock"} == records


class TestDispatchOrder:
    """Cold jobs go out in input order; the only thing that jumps the
    queue is a failed attempt's retry."""

    def test_input_order_with_the_retry_ahead_of_new_work(self, tmp_path):
        from repro.obs import CallbackSink, Observability

        # What an older version's scheduler left behind, claiming the
        # last spec is the longest: ignored, and left as found.
        stale = tmp_path / "durations.json"
        stale.write_text(json.dumps({"schema": 1, "families": {
            "conv|tflex1|x1": 1.0, "conv|tflex2|x2": 2.0,
            "conv|tflex4|x1": 99.0}}))
        before = stale.read_bytes()
        specs = [JobSpec.edge("conv", ncores=1),
                 JobSpec.edge("conv", ncores=2, scale=2),
                 JobSpec.edge("conv", ncores=4)]
        obs = Observability(metrics_enabled=True)
        started = []
        obs.bus.attach(CallbackSink(
            lambda e: started.append((e["label"], e["attempt"])),
            kinds=("job.start",)))
        results = run_specs(specs, jobs=1, worker=_raise_on_scale_2,
                            store=ResultStore(tmp_path), obs=obs)
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert started == [("tflex-1", 1), ("tflex-2", 1), ("tflex-2", 2),
                           ("tflex-4", 1)]
        assert stale.read_bytes() == before


class TestRealWorker:
    def test_end_to_end_simulation_in_children(self, tmp_path):
        """Two real (tiny) simulation points through the default worker."""
        store = ResultStore(tmp_path)
        specs = [JobSpec.edge("dither", ncores=1),
                 JobSpec.edge("dither", ncores=2)]
        results = run_specs(specs, jobs=2, store=store)
        assert [r.status for r in results] == ["ok", "ok"]
        for r in results:
            assert r.payload["kind"] == "edge"
            assert r.payload["result"]["cycles"] > 0
        # Payloads are valid JSON all the way down.
        json.dumps([r.payload for r in results])


class TestRetryObservability:
    """Worker failures are labelled repro.obs metrics, not just log
    lines: ``exec.retries{reason,bench}`` and ``exec.crashes{bench}``."""

    def _obs(self):
        from repro.obs import Observability

        return Observability(metrics_enabled=True)

    def test_serial_retry_counts_exceptions(self):
        obs = self._obs()
        run_specs(_specs(2), jobs=1, worker=_raise_on_scale_2, obs=obs)
        # scale=2 raises on both attempts; only the retried one counts.
        assert obs.metrics.counter("exec.retries", reason="exception",
                                   bench="conv") == 1
        assert obs.metrics.counter("exec.crashes", bench="conv") == 0

    def test_parallel_crashes_labelled_per_attempt(self):
        obs = self._obs()
        results = run_specs(_specs(1), jobs=2, worker=_crash_worker, obs=obs)
        assert results[0].status == "failed"
        # Both attempts crashed; one of them was granted a retry.
        assert obs.metrics.counter("exec.crashes", bench="conv") == 2
        assert obs.metrics.counter("exec.retries", reason="crash",
                                   bench="conv") == 1

    def test_crash_then_success_counts_one_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        obs = self._obs()
        results = run_specs(_specs(1), jobs=2, worker=_flaky_worker, obs=obs)
        assert results[0].status == "ok"
        assert obs.metrics.counter("exec.crashes", bench="conv") == 1
        assert obs.metrics.counter("exec.retries", reason="crash",
                                   bench="conv") == 1

    def test_retry_event_carries_reason(self):
        from repro.obs import CallbackSink

        obs = self._obs()
        events = []
        obs.bus.attach(CallbackSink(events.append, kinds=("job.retry",)))
        run_specs(_specs(2), jobs=1, worker=_raise_on_scale_2, obs=obs)
        assert len(events) == 1
        event = events[0]
        assert event["reason"] == "exception"
        assert event["bench"] == "conv"
        assert event["attempt"] == 1
        assert "simulated bad configuration" in event["error"]
