"""Persistent warm worker pool: long-lived processes serving many jobs.

A process per job pays a full process lifecycle — spawn, interpreter
boot, ``import repro`` (under spawn-type contexts), workload build —
for *every* job, and a sweep of hundreds of sub-second simulations is
then dominated by harness overhead, not modelling (2.5x on the 49-job
fig6 sweep, docs/PERFORMANCE.md).  The pool keeps ``size`` worker
processes alive for the whole batch instead:

* each worker imports the simulator stack **once**, and worker-side
  build caches (decoded workload programs — see
  :func:`repro.harness.simulate.cached_program`) stay hot across jobs;
* jobs travel over a duplex request/reply pipe
  (:mod:`repro.exec.worker` documents the message protocol), so a job
  costs one pickled spec each way instead of a process;
* a worker that dies, or whose pipe breaks, is noticed through its
  process sentinel or its pipe and **transparently respawned** — a
  crashed worker costs one job (reported failed/retried by the
  executor), never the sweep;
* stopping a worker escalates ``terminate()`` → grace → ``kill()``, so
  one that traps SIGTERM cannot wedge a shutdown.

There is no wall-clock budget per job: a simulation's budget is
in-model (``MAX_CYCLES``), so :meth:`WorkerPool.poll` blocks until a
reply or a death and needs no tick.

Observability: ``pool.spawn``/``pool.respawn``/``pool.kill`` events,
``exec.pool_reuse`` (jobs served by an already-warm worker) and
``exec.worker_respawns`` counters, and the ``exec.worker_idle_seconds``
histogram — what each worker measured between sending one reply and
receiving its next job.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as wait_any
from typing import Callable, Optional

import repro.obs as obs_lib
from repro.exec.spec import JobSpec
from repro.exec.worker import (
    MSG_JOB,
    MSG_SHUTDOWN,
    PoolEvent,
    execute_spec,
    load_worker_side,
    pool_worker_main,
)


class _PoolWorker:
    """Parent-side state for one worker slot (respawns in place)."""

    __slots__ = ("slot", "generation", "process", "conn", "tag",
                 "dispatched_at", "jobs_done")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.generation = 0
        self.process = None
        self.conn = None
        self.tag = None             # None = idle
        self.dispatched_at = 0.0
        self.jobs_done = 0

    @property
    def name(self) -> str:
        return f"repro-pool-{self.slot}.{self.generation}"

    @property
    def busy(self) -> bool:
        return self.tag is not None


class WorkerPool:
    """``size`` warm workers behind a dispatch/poll interface.

    The pool is deliberately passive: :meth:`dispatch` hands one job to
    an idle worker, :meth:`poll` blocks until a reply or a death and
    returns every job that finished (or was lost) since the last call.
    Scheduling policy, retries, and result persistence stay in the
    executor.
    """

    #: Seconds a stopping worker gets after ``terminate()``, and again
    #: after ``kill()``: one that ignores SIGTERM is SIGKILLed after this
    #: long instead of wedging the sweep.
    grace = 5.0

    def __init__(self, size: int,
                 worker: Callable[[JobSpec], dict] = execute_spec,
                 obs: Optional[obs_lib.Observability] = None) -> None:
        self.size = max(1, int(size))
        self.worker_fn = worker
        self._ctx = multiprocessing.get_context()
        self.obs = obs if obs is not None else obs_lib.current()
        self.respawns = 0
        self.reused = 0             # jobs served by an already-warm worker
        if worker is execute_spec:
            load_worker_side()      # before the first fork, once per process
        self.workers = [_PoolWorker(slot) for slot in range(self.size)]
        for pw in self.workers:
            self._spawn(pw)

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, pw: _PoolWorker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=pool_worker_main, args=(child_conn, self.worker_fn),
            daemon=True, name=pw.name)
        process.start()
        child_conn.close()          # the worker holds its end now
        pw.process = process
        pw.conn = parent_conn
        pw.tag = None
        pw.jobs_done = 0
        if self.obs.active:
            self.obs.emit("pool.spawn", worker=pw.name)

    def _respawn(self, pw: _PoolWorker, reason: str) -> None:
        self._close_conn(pw)
        pw.generation += 1
        self.respawns += 1
        if self.obs.active:
            self.obs.emit("pool.respawn", worker=pw.name, reason=reason)
            self.obs.metrics.inc("exec.worker_respawns", reason=reason)
        self._spawn(pw)

    def _stop(self, pw: _PoolWorker) -> None:
        """Terminate → grace → kill → grace.  A worker that ignores
        SIGTERM (stuck in C code, trapping the signal) is escalated to
        SIGKILL within one grace period instead of wedging the sweep."""
        process = pw.process
        if process is None:
            return
        escalated = False
        if process.is_alive():
            process.terminate()
            process.join(self.grace)
            if process.is_alive():
                escalated = True
                process.kill()
                process.join(self.grace)
        else:
            process.join(self.grace)
        if self.obs.active:
            self.obs.emit("pool.kill", worker=pw.name, escalated=escalated)

    def _close_conn(self, pw: _PoolWorker) -> None:
        if pw.conn is not None:
            try:
                pw.conn.close()
            except OSError:
                pass
            pw.conn = None

    def shutdown(self) -> None:
        """Stop every worker: polite shutdown request, then escalation."""
        for pw in self.workers:
            if pw.process is None:
                continue
            if not pw.busy and pw.process.is_alive():
                try:
                    pw.conn.send((MSG_SHUTDOWN,))
                except (OSError, ValueError):
                    pass
                pw.process.join(self.grace)
            if pw.process.is_alive():
                self._stop(pw)
            else:
                pw.process.join(self.grace)
            self._close_conn(pw)
        if self.obs.active:
            self.obs.emit("pool.stop", respawns=self.respawns,
                          reused=self.reused)

    # -- dispatch ------------------------------------------------------

    def has_idle(self) -> bool:
        return any(not pw.busy for pw in self.workers)

    def busy_count(self) -> int:
        return sum(1 for pw in self.workers if pw.busy)

    def dispatch(self, tag, spec: JobSpec) -> None:
        """Hand one job to an idle worker (caller checks :meth:`has_idle`)."""
        pw = next((w for w in self.workers if not w.busy), None)
        if pw is None:
            raise RuntimeError("dispatch with no idle worker")
        for attempt in (0, 1):
            try:
                pw.conn.send((MSG_JOB, tag, spec))
                break
            except (OSError, ValueError):
                # The worker died idle; replace it and retry once.
                self._stop(pw)
                self._respawn(pw, reason="dispatch")
                if attempt:
                    raise
        warm = pw.jobs_done > 0
        pw.tag = tag
        pw.dispatched_at = time.monotonic()
        if warm:
            self.reused += 1
        if self.obs.active:
            self.obs.emit("pool.dispatch", worker=pw.name, bench=spec.bench,
                          label=spec.label(), warm=warm)
            if warm:
                self.obs.metrics.inc("exec.pool_reuse")

    # -- completion ----------------------------------------------------

    def poll(self) -> list[PoolEvent]:
        """Block on the busy workers' pipes and every worker's process
        sentinel until a reply or a death, then drain every reply,
        classify every dead worker and respawn it.  Returns the jobs
        that finished (or were lost) since the last call."""
        ready = [pw.conn for pw in self.workers if pw.busy]
        ready += [pw.process.sentinel for pw in self.workers]
        try:
            fired = set(wait_any(ready))
        except (OSError, ValueError):
            fired = set()           # a dead descriptor: the sweep names it
        events: list[PoolEvent] = []
        now = time.monotonic()
        for pw in self.workers:
            if pw.process.sentinel in fired:
                # A sentinel fires as the exiting worker's descriptors
                # close, a moment before it can be reaped: wait for
                # that, so is_alive() below sees the death.
                pw.process.join(self.grace)
            if self._drain(pw, events, now) is False:
                continue            # worker was replaced during drain
            if not pw.process.is_alive():
                # Drain once more: the worker may have sent its reply
                # and exited between the drain above and this check.
                if self._drain(pw, events, now) is False:
                    continue        # ... or closed its pipe: replaced
                if pw.busy:
                    pw.process.join(self.grace)
                    events.append(PoolEvent(
                        tag=pw.tag, ok=False,
                        value=(f"worker crashed (exit code "
                               f"{pw.process.exitcode})"),
                        duration=now - pw.dispatched_at, reason="crash"))
                    pw.tag = None
                self._respawn(pw, reason="crash")
        return events

    def _drain(self, pw: _PoolWorker, events: list[PoolEvent],
               now: float) -> bool:
        """Read every buffered reply from one worker.  Returns False
        when the pipe died and the worker was replaced."""
        if pw.conn is None:
            return True
        while True:
            try:
                if not pw.conn.poll():
                    return True
                __, tag, status, value, service, idle = pw.conn.recv()
            except EOFError:
                # Clean close without a reply: the worker exited (or is
                # exiting) — classify by exit code.
                self._lost(pw, events, now, pipe_broken=False)
                return False
            except (OSError, ValueError):
                # Partial frame or dead descriptor: the transport is
                # unusable even if the process lives.
                self._lost(pw, events, now, pipe_broken=True)
                return False
            if pw.busy and tag == pw.tag:
                events.append(PoolEvent(
                    tag=tag, ok=(status == "ok"), value=value,
                    duration=service,
                    reason=None if status == "ok" else "exception"))
                if self.obs.active:
                    self.obs.metrics.observe("exec.worker_idle_seconds",
                                             idle)
                pw.tag = None
                pw.jobs_done += 1

    def _lost(self, pw: _PoolWorker, events: list[PoolEvent], now: float,
              pipe_broken: bool) -> None:
        """The worker's transport died: fail its job (if any), stop the
        process, and respawn the slot."""
        was_alive = pw.process.is_alive()
        self._stop(pw)
        if pw.busy:
            if pipe_broken and was_alive:
                error = "worker pipe broken"
            else:
                error = f"worker crashed (exit code {pw.process.exitcode})"
            events.append(PoolEvent(
                tag=pw.tag, ok=False, value=error,
                duration=now - pw.dispatched_at, reason="crash"))
            pw.tag = None
        self._respawn(pw, reason="pipe" if pipe_broken else "crash")
