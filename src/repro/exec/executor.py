"""Job execution: one dispatch loop over one kind of worker slot.

The executor runs a batch of :class:`~repro.exec.spec.JobSpec` jobs on
at most ``jobs`` concurrent workers, with:

* every spec it is handed run, duplicates included — the caller reads
  the :class:`~repro.exec.store.ResultStore` and dedups first
  (:func:`repro.harness.runner.prewarm_specs`, by content hash), so
  only cold jobs get here;
* dispatch in input order, a failed attempt ahead of new work;
* one retry when a worker raises or crashes — a bad job is *reported*
  failed, it never kills the sweep;
* optional live progress/ETA reporting.

Every job takes the same route.  The loop talks to its workers through
the ``has_idle/dispatch/poll/busy_count/shutdown`` calls of
:class:`~repro.exec.pool.WorkerPool` — ``jobs`` long-lived processes
that import the simulator once and serve specs over a request/reply
pipe.  ``jobs=1`` swaps in :class:`_InProcessSlot`, which offers the
same calls and runs the job in this process, so a serial sweep pays no
process at all.  No job has a wall-clock budget: a simulation's budget
is in-model (``MAX_CYCLES``).

Results come back in input order as :class:`JobResult` records; the
parent (not the workers) persists successful payloads to the store, so
there is a single writer per store.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import repro.obs as obs_lib
from repro.exec.progress import ProgressReporter
from repro.exec.spec import JobSpec
from repro.exec.store import ResultStore
from repro.exec.worker import PoolEvent, execute_spec

#: Job states a sweep can end in.
STATUS_OK = "ok"             # simulated this run
STATUS_FAILED = "failed"     # exhausted retries (raise/crash)


@dataclass
class JobResult:
    """Outcome of one job in a sweep."""

    spec: JobSpec
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class _InProcessSlot:
    """The ``jobs=1`` stand-in for :class:`WorkerPool`: one slot whose
    :meth:`dispatch` accepts a job and whose next :meth:`poll` runs
    ``worker(spec)`` in this process and hands it back finished — so,
    as with a pool, the previous job is persisted between the two."""

    def __init__(self, worker: Callable[[JobSpec], dict]) -> None:
        self.worker = worker
        self._job: Optional[tuple] = None

    def has_idle(self) -> bool:
        return self._job is None

    def busy_count(self) -> int:
        return 0 if self._job is None else 1

    def dispatch(self, tag, spec: JobSpec) -> None:
        self._job = (tag, spec)

    def poll(self) -> list[PoolEvent]:
        (tag, spec), self._job = self._job, None
        started = time.monotonic()
        try:
            ok, value, reason = True, self.worker(spec), None
        except Exception as exc:    # boundary: a bad job is reported
            ok, value = False, f"{type(exc).__name__}: {exc}"
            reason = "exception"
        return [PoolEvent(tag=tag, ok=ok, value=value,
                          duration=time.monotonic() - started,
                          reason=reason)]

    def shutdown(self) -> None:
        pass


class ParallelExecutor:
    """Runs a batch of job specs, in parallel when ``jobs > 1``."""

    #: Re-runs a failed job gets before it is reported failed.
    retries = 1

    def __init__(self, jobs: int = 1, store: Optional[ResultStore] = None,
                 worker: Callable[[JobSpec], dict] = execute_spec,
                 progress: bool = False,
                 obs: Optional[obs_lib.Observability] = None) -> None:
        self.jobs = max(1, int(jobs))
        self.store = store
        self.worker = worker
        self.progress = progress
        #: Observability: per-job lifecycle events (``job.*``) plus
        #: ``exec.jobs`` counters and an ``exec.job_seconds`` histogram.
        self.obs = obs if obs is not None else obs_lib.current()
        self._store_warned = False

    # -- public API ----------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute every spec; results are returned in input order."""
        specs = list(specs)
        results: list[Optional[JobResult]] = [None] * len(specs)
        reporter = (ProgressReporter(total=len(specs))
                    if self.progress and specs else None)
        try:
            if specs:
                self._dispatch(specs, results, reporter)
        finally:
            if reporter is not None:
                reporter.finish()
        return results

    # -- the dispatch loop ---------------------------------------------

    def _dispatch(self, specs, results, reporter) -> None:
        """Run the jobs in input order.  A job's duration is the summed
        service time of its attempts as the worker measured it — never
        the wait for a free worker, nor the parent's wake-up latency."""
        pending = deque(range(len(specs)))
        attempts = [0] * len(specs)
        spent = [0.0] * len(specs)
        if self.jobs == 1:
            pool = _InProcessSlot(self.worker)
        else:
            # multiprocessing loads with the first pool, not with the
            # executor.
            from repro.exec.pool import WorkerPool

            pool = WorkerPool(min(self.jobs, len(specs)), self.worker,
                              self.obs)

        def refill() -> None:
            while pending and pool.has_idle():
                i = pending.popleft()
                attempts[i] += 1
                if self.obs.active:
                    self.obs.emit("job.start", bench=specs[i].bench,
                                  label=specs[i].label(), attempt=attempts[i])
                pool.dispatch(i, specs[i])

        try:
            refill()
            while pool.busy_count():
                # Classify the sweep, refill the freed slots (a failed
                # attempt before new work), and only then record: store
                # writes, events and progress overlap the next jobs.
                finished = []               # (index, payload, error)
                for event in pool.poll():
                    i = event.tag
                    spent[i] += event.duration
                    if event.ok:
                        finished.append((i, event.value, None))
                        continue
                    error, reason = event.value, event.reason
                    if self.obs.active and reason == "crash":
                        self.obs.metrics.inc("exec.crashes",
                                             bench=specs[i].bench)
                    if attempts[i] <= self.retries:
                        self._note_retry(specs[i], attempts[i], error,
                                         reason, reporter)
                        pending.appendleft(i)    # retry before new work
                    else:
                        finished.append((i, None, error))
                refill()
                for i, payload, error in finished:
                    results[i] = self._finish(specs[i], payload, error,
                                              attempts[i], spent[i], reporter)
        finally:
            pool.shutdown()

    def _note_retry(self, spec: JobSpec, attempt: int, error: str,
                    reason: str,
                    reporter: Optional[ProgressReporter]) -> None:
        """One failed attempt is about to be retried: emit the labelled
        retry metric and surface it in the progress line."""
        if self.obs.active:
            self.obs.emit("job.retry", bench=spec.bench, label=spec.label(),
                          attempt=attempt, error=error, reason=reason)
            self.obs.metrics.inc("exec.retries", reason=reason,
                                 bench=spec.bench)
        if reporter is not None:
            reporter.note_retry()

    def _finish(self, spec: JobSpec, payload: Optional[dict],
                error: Optional[str], attempts: int, duration: float,
                reporter: Optional[ProgressReporter]) -> JobResult:
        if error is None and payload is not None:
            if self.store is not None:
                self._persist(spec, payload)
            result = JobResult(spec=spec, status=STATUS_OK, payload=payload,
                               attempts=attempts, duration=duration)
        else:
            result = JobResult(spec=spec, status=STATUS_FAILED, error=error,
                               attempts=attempts, duration=duration)
        if self.obs.active:
            self.obs.emit("job.done", bench=spec.bench, label=spec.label(),
                          status=result.status, attempts=attempts,
                          duration=round(duration, 6), error=error)
            self.obs.metrics.inc("exec.jobs", status=result.status)
            self.obs.metrics.observe("exec.job_seconds", duration)
        if reporter is not None:
            reporter.update(label=spec.bench, ok=result.ok)
        return result

    def _persist(self, spec: JobSpec, payload: dict) -> None:
        """The one store write.  A cache dir that is read-only or full
        costs the record, not the sweep: the job stays ``ok`` with its
        payload, warned about once per executor."""
        try:
            self.store.store(spec, payload)
        except OSError as exc:
            if self.obs.active:
                self.obs.metrics.inc("exec.store_errors")
            if not self._store_warned:
                self._store_warned = True
                warnings.warn(
                    f"result store {self.store.root} is not writable "
                    f"({exc}); results of this sweep are kept in memory "
                    f"only", RuntimeWarning, stacklevel=2)


def run_specs(specs: Sequence[JobSpec], jobs: int = 1,
              store: Optional[ResultStore] = None,
              progress: bool = False, **kwargs) -> list[JobResult]:
    """Convenience wrapper: build an executor and run one batch.  Each
    spec runs, duplicates included: dedup is the caller's."""
    executor = ParallelExecutor(jobs=jobs, store=store, progress=progress,
                                **kwargs)
    return executor.run(specs)
