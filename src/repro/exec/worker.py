"""Worker-side job execution.

Two entry points:

* :func:`execute_spec` runs one :class:`~repro.exec.spec.JobSpec` to a
  JSON-safe payload dict.  It is a module-level function so it pickles
  cleanly into ``multiprocessing`` children, and it deliberately
  bypasses every *result* cache layer — result-cache policy
  (in-process dict, disk store) lives in the parent; workers only
  simulate.  (Pure build caches — decoded workload programs — stay
  warm inside the worker process across jobs; see
  :func:`repro.harness.simulate.cached_program`.)
* :func:`pool_worker_main` is the long-lived warm-pool loop: import
  once, then serve ``job`` requests over a duplex pipe until told to
  shut down (or the pipe dies).  See :mod:`repro.exec.pool`
  for the parent side and the protocol invariants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.exec.spec import JobSpec

# -- request/reply protocol (parent -> worker | worker -> parent) ------
#
# Every message is a plain tuple whose first element is one of these
# tags.  Requests:   (MSG_JOB, tag, spec) | (MSG_SHUTDOWN,)
# Reply:             (REPLY_RESULT, tag, "ok"|"error", payload|message,
#                     service seconds, idle seconds) — both on the
#                    worker's clock: the job itself, and the time blocked
#                    in recv() since the previous reply.
MSG_JOB = "job"
MSG_SHUTDOWN = "shutdown"
REPLY_RESULT = "result"

#: The serving pool worker's request pipe, while :func:`pool_worker_main`
#: is running.  Lets worker-side code (and fault-injection tests) reach
#: the transport — e.g. to stream progress, or to simulate a pipe that
#: breaks mid-send.
_ACTIVE_CONN = None


def current_connection():
    """The request pipe of the running pool worker, or ``None`` outside
    :func:`pool_worker_main`."""
    return _ACTIVE_CONN


@dataclass
class PoolEvent:
    """One finished job as observed by the pool."""

    tag: object                 # the caller's dispatch tag (job index)
    ok: bool
    value: object               # payload dict | error string
    duration: float             # service seconds on the worker's clock
                                # (the parent's, from dispatch, if lost)
    #: Why a failed job failed: ``crash`` (the process died or its pipe
    #: broke) or ``exception`` (the job raised); None when ``ok``.
    reason: Optional[str] = None


def load_worker_side():
    """The simulator stack, imported on the first cold spec — nothing
    lighter (``--help``, a warm replay) pays for it.  A pool's parent
    calls this before its first fork, so forked workers inherit the
    modules instead of each re-importing them (~0.2 s per worker per
    pool; a search boots a pool per rung)."""
    from repro.harness import simulate

    return simulate


def execute_spec(spec: JobSpec) -> dict:
    """Simulate one job and return its serialised result payload."""
    result = load_worker_side().simulate_spec(spec)
    return {"kind": spec.kind, "result": result.to_dict()}


def pool_worker_main(conn, worker_fn) -> None:
    """Serve jobs over ``conn`` until shutdown (the warm-pool body).

    The loop never lets a job exception kill the process: failures are
    reported as ``("result", tag, "error", message)`` and the worker
    stays warm for the next job.  Only transport death (pipe closed or
    unwritable — the parent is gone) or an explicit shutdown request
    ends the loop.  ``os._exit``/signals still kill the process, which
    the parent observes through its sentinel as a crash and respawns.
    """
    global _ACTIVE_CONN
    _ACTIVE_CONN = conn
    try:
        idle_since = time.monotonic()
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == MSG_SHUTDOWN:
                return
            __, tag, spec = message
            started = time.monotonic()
            try:
                status, value = "ok", worker_fn(spec)
            except BaseException as exc:
                status, value = "error", f"{type(exc).__name__}: {exc}"
            timing = (time.monotonic() - started, started - idle_since)
            try:
                conn.send((REPLY_RESULT, tag, status, value, *timing))
            except (OSError, ValueError):
                return
            except Exception as exc:
                # The payload itself would not pickle: report that as
                # the job's failure instead of dying with a warm cache.
                try:
                    conn.send((REPLY_RESULT, tag, "error",
                               f"worker result not serialisable: "
                               f"{type(exc).__name__}: {exc}", *timing))
                except Exception:
                    return
            idle_since = time.monotonic()
    finally:
        _ACTIVE_CONN = None
        try:
            conn.close()
        except OSError:
            pass
