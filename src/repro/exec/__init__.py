"""``repro.exec`` — parallel experiment engine with a persistent store.

Every point of the paper's evaluation (figures 5-10) is one simulation
of (benchmark x composition x config).  This package factors that point
into three composable pieces:

* :mod:`repro.exec.spec` — :class:`JobSpec`, a pure, hashable
  description of one simulation point, plus :func:`spec_hash`, its
  stable content address.
* :mod:`repro.exec.store` — the one content-addressed record store
  (:class:`BlobStore`; :class:`ResultStore` is the same store with a
  plain-JSON codec, keyed by job spec) with corruption-tolerant reads,
  and ``atomic_write``, the only temp-file + fsync + rename sequence.
* :mod:`repro.exec.pool` — :class:`WorkerPool`, persistent warm worker
  processes served over a request/reply pipe, with a terminate→kill
  watchdog and transparent respawn.
* :mod:`repro.exec.sched` — :class:`DurationBook` duration estimates
  and the longest-job-first dispatch order they feed.
* :mod:`repro.exec.executor` — :class:`ParallelExecutor`, the one
  dispatch loop (warm pool, or an in-process slot at ``jobs=1``) with
  per-job timeout, duplicate-spec coalescing, one retry on worker
  crash, and a live progress/ETA reporter.

The harness (:mod:`repro.harness.runner`) puts its in-process result
dict in front of the executor, so warm-cache replays of any figure driver are
instant and ``--jobs N`` parallelises cold sweeps.  See
``docs/EXECUTION.md``.
"""

from repro.exec.spec import SCHEMA_VERSION, JobSpec, spec_hash
from repro.exec.store import (BlobStore, ResultStore, advisory_lock,
                              gc_cache, parse_size)
from repro.exec.progress import ProgressReporter
from repro.exec.sched import DurationBook, job_family, order_indices
from repro.exec.worker import execute_spec, pool_worker_main
from repro.exec.pool import PoolEvent, WorkerPool
from repro.exec.executor import JobResult, ParallelExecutor, run_specs

__all__ = [
    "SCHEMA_VERSION",
    "JobSpec",
    "spec_hash",
    "BlobStore",
    "ResultStore",
    "advisory_lock",
    "gc_cache",
    "parse_size",
    "ProgressReporter",
    "DurationBook",
    "job_family",
    "order_indices",
    "execute_spec",
    "pool_worker_main",
    "PoolEvent",
    "WorkerPool",
    "JobResult",
    "ParallelExecutor",
    "run_specs",
]
