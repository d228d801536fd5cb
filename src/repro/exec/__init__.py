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
  processes served over a request/reply pipe, with transparent respawn
  and a terminate→kill escalation on stop.
* :mod:`repro.exec.executor` — :class:`ParallelExecutor`, the one
  dispatch loop (warm pool, or an in-process slot at ``jobs=1``; cold
  jobs go out in input order) with one retry when a job raises or its
  worker crashes, and a live progress/ETA reporter.

The harness (:mod:`repro.harness.runner`) puts its in-process result
dict in front of the executor, so warm-cache replays of any figure driver are
instant and ``--jobs N`` parallelises cold sweeps.  See
``docs/EXECUTION.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SCHEMA_VERSION": "spec",
    "JobSpec": "spec",
    "spec_hash": "spec",
    "BlobStore": "store",
    "ResultStore": "store",
    "advisory_lock": "store",
    "gc_cache": "store",
    "parse_size": "store",
    "ProgressReporter": "progress",
    "execute_spec": "worker",
    "pool_worker_main": "worker",
    "PoolEvent": "worker",
    "WorkerPool": "pool",
    "JobResult": "executor",
    "ParallelExecutor": "executor",
    "run_specs": "executor",
})
