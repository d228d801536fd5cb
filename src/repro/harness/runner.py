"""Benchmark execution on top of the ``repro.exec`` engine.

Every simulation point takes one route, a batch keyed by spec hash
(:func:`prewarm_specs`; a lone :func:`run_spec` is a one-spec batch, a
sweep is :func:`run_all`).  Each spec is hashed once, and its key is
looked up once, in order:

1. an in-process dict keyed by the job spec's content hash (so figure
   7/8/10 reuse figure 6's sweep within one process);
2. the persistent :class:`~repro.exec.store.ResultStore` that
   :func:`configure_cache` set up (off until something calls it; the
   CLI does, from ``--cache-dir``/``--no-cache``), read here;
3. everything still cold goes to :func:`repro.exec.run_specs`, which
   runs it — in this process at ``jobs=1``, on warm pool workers
   otherwise, :func:`simulate_spec` either way — and writes the store.

Hits and successes land in the dict, and a sweep reads its results
back from there.  A batch with nothing cold never imports the
executor.

Cache keys are *content hashes of the resolved spec* (sorted, typed
override items — see :mod:`repro.exec.spec`), never the human-readable
label or spec equality, so two overrides that merely format or compare
equal (``1``, ``1.0``) cannot collide.  That dedup is the only one: the
executor runs every spec it is handed.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro._lazy import lazy_exports
from repro.exec.spec import JobSpec, spec_hash
from repro.exec.store import ResultStore
from repro.power import PowerBreakdown
from repro.tflex.stats import ProcStats

if TYPE_CHECKING:
    from repro.exec.executor import JobResult

#: The worker side (:mod:`repro.harness.simulate` — the one place the
#: simulator is imported) stays reachable under this module's names,
#: loaded on first use.
__getattr__, __dir__, _ = lazy_exports(__name__, {
    "simulate_spec": "simulate",
    "cached_program": "simulate",
    "build_edge_config": "simulate",
    "simulation_count": "simulate",
})

#: Store location when ``configure_cache`` is given no directory: the
#: current working directory's ``.repro-cache``.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass
class RunResult:
    """One benchmark run on one TFlex/TRIPS configuration."""

    bench: str
    label: str                 # "tflex-8", "trips", "tflex-32-ideal", ...
    num_cores: int
    cycles: int
    insts_committed: int
    stats: ProcStats
    power: PowerBreakdown
    dram_requests: int
    #: Sampled-run metadata (window counts, IPC estimate, error bound);
    #: None for full-detail runs.  See :mod:`repro.sample.engine`.
    sampling: Optional[dict] = None
    #: Fault-injection metadata (schedule, injected events, recovery
    #: reports, per-segment stats); None for fault-free runs.  See
    #: :mod:`repro.harness.simulate`.
    resil: Optional[dict] = None

    @property
    def performance(self) -> float:
        """1/cycles, or 0.0 for a degenerate run that retired nothing."""
        return 1.0 / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        data = {
            "bench": self.bench,
            "label": self.label,
            "num_cores": self.num_cores,
            "cycles": self.cycles,
            "insts_committed": self.insts_committed,
            "stats": self.stats.to_dict(),
            "power": self.power.to_dict(),
            "dram_requests": self.dram_requests,
        }
        # Only sampled/fault-injected runs carry these keys, keeping
        # full-detail payloads (and the golden fixtures built from
        # them) unchanged.
        if self.sampling is not None:
            data["sampling"] = self.sampling
        if self.resil is not None:
            data["resil"] = self.resil
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunResult":
        return RunResult(
            bench=data["bench"], label=data["label"],
            num_cores=data["num_cores"], cycles=data["cycles"],
            insts_committed=data["insts_committed"],
            stats=ProcStats.from_dict(data["stats"]),
            power=PowerBreakdown.from_dict(data["power"]),
            dram_requests=data["dram_requests"],
            sampling=data.get("sampling"),
            resil=data.get("resil"))


@dataclass
class RiscResult:
    """One benchmark run on the out-of-order RISC baseline."""

    bench: str
    cycles: int
    insts: int
    mispredictions: int

    def to_dict(self) -> dict:
        return {"bench": self.bench, "cycles": self.cycles,
                "insts": self.insts, "mispredictions": self.mispredictions}

    @staticmethod
    def from_dict(data: dict) -> "RiscResult":
        return RiscResult(bench=data["bench"], cycles=data["cycles"],
                          insts=data["insts"],
                          mispredictions=data["mispredictions"])


# ----------------------------------------------------------------------
# Cache layers
# ----------------------------------------------------------------------

_CACHE: dict[str, object] = {}          # spec hash -> result object
_STORE: Optional[ResultStore] = None    # off until configure_cache


def clear_cache() -> None:
    """Drop the in-process result and program caches (the disk store is
    untouched)."""
    _CACHE.clear()
    worker_side = sys.modules.get("repro.harness.simulate")
    if worker_side is not None:
        worker_side._PROGRAMS.clear()


def configure_cache(cache_dir: Union[str, pathlib.Path, None] = None,
                    enabled: bool = True) -> Optional[ResultStore]:
    """Point the persistent store at ``cache_dir`` (or disable it).

    ``configure_cache(enabled=False)`` turns persistence off;
    ``configure_cache()`` enables it at :data:`DEFAULT_CACHE_DIR` in the
    working directory.  Fast-forward traces follow the store (at
    ``<root>/traces``, off with it): any earlier
    :func:`~repro.sample.trace.configure_ff_trace` override is dropped.
    Returns the active store, if any.
    """
    global _STORE
    # A process that never imported the trace module has no override or
    # parsed trace to drop (a warm replay never imports it).
    traces = sys.modules.get("repro.sample.trace")
    if traces is not None:
        traces.reset_ff_trace()
    if not enabled:
        _STORE = None
    else:
        root = pathlib.Path(cache_dir if cache_dir is not None
                            else DEFAULT_CACHE_DIR)
        if root.exists() and not root.is_dir():
            raise NotADirectoryError(
                f"cache dir exists and is not a directory: {root}")
        _STORE = ResultStore(root)
    return _STORE


def get_store() -> Optional[ResultStore]:
    """The active persistent store; ``None`` when persistence is off."""
    return _STORE


def _result_from_payload(payload: dict):
    cls = RiscResult if payload["kind"] == "risc" else RunResult
    return cls.from_dict(payload["result"])


# ----------------------------------------------------------------------
# Cached execution
# ----------------------------------------------------------------------

def _note_cache_hit(spec: JobSpec, source: str) -> None:
    # Only a process that imported ``repro.obs`` can have switched it
    # on; a warm replay without --metrics/--trace-out never loads it.
    obs_lib = sys.modules.get("repro.obs")
    if obs_lib is None:
        return
    obs = obs_lib.current()
    if obs.active:
        obs.emit("run.cache_hit", bench=spec.bench, label=spec.label(),
                 source=source)
        obs.metrics.inc("run.cache_hits", source=source)


class JobFailed(RuntimeError):
    """A simulation point whose executor job exhausted its retries."""

    def __init__(self, outcome: JobResult) -> None:
        spec = outcome.spec
        super().__init__(
            f"{spec.bench}/{spec.label()} failed after "
            f"{outcome.attempts} attempt(s): {outcome.error}")
        self.spec = spec
        self.attempts = outcome.attempts
        self.error = outcome.error


def run_spec(spec: JobSpec):
    """One simulation point through the layered lookup."""
    key = spec_hash(spec)
    _prewarm({key: spec})
    return _CACHE[key]


def prewarm_specs(specs: Sequence[JobSpec], jobs: int = 1,
                  progress: bool = False) -> list[JobResult]:
    """Bring a batch of specs into the in-process cache: whatever is
    not there yet is read from the store, and the cold rest goes
    through the executor (``jobs`` workers, then store write).

    Returns the executor's outcomes for the specs it ran.  Raises
    :class:`JobFailed` for the first job that exhausted its retries —
    after every success of the batch has been cached, so a re-run only
    repeats the failures.
    """
    # Keyed by content hash, not spec equality: ``1`` and ``1.0`` are
    # equal overrides but different jobs.  A repeat runs once.
    return _prewarm({spec_hash(spec): spec for spec in specs}, jobs,
                    progress)


def _prewarm(keyed: dict, jobs: int = 1,
             progress: bool = False) -> list[JobResult]:
    """:func:`prewarm_specs` for a batch already keyed by spec hash.
    Each key is looked up once: in ``_CACHE`` (a memory hit), else in
    the store (a store hit), else it is cold."""
    store = get_store()
    cold = {}
    for key, spec in keyed.items():
        if key in _CACHE:
            _note_cache_hit(spec, "memory")
            continue
        payload = store.load(spec, key) if store is not None else None
        if payload is None:
            cold[key] = spec
            continue
        _note_cache_hit(spec, "store")
        _CACHE[key] = _result_from_payload(payload)
    if not cold:
        return []       # an all-hit batch never loads the executor

    from repro.exec.executor import run_specs

    # Shared fast-forward traces: run one recorder per (program, scale,
    # schedule) group *before* the rest, so N compositions of one
    # benchmark interpret the fast-forward trajectory once and replay
    # it N-1 times instead of racing N redundant recorders
    # (docs/PERFORMANCE.md).  Recorders of different groups still run
    # in parallel with each other.  A batch with no sampled spec has
    # nothing to record (and leaves the trace module unimported).
    rest = list(cold.values())
    recorders: list = []
    if len(rest) > 1 and any(spec.sampling for spec in rest):
        from repro.sample.trace import prewarm_partition

        recorders, rest = prewarm_partition(rest)

    # The partition hands back the same spec objects, so identity
    # finds each one's key again without re-hashing.
    key_of = {id(spec): key for key, spec in cold.items()}
    outcomes: list[JobResult] = []
    for batch in (recorders, rest):
        if batch:
            outcomes.extend(run_specs(batch, jobs=jobs, store=store,
                                      progress=progress))
    failed = None
    for outcome in outcomes:
        if not outcome.ok:
            failed = failed or outcome
            continue
        _CACHE[key_of[id(outcome.spec)]] = _result_from_payload(
            outcome.payload)
    if failed is not None:
        raise JobFailed(failed)
    return outcomes


def run_all(specs: Sequence[JobSpec], jobs: int = 1,
            progress: bool = False) -> list:
    """A sweep's results in spec order (duplicates included): one
    batch, each spec hashed once, then every point read back from the
    in-process cache."""
    keys = [spec_hash(spec) for spec in specs]
    _prewarm(dict(zip(keys, specs)), jobs, progress)
    return [_CACHE[key] for key in keys]


# ----------------------------------------------------------------------
# Public runners (call-site API unchanged)
# ----------------------------------------------------------------------

def run_edge_benchmark(name: str, ncores: int = 8, trips: bool = False,
                       scale: int = 1, overrides: Optional[dict] = None,
                       core_overrides: Optional[dict] = None,
                       sampling: Optional[dict] = None,
                       faults: Optional[tuple] = None) -> RunResult:
    """Run one benchmark on a TFlex composition (or the TRIPS baseline).

    Results are cached per resolved job spec (in-process, then the
    persistent store when enabled); architectural output is verified
    against the Python reference.
    ``overrides``/``core_overrides`` replace :class:`SystemConfig` /
    :class:`CoreConfig` fields for ablation studies.  ``sampling``
    (``{"ff_blocks", "window_blocks", "warmup_blocks"}``) switches the
    point to the sampled engine — cycles become an extrapolated
    estimate, architectural results stay exact.  ``faults`` (the
    ``spec_items()`` of a :class:`repro.resil.FaultSchedule`) injects
    those faults into the run.  The other axes (``ideal_handshake``,
    ``verify``) are set on a :class:`JobSpec` passed to :func:`run_all`,
    as :func:`~repro.harness.experiments.fig9_protocols` does.
    """
    spec = JobSpec.edge(name, ncores=ncores, trips=trips, scale=scale,
                        overrides=overrides, core_overrides=core_overrides,
                        sampling=sampling, faults=faults)
    return run_spec(spec)


def run_risc_benchmark(name: str, scale: int = 1) -> RiscResult:
    """Run one benchmark on the OoO superscalar baseline (figure 5)."""
    return run_spec(JobSpec.risc(name, scale=scale))
