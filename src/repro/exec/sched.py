"""Adaptive sweep scheduling: longest-job-first from learned durations.

A sweep's wall-clock is dominated by its stragglers: with ``jobs``
workers and FIFO dispatch, a long point landing last serialises the
whole tail.  Classic makespan theory (LPT list scheduling) says to
dispatch the *longest* jobs first — but the executor only knows job
durations after running them.  :class:`DurationBook` closes the loop:
every completed job feeds an exponentially-weighted moving average
keyed by the job's *family* (benchmark x machine configuration x
scale), persisted as a sidecar next to the result store so later CLI
invocations start warm.

:func:`order_indices` turns a batch into a dispatch order: jobs with a
known family estimate run longest first; jobs from families never seen
run *before* them, in input order (an unknown job may be the longest
of all, and a cold book degrades to plain FIFO).

The estimates only reorder dispatch; they never gate or drop work, so
a wildly wrong estimate costs wall-clock, never correctness.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Sequence, Union

from repro.exec.spec import JobSpec
from repro.exec.store import advisory_lock, atomic_write

#: EWMA weight of the newest observation.  High enough to track a
#: machine change within a few sweeps, low enough that one descheduled
#: outlier does not invert the ordering.
EWMA_ALPHA = 0.4

#: Sidecar schema version; unknown versions are ignored (cold book).
BOOK_SCHEMA = 1

#: Sidecar file name, resolved relative to a result-store root.
BOOK_NAME = "durations.json"


def job_family(spec: JobSpec) -> str:
    """The duration-estimate bucket for one spec.

    Benchmark, machine kind, composition size (or ``trips``), scale,
    and the sampled/fault-injected mode flags — the knobs that move
    runtime by integer factors.  Config overrides are deliberately
    *not* part of the key: ablation variants of a point usually run
    within a few percent of the base config, and folding them together
    is what lets a fresh ablation sweep start with useful estimates.
    """
    if spec.kind == "risc":
        machine = "risc"
    elif spec.trips:
        machine = "trips"
    else:
        machine = f"tflex{spec.ncores}"
    tags = ""
    if spec.sampling:
        # Fidelity matters: a coarse search rung (long fast-forwards)
        # and an accuracy-oriented run differ by integer factors, so
        # the fast-forward length joins the key.  Window/warmup shifts
        # move runtime by percents, not factors — folded together.
        ff = spec.sampling_dict().get("ff_blocks")
        tags += f"+sampled{ff}" if ff else "+sampled"
    if spec.faults:
        tags += "+faults"
    return f"{spec.bench}|{machine}|x{spec.scale}{tags}"


class DurationBook:
    """Per-family EWMA duration estimates with a persistent sidecar.

    With ``path=None`` the book is purely in-memory (estimates learned
    this run still help this run's retries — and the pool's dispatch
    order on later batches).  With a path, :meth:`flush` merges the
    session's estimates into the sidecar under an advisory file lock,
    so concurrent CLI invocations sharing one cache directory cannot
    shred each other's updates.
    """

    def __init__(self, path: Union[str, pathlib.Path, None] = None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._estimates: dict[str, float] = self._read()
        self._touched: set[str] = set()

    @staticmethod
    def for_store_root(root: Union[str, pathlib.Path, None]) -> "DurationBook":
        """The book co-located with a result store (or an in-memory one
        when there is no store to sit next to)."""
        if root is None:
            return DurationBook()
        return DurationBook(pathlib.Path(root) / BOOK_NAME)

    # -- estimates -----------------------------------------------------

    def estimate(self, family: str) -> Optional[float]:
        return self._estimates.get(family)

    def estimate_for(self, spec: JobSpec) -> Optional[float]:
        return self.estimate(job_family(spec))

    def note(self, family: str, seconds: float) -> float:
        """Fold one observed duration into the family's EWMA."""
        seconds = max(float(seconds), 0.0)
        previous = self._estimates.get(family)
        value = (seconds if previous is None
                 else EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * previous)
        self._estimates[family] = value
        self._touched.add(family)
        return value

    def note_spec(self, spec: JobSpec, seconds: float) -> float:
        return self.note(job_family(spec), seconds)

    def __len__(self) -> int:
        return len(self._estimates)

    # -- persistence ---------------------------------------------------

    def _read(self) -> dict[str, float]:
        if self.path is None:
            return {}
        try:
            with open(self.path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError, UnicodeDecodeError):
            return {}
        if (not isinstance(data, dict)
                or data.get("schema") != BOOK_SCHEMA
                or not isinstance(data.get("families"), dict)):
            return {}
        return {str(k): float(v) for k, v in data["families"].items()
                if isinstance(v, (int, float))}

    def flush(self) -> None:
        """Merge this session's touched families into the sidecar.

        Read-merge-write under the store's advisory lock: families this
        session never ran keep whatever a concurrent invocation wrote.
        """
        if self.path is None or not self._touched:
            return
        with advisory_lock(self.path.with_suffix(".lock")):
            merged = self._read()
            for family in sorted(self._touched):
                merged[family] = round(self._estimates[family], 6)
            record = {"schema": BOOK_SCHEMA, "families": merged}
            atomic_write(self.path, json.dumps(
                record, sort_keys=True).encode("utf-8"))
        self._touched.clear()


def order_indices(specs: Sequence[JobSpec], todo: Sequence[int],
                  book: Optional[DurationBook]) -> list[int]:
    """Dispatch order over ``todo`` (indices into ``specs``).

    Unknown-duration jobs run first (input order), then known families
    longest-first — so a cold book is exactly FIFO and a warm one
    fronts the stragglers.
    """
    if book is None or len(book) == 0:
        return list(todo)
    position = {index: rank for rank, index in enumerate(todo)}

    def sort_key(index: int) -> tuple:
        estimate = book.estimate_for(specs[index])
        if estimate is None:
            return (0, position[index], 0.0)
        return (1, 0, -estimate)

    return sorted(todo, key=sort_key)
