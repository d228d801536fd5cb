"""Dynamic core reallocation over a job stream (paper section 8).

The paper envisions run-time software growing and shrinking processors
as threads arrive, finish, and shift behaviour.  This module simulates
that control loop analytically: jobs progress at rates given by their
cores->performance functions (measured once, figure-6 style), and the
controller re-solves the allocation at every arrival and departure.

Policies:

* ``composable`` — the CLP: optimal DP allocation, re-run per event;
* ``symmetric`` — granularity re-chosen per event but equal for all
  active jobs (the VB-CMP discipline);
* ``fixed-k`` — a conventional CMP of k-core processors; jobs beyond
  the processor count wait in a FIFO queue.

Time is continuous; "work" is measured in *alone-seconds*: a job of
work 1.0 takes 1.0 time units when running at its best composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sched.allocator import (
    ALLOWED_SIZES,
    SpeedupTable,
    optimal_assignment,
    symmetric_best_assignment,
)


#: The chip the controller allocates: the paper's 32-core TFlex array.
CHIP_CORES = 32


@dataclass
class Job:
    """One thread: which benchmark's speedup curve it follows, when it
    arrives, and how much work it carries (in alone-seconds)."""

    name: str
    bench: str
    arrival: float
    work: float

    # Filled by the simulation.
    start: Optional[float] = None
    finish: Optional[float] = None
    remaining: float = 0.0

    @property
    def turnaround(self) -> float:
        return self.finish - self.arrival

    @property
    def slowdown(self) -> float:
        """Turnaround relative to running alone with no waiting."""
        return self.turnaround / self.work


@dataclass
class AllocationEvent:
    """One reallocation decision in the trace."""

    time: float
    running: dict[str, int]            # job name -> cores granted
    waiting: list[str]
    cores_used: int


@dataclass
class ScheduleResult:
    jobs: list[Job]
    trace: list[AllocationEvent]
    makespan: float

    @property
    def mean_turnaround(self) -> float:
        return sum(j.turnaround for j in self.jobs) / len(self.jobs)

    @property
    def mean_slowdown(self) -> float:
        return sum(j.slowdown for j in self.jobs) / len(self.jobs)

    def utilization(self, total_cores: int) -> float:
        """Core-time granted / (total cores x makespan)."""
        if not self.trace or self.makespan == 0:
            return 0.0
        area = 0.0
        for i, event in enumerate(self.trace):
            end = self.trace[i + 1].time if i + 1 < len(self.trace) else self.makespan
            area += event.cores_used * (end - event.time)
        return area / (total_cores * self.makespan)


class ReallocationController:
    """Event-driven analytical scheduler simulation."""

    def __init__(self, table: SpeedupTable, policy: str = "composable",
                 granularity: int = 4) -> None:
        if policy not in ("composable", "symmetric", "fixed"):
            raise ValueError(f"unknown policy {policy!r}")
        self.table = table
        self.policy = policy
        self.granularity = granularity

    # ------------------------------------------------------------------
    # Allocation policies
    # ------------------------------------------------------------------

    def _allocate(self, active: list[Job]) -> tuple[dict[str, int], list[Job]]:
        """(granted cores per job name, jobs left waiting)."""
        if not active:
            return {}, []
        if self.policy == "fixed":
            processors = CHIP_CORES // self.granularity
            running = active[:processors]
            waiting = active[processors:]
            return {j.name: self.granularity for j in running}, waiting

        # Elastic policies admit as many jobs as fit at minimum size.
        admitted = CHIP_CORES // min(ALLOWED_SIZES)
        running = active[:admitted]
        waiting = active[admitted:]
        apps = [j.bench for j in running]
        if self.policy == "composable":
            __, sizes = optimal_assignment(apps, self.table, CHIP_CORES)
        else:
            __, sizes = symmetric_best_assignment(apps, self.table, CHIP_CORES)
            # symmetric_best may schedule fewer jobs than running.
            while len(sizes) < len(running):
                waiting.insert(0, running.pop())
                apps = [j.bench for j in running]
                __, sizes = symmetric_best_assignment(apps, self.table,
                                                      CHIP_CORES)
        return {j.name: k for j, k in zip(running, sizes)}, waiting

    def _rate(self, job: Job, cores: int) -> float:
        """Progress in alone-seconds per second at this allocation."""
        return self.table.performance(job.bench, cores) / self.table.alone(job.bench)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> ScheduleResult:
        """Simulate the job stream, re-solving the allocation at every
        arrival and departure."""
        jobs = sorted(jobs, key=lambda j: (j.arrival, j.name))
        for job in jobs:
            job.remaining = job.work
            job.start = None
            job.finish = None
        pending = list(jobs)
        active: list[Job] = []
        trace: list[AllocationEvent] = []
        now = 0.0

        while pending or active:
            if not active and pending:
                now = max(now, pending[0].arrival)
            while pending and pending[0].arrival <= now + 1e-12:
                active.append(pending.pop(0))

            granted, waiting = self._allocate(active)
            rates = {}
            for job in active:
                cores = granted.get(job.name, 0)
                rates[job.name] = self._rate(job, cores) if cores else 0.0
                if cores and job.start is None:
                    job.start = now
            trace.append(AllocationEvent(
                time=now, running=dict(granted),
                waiting=[j.name for j in waiting],
                cores_used=sum(granted.values())))

            # Next event: a completion or the next arrival.
            horizon = pending[0].arrival if pending else float("inf")
            next_done = float("inf")
            for job in active:
                if rates[job.name] > 0:
                    next_done = min(next_done, now + job.remaining / rates[job.name])
            if next_done == float("inf") and horizon == float("inf"):
                raise RuntimeError("no progress: all active jobs starved")
            step_to = min(next_done, horizon)

            for job in active:
                job.remaining -= rates[job.name] * (step_to - now)
            now = step_to
            finished = [j for j in active if j.remaining <= 1e-9]
            for job in finished:
                job.finish = now
                active.remove(job)

        return ScheduleResult(jobs=list(jobs), trace=trace, makespan=now)
