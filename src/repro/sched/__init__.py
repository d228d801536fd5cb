"""Core-to-thread allocation for multiprogrammed workloads (figure 10)."""

from repro.sched.allocator import (
    SpeedupTable,
    weighted_speedup,
    optimal_assignment,
    fixed_cmp_assignment,
    symmetric_best_assignment,
    brute_force_assignment,
)
from repro.sched.controller import (
    AllocationEvent,
    Job,
    ReallocationController,
    ScheduleResult,
)

__all__ = [
    "SpeedupTable",
    "weighted_speedup",
    "optimal_assignment",
    "fixed_cmp_assignment",
    "symmetric_best_assignment",
    "brute_force_assignment",
    "AllocationEvent",
    "Job",
    "ReallocationController",
    "ScheduleResult",
]
