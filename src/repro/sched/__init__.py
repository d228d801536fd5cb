"""Core-to-thread allocation for multiprogrammed workloads (figure 10)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SpeedupTable": "allocator",
    "weighted_speedup": "allocator",
    "optimal_assignment": "allocator",
    "fixed_cmp_assignment": "allocator",
    "symmetric_best_assignment": "allocator",
    "brute_force_assignment": "allocator",
    "AllocationEvent": "controller",
    "Job": "controller",
    "ReallocationController": "controller",
    "ScheduleResult": "controller",
})
