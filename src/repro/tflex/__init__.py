"""TFlex: the Composable Lightweight Processor microarchitecture.

The paper's primary contribution: 32 lightweight dual-issue EDGE cores
that aggregate dynamically — without binary changes — into logical
processors of 1 to 32 cores, using fully distributed protocols for
fetch, next-block prediction, operand routing, memory disambiguation,
and commit (no structure is physically shared between cores).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CoreConfig": "config",
    "SystemConfig": "config",
    "TFLEX": "config",
    "MAX_CYCLES": "config",
    "tflex_config": "config",
    "trips_config": "config",
    "EventQueue": "events",
    "BlockInstance": "instance",
    "BlockState": "instance",
    "pack": "placement",
    "rectangle": "placement",
    "ComposedProcessor": "processor",
    "ProcStats": "stats",
    "SimulationDeadlock": "system",
    "TFlexSystem": "system",
    "run_program": "system",
    "BlockTrace": "trace",
    "render_timeline": "trace",
})
