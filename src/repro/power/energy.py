"""Activity-based (Wattch-style) energy model (paper section 6.3).

Dynamic energy is counted per structure access from the simulator's
activity counters; clock-tree energy is charged per cycle per powered
core (the TRIPS prototype had no clock gating, and the paper's
comparison deliberately excludes it); leakage is area-proportional and
lands at the paper's 8-10% of total power for typical runs.

Absolute joules are calibrated to plausible 130 nm / 1.5 V magnitudes,
but — as in the paper — only *relative* power across configurations is
meaningful; figure 8 plots performance²/W ratios.

The paper's power observation about the baseline falls out naturally:
at equal issue width, TRIPS clocks 16 single-issue tiles (16 FPUs)
where TFlex clocks 8 dual-issue cores (8 FPUs), so the idle-FPU clock
burden roughly doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


#: Nanojoules per access, 130 nm / 1.5 V.
DEFAULT_EVENT_NJ: dict[str, float] = {
    "alu_op": 0.045,
    "fpu_op": 0.45,
    "regfile_read": 0.03,
    "regfile_write": 0.035,
    "commit_write": 0.02,
    "window_write": 0.02,
    "icache_access": 0.09,
    "icache_tag": 0.02,
    "predictor_access": 0.05,
    "dcache_read": 0.11,
    "dcache_write": 0.13,
    "lsq_search": 0.08,
    "opn_msg": 0.01,
    "opn_hop": 0.03,
    "control_msg": 0.005,
    "control_hop": 0.015,
    "l2_access": 0.9,
    "lsq_overflow_flush": 0.0,
    "bad_address": 0.0,
}

#: Category -> contributing event counters (Table 2's power breakdown).
CATEGORIES: dict[str, tuple[str, ...]] = {
    "fetch": ("icache_access", "icache_tag", "predictor_access"),
    "execution": ("alu_op", "fpu_op", "window_write", "regfile_read",
                  "regfile_write", "commit_write"),
    "dcache": ("dcache_read", "dcache_write", "lsq_search"),
    "routers": ("opn_msg", "opn_hop", "control_msg", "control_hop"),
    "l2": ("l2_access",),
}


@dataclass(frozen=True)
class EnergyParams:
    """Calibration constants of the energy model."""

    event_nj: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_EVENT_NJ))
    #: Clock-tree energy per cycle per powered core: base pipeline
    #: latches plus the FPU's latch share (idle FPUs still clock).
    clock_core_nj: float = 0.35
    clock_fpu_nj: float = 0.18
    #: DRAM/IO energy per main-memory request.
    dram_nj: float = 12.0
    #: Leakage power per powered core (area-proportional, ~8-10% of
    #: typical total power at 130 nm).
    leakage_core_w: float = 0.02
    #: TRIPS prototype clock.
    frequency_hz: float = 366e6

    @staticmethod
    def trips() -> "EnergyParams":
        """Parameters for the TRIPS baseline's tiles.

        A single-issue TRIPS execution tile carries roughly half the
        pipeline latch count (and half the leakage area) of a dual-issue
        TFlex core, but a full FPU; with 16 tiles matching 8 TFlex cores
        in area/issue width, the chip-level clock power comes out higher
        — the paper's idle-FPU observation (section 6.3)."""
        return EnergyParams(clock_core_nj=0.18, leakage_core_w=0.01)


@dataclass
class PowerBreakdown:
    """Average power by category over one run (Table 2, power half)."""

    watts: dict[str, float]
    cycles: int
    num_cores: int

    @property
    def total(self) -> float:
        return sum(self.watts.values())

    def to_dict(self) -> dict:
        return {"watts": dict(self.watts), "cycles": self.cycles,
                "num_cores": self.num_cores}

    @staticmethod
    def from_dict(data: dict) -> "PowerBreakdown":
        return PowerBreakdown(watts=dict(data["watts"]),
                              cycles=data["cycles"],
                              num_cores=data["num_cores"])

    def table(self) -> str:
        lines = [f"Average power over {self.cycles} cycles on {self.num_cores} cores (W):"]
        for name, value in self.watts.items():
            lines.append(f"  {name:12s} {value:7.3f}")
        lines.append(f"  {'total':12s} {self.total:7.3f}")
        return "\n".join(lines)


class EnergyModel:
    """Computes energy/power from simulator activity counters."""

    def __init__(self, params: Optional[EnergyParams] = None) -> None:
        self.params = params if params is not None else EnergyParams()

    def breakdown(self, energy_events, cycles: int, num_cores: int,
                  dram_requests: int = 0,
                  fpus_per_core: int = 1) -> PowerBreakdown:
        """Average power by category.

        Args:
            energy_events: Counter of activity events (ProcStats.energy_events).
            cycles: Run length in cycles.
            num_cores: Powered (participating) cores.
            dram_requests: Main-memory accesses during the run.
            fpus_per_core: 1 for TFlex cores and TRIPS tiles; the TRIPS
                delta comes from tile count at equal issue width.
        """
        params = self.params
        seconds = max(cycles, 1) / params.frequency_hz
        watts: dict[str, float] = {}
        for category, events in CATEGORIES.items():
            joules = sum(energy_events.get(e, 0) * params.event_nj[e] * 1e-9
                         for e in events)
            watts[category] = joules / seconds
        watts["dram/io"] = dram_requests * params.dram_nj * 1e-9 / seconds
        clock_nj = params.clock_core_nj + fpus_per_core * params.clock_fpu_nj
        watts["clock"] = (clock_nj * 1e-9 * num_cores * cycles) / seconds
        watts["leakage"] = params.leakage_core_w * num_cores
        return PowerBreakdown(watts=watts, cycles=cycles, num_cores=num_cores)

    @staticmethod
    def perf2_per_watt(cycles: int, watts: float) -> float:
        """Figure 8 metric: performance² per watt (inverse energy-delay²
        up to constants), 0.0 for a run that retired nothing."""
        if not cycles:
            return 0.0
        return (1.0 / cycles) ** 2 / watts
