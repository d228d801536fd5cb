"""Component-level area model (paper section 6.2, Table 2).

Areas are per-component mm² for one TFlex core at 130 nm, calibrated to
the paper's anchors: an 18 mm x 18 mm die holds 8 TFlex cores plus
1.5 MB of L2, and an 8-core TFlex processor matches the TRIPS processor
in area and issue width.  Figure 7 uses only *relative* processor areas
(performance / (cycles x mm²)), which these anchors pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: mm² per component of one TFlex core (130 nm, post-synthesis scale).
CORE_COMPONENT_AREAS: dict[str, float] = {
    "register file": 1.2,
    "instruction cache": 1.8,
    "data cache": 2.2,
    "load/store queue": 1.6,
    "block predictor": 0.9,
    "instruction window + INT": 4.5,
    "floating-point unit": 5.5,
    "operand/control routers": 1.8,
    "block control": 2.0,
    "clock + global wiring": 3.5,
}

#: mm² per megabyte of L2 at 130 nm.
L2_MM2_PER_MB = 22.0


@dataclass(frozen=True)
class AreaModel:
    """Processor- and chip-level areas derived from the component table."""

    components: dict[str, float] = field(
        default_factory=lambda: dict(CORE_COMPONENT_AREAS))

    @property
    def core_mm2(self) -> float:
        """One TFlex core."""
        return sum(self.components.values())

    def processor_mm2(self, num_cores: int) -> float:
        """A composed processor of N cores."""
        return num_cores * self.core_mm2

    @property
    def trips_mm2(self) -> float:
        """The TRIPS processor: same area as 8 TFlex cores (paper 6.1)."""
        return self.processor_mm2(8)

    def l2_mm2(self, megabytes: float) -> float:
        return megabytes * L2_MM2_PER_MB

    def chip_mm2(self, num_cores: int = 32, l2_megabytes: float = 4.0) -> float:
        """Whole-chip area (core array + L2)."""
        return self.processor_mm2(num_cores) + self.l2_mm2(l2_megabytes)

    def perf_per_area(self, cycles: int, num_cores: int,
                      trips: bool = False) -> float:
        """Figure 7 metric: 1 / (cycles x mm²), 0.0 for a run that
        retired nothing.  The TRIPS baseline is charged its fixed area,
        not its tile count."""
        if not cycles:
            return 0.0
        mm2 = self.trips_mm2 if trips else self.processor_mm2(num_cores)
        return 1.0 / (cycles * mm2)

    def table(self) -> str:
        """Human-readable component table (Table 2, area half)."""
        lines = ["Component areas per TFlex core (mm^2, 130 nm):"]
        for name, mm2 in self.components.items():
            lines.append(f"  {name:28s} {mm2:6.2f}")
        lines.append(f"  {'core total':28s} {self.core_mm2:6.2f}")
        lines.append(f"  8-core TFlex processor        {self.processor_mm2(8):6.2f}")
        lines.append(f"  TRIPS processor (same area)   {self.trips_mm2:6.2f}")
        lines.append(f"  32-core chip + 4MB L2         {self.chip_mm2():6.2f}")
        return "\n".join(lines)
