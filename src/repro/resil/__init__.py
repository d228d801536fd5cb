"""repro.resil — fault injection and dynamic recomposition.

The paper's composability argument cuts both ways: if any power-of-two
rectangle of cores can be a processor, then losing a core should cost
one core's worth of capacity, not a processor.  This package makes that
claim testable:

* :mod:`repro.resil.faults` — deterministic, seeded fault schedules
  (dead-at-boot cores, transient mid-run core deaths, degraded NoC
  links) with exact JSON round-trip and content-hash-stable
  ``JobSpec`` encoding;
* :mod:`repro.resil.injector` — applies a schedule to a live system
  through narrow cold-path seams (fault-free runs stay bit-identical);
* :mod:`repro.resil.recompose` — on core loss, abandons in-flight
  blocks, captures architectural + warm state through the sampled-
  simulation transfer surfaces, re-forms the composition on surviving
  cores, and resumes.

There is no driver here: :func:`repro.harness.simulate.simulate_spec`
runs every full-detail edge spec under its schedule (empty when
``JobSpec.faults`` is), and this package imports nothing from
:mod:`repro.harness`.
"""

from repro.resil.faults import (FaultEvent, FaultSchedule, KINDS, NETS,
                                parse_inject)
from repro.resil.injector import FaultInjector
from repro.resil.recompose import (CompositionLost, RecompositionEngine,
                                   RecoveryReport, choose_composition,
                                   transfer_ras)

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "KINDS",
    "NETS",
    "parse_inject",
    "FaultInjector",
    "CompositionLost",
    "RecompositionEngine",
    "RecoveryReport",
    "choose_composition",
    "transfer_ras",
]
