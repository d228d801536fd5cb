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
  cores, and resumes;
* :mod:`repro.resil.run` — the ``RunResult``-producing driver behind
  ``JobSpec.faults`` and the ``repro resil`` degradation experiment.
"""

from repro.resil.faults import (FaultEvent, FaultSchedule, KINDS, NETS,
                                parse_inject)
from repro.resil.injector import FaultInjector
from repro.resil.recompose import (CompositionLost, RecompositionEngine,
                                   RecoveryReport, choose_composition,
                                   transfer_ras)
from repro.resil.run import ResilientRun, run_resilient

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
    "ResilientRun",
    "run_resilient",
]
