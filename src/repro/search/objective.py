"""Search objectives: the scalar a BEST search maximizes.

One :class:`Objective` per figure of the paper's BEST lines:

* ``speedup`` — raw performance (1/cycles), figure 6.  Normalizing by
  the one-core run divides every candidate's score by the same
  per-benchmark constant, so the raw score has the identical argmax.
* ``perf_per_area`` — performance per mm^2 of the composition's cores,
  figure 7 (:meth:`repro.power.AreaModel.perf_per_area`, the function
  ``Fig7Result`` calls).
* ``perf2_per_watt`` — performance^2 per watt (the ED^-1 proxy),
  figure 8 (:meth:`repro.power.EnergyModel.perf2_per_watt`, the
  function ``Fig8Result`` calls).

Scores are pure functions of a :class:`~repro.harness.runner.RunResult`
— sampled and detailed evaluations of the same candidate score through
the same code, which is what lets the halving rungs compare across
fidelity tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.power import AreaModel, EnergyModel

#: Objective names, in figure order (also the CLI's ``--objective``
#: vocabulary; ``all`` expands to this tuple).
OBJECTIVE_NAMES = ("speedup", "perf_per_area", "perf2_per_watt")


@dataclass(frozen=True)
class Objective:
    """A named, maximized score over one run."""

    name: str
    figure: str
    score: Callable = field(repr=False)

    def __call__(self, run) -> float:
        return self.score(run)


def _speedup(run) -> float:
    return run.performance


def _perf_per_area(run, area: AreaModel = AreaModel()) -> float:
    return area.perf_per_area(run.cycles, run.num_cores,
                              trips=run.label == "trips")


def _perf2_per_watt(run) -> float:
    return EnergyModel.perf2_per_watt(run.cycles, run.power.total)


OBJECTIVES: dict[str, Objective] = {
    "speedup": Objective("speedup", "fig6", _speedup),
    "perf_per_area": Objective("perf_per_area", "fig7", _perf_per_area),
    "perf2_per_watt": Objective("perf2_per_watt", "fig8", _perf2_per_watt),
}


def get_objective(name: str) -> Objective:
    """Look an objective up by name, with an actionable error."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; expected one of "
            f"{OBJECTIVE_NAMES}") from None
