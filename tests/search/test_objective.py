"""Objectives: score formulas agree with the figure drivers' models."""

from types import SimpleNamespace

import pytest

from repro.power import AreaModel, EnergyModel
from repro.search import OBJECTIVE_NAMES, OBJECTIVES, get_objective


def fake_run(cycles: int, num_cores: int = 8, watts: float = 2.0):
    """The duck-typed slice of RunResult the objectives read."""
    return SimpleNamespace(
        cycles=cycles, num_cores=num_cores, label=f"tflex-{num_cores}",
        performance=(1.0 / cycles if cycles else 0.0),
        power=SimpleNamespace(total=watts))


class TestRegistry:
    def test_names_cover_figures(self):
        assert OBJECTIVE_NAMES == ("speedup", "perf_per_area",
                                   "perf2_per_watt")
        assert set(OBJECTIVES) == set(OBJECTIVE_NAMES)
        figures = {OBJECTIVES[n].figure for n in OBJECTIVE_NAMES}
        assert figures == {"fig6", "fig7", "fig8"}

    def test_get_objective_unknown_is_actionable(self):
        with pytest.raises(ValueError, match="speedup"):
            get_objective("bogus")


class TestScores:
    def test_speedup_is_performance(self):
        assert get_objective("speedup")(fake_run(1000)) == 1.0 / 1000

    def test_perf_per_area_matches_area_model(self):
        run = fake_run(1000, num_cores=16)
        expected = 1.0 / (1000 * AreaModel().processor_mm2(16))
        assert get_objective("perf_per_area")(run) == pytest.approx(expected)

    def test_perf_per_area_penalizes_size(self):
        """Same cycles on a bigger composition must score lower —
        that is what makes figure 7's BEST land small."""
        obj = get_objective("perf_per_area")
        assert obj(fake_run(1000, num_cores=1)) > obj(fake_run(1000,
                                                              num_cores=32))

    def test_perf_per_area_charges_trips_its_fixed_area(self):
        """Same function as figure 7's: a TRIPS run costs the area of
        8 TFlex cores whatever its tile count."""
        run = fake_run(1000, num_cores=16)
        run.label = "trips"
        assert (get_objective("perf_per_area")(run)
                == AreaModel().perf_per_area(1000, 8))

    def test_perf2_per_watt_matches_energy_model(self):
        run = fake_run(1000, watts=3.5)
        assert (get_objective("perf2_per_watt")(run)
                == EnergyModel.perf2_per_watt(1000, 3.5))

    def test_zero_cycle_runs_score_zero(self):
        for name in OBJECTIVE_NAMES:
            assert get_objective(name)(fake_run(0)) == 0.0
