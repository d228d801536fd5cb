"""Table 2: component areas and average power breakdown, TRIPS versus
an 8-core TFlex processor.

Shape reproduced: the two processors occupy equal area by construction
(the paper's anchor); the clock tree is the dominant power category on
both (no clock gating in the prototype); leakage sits near 8-10%; and
TRIPS burns more total power at equal issue width — it clocks sixteen
single-issue tiles (sixteen FPUs) against TFlex's eight dual-issue
cores.
"""

from repro.harness import table2_area_power
from repro.power import AreaModel

from benchmarks.conftest import save_result


def test_table2_area_power(fig6, results_dir):
    result = table2_area_power(fig6)
    save_result(results_dir, "table2_area_power", result.render())

    # Area anchors.
    area = AreaModel()
    assert abs(area.trips_mm2 - area.processor_mm2(8)) < 1e-9
    assert area.processor_mm2(8) + area.l2_mm2(1.5) < 18 * 18

    tflex_total = sum(result.tflex_power.values())
    trips_total = sum(result.trips_power.values())

    # Clock dominates both breakdowns (prototype lacks clock gating).
    assert result.tflex_power["clock"] == max(result.tflex_power.values())
    assert result.trips_power["clock"] == max(result.trips_power.values())

    # Leakage lands near the paper's 8-10% band.
    assert 0.04 < result.tflex_power["leakage"] / tflex_total < 0.2

    # TRIPS burns more power at equal area/issue width (2x FPU clocks).
    assert trips_total > tflex_total
