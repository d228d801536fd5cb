"""Figure 8: power efficiency (performance²/W), normalized to one core.

Paper claims reproduced in shape: the most power-efficient composition
sits between the area-efficiency peak (1-2 cores) and the performance
peak; choosing the composition per application beats any fixed TFlex
configuration (paper: +22%); and a fixed 8-core TFlex beats the TRIPS
baseline (paper: ~64%, mostly the extra idle FPUs' clock burden).
"""

from repro.harness import fig8_power

from benchmarks.conftest import save_result


def test_fig8_power(fig6, results_dir):
    result = fig8_power(fig6)
    save_result(results_dir, "fig8_power", result.render())

    # The best fixed configuration is an intermediate size (paper: 8).
    best_fixed = result.best_fixed_label()
    assert best_fixed in ("tflex-2", "tflex-4", "tflex-8", "tflex-16"), best_fixed

    # Per-application choice beats any fixed configuration (paper: +22%).
    assert result.mean_best() > result.mean_normalized(best_fixed) * 1.02

    # 8-core TFlex is more power-efficient than TRIPS (paper: +64%).
    assert result.mean_normalized("tflex-8") > result.mean_normalized("trips") * 1.2
