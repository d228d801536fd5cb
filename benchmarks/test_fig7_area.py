"""Figure 7: performance per area (1/(cycles x mm²)).

Paper claims reproduced in shape: area efficiency peaks at one or two
cores for most benchmarks (performance grows slower than area beyond
that), and per-application BEST TFlex delivers a large (paper: 3.4x)
area-efficiency advantage over the fixed TRIPS processor.
"""

from collections import Counter

from repro.harness import fig7_area

from benchmarks.conftest import save_result


def test_fig7_area(fig6, results_dir):
    result = fig7_area(fig6)
    save_result(results_dir, "fig7_area", result.render())

    # Area efficiency peaks at small compositions for most benchmarks.
    peaks = Counter(result.best_label(b) for b in fig6.benchmarks)
    small = peaks["tflex-1"] + peaks["tflex-2"] + peaks["tflex-4"]
    assert small >= len(fig6.benchmarks) * 0.7, peaks

    # Mean normalized perf/area decreases monotonically past 4 cores.
    means = {n: result.mean_normalized(f"tflex-{n}") for n in fig6.core_counts}
    assert means[8] > means[16] > means[32]

    # BEST-config TFlex versus TRIPS (paper: 3.4x).
    trips = result.mean_normalized("trips")
    assert result.mean_best() > 2.0 * trips
