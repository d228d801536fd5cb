"""Speculation behaviour report across the suite.

Not a paper figure, but the analysis behind several of its claims: the
distributed next-block predictor must sustain high accuracy on loopy
codes for deep block speculation to pay (section 4.3), and wasted
(squashed) fetch work should stay a modest fraction.  The report prints
per-benchmark prediction accuracy, squash rates, window occupancy, and
violation counts on the 8-core configuration.
"""

from repro.harness import format_table, geomean, run_edge_benchmark
from repro.workloads import BENCHMARKS

from benchmarks.conftest import save_result


def test_speculation_report(results_dir):
    names = sorted(BENCHMARKS)
    runs = {name: run_edge_benchmark(name, ncores=8) for name in names}

    rows = []
    for name in names:
        stats = runs[name].stats
        rows.append([
            name,
            f"{stats.prediction_accuracy:.0%}",
            f"{stats.speculation_waste:.0%}",
            round(stats.avg_inflight_blocks, 1),
            stats.mispredictions,
            stats.violations,
            stats.nacks,
        ])
    save_result(results_dir, "speculation_report", format_table(
        ["benchmark", "bpred", "squashed", "avg inflight", "mispredicts",
         "violations", "nacks"], rows,
        title="Speculation behaviour at 8 cores"))

    accuracies = [runs[n].stats.prediction_accuracy for n in names]
    # The distributed predictor sustains useful accuracy suite-wide
    # (short kernels never leave warmup, which caps the mean here —
    # the steady-state loop tests in tests/predictor pin the >90% case).
    assert geomean([a for a in accuracies if a > 0]) > 0.5
    # ...and the loop-dominated kernels (long enough to train) predict
    # well, several of them very well.
    assert sum(1 for a in accuracies if a > 0.7) >= 10
    assert sum(1 for a in accuracies if a > 0.85) >= 5

    # Wasted fetches stay bounded: no benchmark squashes more than 60%
    # of fetched blocks, and the suite mean stays under 30%.
    wastes = [runs[n].stats.speculation_waste for n in names]
    assert max(wastes) < 0.6, max(wastes)
    assert sum(wastes) / len(wastes) < 0.30

    # Deep speculation actually happens: mean window occupancy above
    # half the 8-block frame budget on at least a third of the suite.
    deep = sum(1 for n in names if runs[n].stats.avg_inflight_blocks > 4)
    assert deep >= len(names) // 3, deep
