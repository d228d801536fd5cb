"""Figure 6: performance of TFlex compositions (and TRIPS) across the
26-benchmark suite, normalized to a single TFlex core.

Paper claims reproduced in shape:
* speedup grows with composition size, peaks, then communication costs
  win (best configuration varies per application, 1..32);
* the 16-core configuration averages ~3.5x over one core (we land in
  the same band with smaller kernels);
* per-application BEST adds ~13% over the best fixed configuration;
* an 8-core TFlex (TRIPS-equivalent area/issue width) outperforms
  TRIPS (+19% in the paper), and BEST beats TRIPS by ~1.4x.
"""

from benchmarks.conftest import save_result


def test_fig6_performance(fig6, results_dir):
    result = fig6
    save_result(results_dir, "fig6_performance", result.render())

    # Speedups grow from 1 to the per-benchmark best.
    for bench in result.benchmarks:
        assert result.best_speedup(bench) >= 1.0

    # Aggregate shape: composition helps substantially, with a peak at
    # an intermediate size.
    mean_by_size = {n: result.mean_speedup(f"tflex-{n}") for n in result.core_counts}
    peak_size = max(mean_by_size, key=mean_by_size.get)
    assert 4 <= peak_size <= 32
    assert mean_by_size[peak_size] >= 2.0, mean_by_size
    assert result.mean_best_speedup() >= 2.5

    # BEST adds a margin over any fixed configuration (paper: +13%).
    assert result.mean_best_speedup() >= mean_by_size[peak_size] * 1.02

    # Versus the fixed-granularity TRIPS baseline.
    trips = result.mean_speedup("trips")
    assert result.mean_speedup("tflex-8") > trips          # paper: +19%
    assert result.mean_best_speedup() > trips * 1.2        # paper: +42%

    # High-ILP codes scale better than low-ILP codes at large sizes.
    from repro.workloads import BENCHMARKS
    high = [b for b in result.benchmarks if BENCHMARKS[b].ilp == "high"]
    low = [b for b in result.benchmarks if BENCHMARKS[b].ilp == "low"]
    from repro.harness import geomean
    assert geomean([result.best_speedup(b) for b in high]) > \
        geomean([result.best_speedup(b) for b in low])
