"""The search acceptance gates (ISSUE 8 / acceptance criteria).

On the golden figure-6 subset, the halving search must return the SAME
per-benchmark BEST composition as the exhaustive detailed sweep for
all three objectives, while scheduling at least 3x fewer detailed-
simulation jobs (``benchmarks/perf`` reports the same quantity as
``detail_job_reduction_x`` on ``search_halving``).  Search is
deterministic for a fixed seed, and a re-run against a warm result
store is pure cache replay (zero new simulations).
"""

import pytest

import repro.harness.runner as runner_mod
from repro.harness import (
    clear_cache,
    configure_cache,
    fig6_performance,
    fig7_area,
    fig8_power,
    fig_best,
    simulation_count,
)
from repro.harness.golden import GOLDEN_BENCHMARKS, GOLDEN_SCALE
from repro.search import OBJECTIVE_NAMES

REDUCTION_GATE = 3.0


@pytest.mark.slow
def test_search_matches_exhaustive_argmax_with_3x_less_detail():
    """Identical BEST per benchmark for speedup, perf/area and
    perf^2/W, at >=3x fewer detailed jobs than the exhaustive sweep."""
    fig6 = fig6_performance(scale=GOLDEN_SCALE,
                            benchmarks=GOLDEN_BENCHMARKS,
                            include_trips=False)
    exhaustive = {
        "speedup": {b: fig6.best_label(b) for b in fig6.benchmarks},
        "perf_per_area": {b: fig7_area(fig6).best_label(b)
                          for b in fig6.benchmarks},
        "perf2_per_watt": {b: fig8_power(fig6).best_label(b)
                           for b in fig6.benchmarks},
    }

    result = fig_best(benchmarks=GOLDEN_BENCHMARKS, scale=GOLDEN_SCALE)
    assert result.objectives() == list(OBJECTIVE_NAMES)

    for objective in OBJECTIVE_NAMES:
        search = result.searches[objective]
        assert {b: r.best.label() for b, r in search.per_bench.items()} == (
            exhaustive[objective]), (
            f"search BEST diverged from the exhaustive sweep "
            f"for objective {objective}")
        reduction = search.detail_reduction()
        assert reduction >= REDUCTION_GATE, (
            f"{objective}: only {reduction:.2f}x fewer detailed jobs "
            f"({search.detailed_jobs()} vs "
            f"{result.exhaustive_detailed_jobs()} exhaustive)")


@pytest.mark.slow
def test_search_deterministic_for_fixed_seed():
    """Same seed, same space -> byte-identical payload (rung trails,
    scores, bests)."""
    first = fig_best(benchmarks=("dither",), objectives=("speedup",))
    again = fig_best(benchmarks=("dither",), objectives=("speedup",))
    assert first.payload() == again.payload()
    trail_a = first.searches["speedup"].per_bench["dither"]
    trail_b = again.searches["speedup"].per_bench["dither"]
    assert [r.scores for r in trail_a.rungs] == [r.scores
                                                 for r in trail_b.rungs]


@pytest.mark.slow
def test_rerun_is_pure_cache_replay(tmp_path):
    """With a persistent store, a second search (fresh in-process
    cache) satisfies every rung — sampled and detailed — from the
    store: zero new simulations."""
    saved = dict(runner_mod._CACHE)
    runner_mod._CACHE.clear()
    configure_cache(cache_dir=tmp_path)
    try:
        before = simulation_count()
        first = fig_best(benchmarks=("dither",), objectives=("speedup",))
        executed = simulation_count()
        # Cold store: every rung evaluation simulated (6 coarse + 3
        # fine + 2 detail distinct specs).
        assert executed - before == 11

        runner_mod._CACHE.clear()
        again = fig_best(benchmarks=("dither",), objectives=("speedup",))
        assert simulation_count() == executed, (
            "re-run simulated instead of replaying the result store")
        assert first.payload() == again.payload()
    finally:
        configure_cache(enabled=False)
        runner_mod._CACHE.clear()
        runner_mod._CACHE.update(saved)
