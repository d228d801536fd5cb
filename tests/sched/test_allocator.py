"""Tests for weighted speedup and the core allocators, including a
brute-force optimality check of the DP."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sched import (
    SpeedupTable,
    brute_force_assignment,
    fixed_cmp_assignment,
    optimal_assignment,
    symmetric_best_assignment,
    weighted_speedup,
)
from repro.sched.allocator import ALLOWED_SIZES


def table_from(curves: dict[str, dict[int, float]]) -> SpeedupTable:
    return SpeedupTable(perf=curves)


def saturating(peak_at: int, height: float = 4.0) -> dict[int, float]:
    """A cores->perf curve rising to a peak then declining."""
    curve = {}
    for k in (1, 2, 4, 8, 16, 32):
        if k <= peak_at:
            curve[k] = height * k / peak_at
        else:
            curve[k] = height * peak_at / k * 1.5
    curve[peak_at] = height
    return curve


class TestSpeedupTable:
    def test_alone_and_best_size(self):
        table = table_from({"a": saturating(8)})
        assert table.alone("a") == 4.0
        assert max(table.perf["a"],
                   key=lambda n: table.performance("a", n)) == 8

    def test_missing_measurement(self):
        table = table_from({"a": {1: 1.0}})
        with pytest.raises(KeyError):
            table.performance("a", 2)


class TestWeightedSpeedup:
    def test_alone_run_scores_one(self):
        table = table_from({"a": saturating(8)})
        assert weighted_speedup(["a"], [8], table) == pytest.approx(1.0)

    def test_additive(self):
        table = table_from({"a": saturating(8), "b": saturating(4)})
        ws = weighted_speedup(["a", "b"], [8, 4], table)
        assert ws == pytest.approx(2.0)

    def test_degraded_share(self):
        table = table_from({"a": saturating(8)})
        assert weighted_speedup(["a"], [2], table) < 1.0

    def test_arity_check(self):
        table = table_from({"a": saturating(8)})
        with pytest.raises(ValueError):
            weighted_speedup(["a"], [1, 2], table)


class TestOptimalAssignment:
    def test_single_app_gets_best_size(self):
        table = table_from({"a": saturating(8)})
        ws, sizes = optimal_assignment(["a"], table)
        assert sizes == [8]
        assert ws == pytest.approx(1.0)

    def test_two_identical_apps_split(self):
        table = table_from({"a": saturating(16)})
        ws, sizes = optimal_assignment(["a", "a"], table)
        assert sum(sizes) <= 32
        assert ws > weighted_speedup(["a", "a"], [8, 8], table) - 1e-9

    def test_asymmetric_split_beats_symmetric(self):
        """An ILP-hungry and an ILP-poor app should get different sizes."""
        table = table_from({"hungry": saturating(32), "poor": saturating(2)})
        ws, sizes = optimal_assignment(["hungry", "poor"], table)
        assert sizes[0] > sizes[1]
        sym_ws, __ = symmetric_best_assignment(["hungry", "poor"], table)
        assert ws >= sym_ws - 1e-12

    def test_budget_respected(self):
        table = table_from({"a": saturating(32)})
        __, sizes = optimal_assignment(["a"] * 8, table)
        assert sum(sizes) <= 32

    def test_infeasible_rejected(self):
        table = table_from({"a": saturating(4)})
        with pytest.raises(ValueError):
            optimal_assignment(["a"] * 40, table)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=4),
           st.integers(2, 12))
    @example(apps=["a", "b", "c", "a"], seed=5)
    def test_dp_matches_brute_force(self, apps, seed):
        """Every curve peaks at 32 cores (a doubling gains at least
        2 ** 0.3 > 1.1 / 0.9), so two to four apps always ask for more
        than the chip and the DP's capacity rule decides the split."""
        import random
        rng = random.Random(seed)
        curves = {}
        for name in "abc":
            slope = rng.uniform(0.3, 1.0)
            curves[name] = {k: rng.uniform(0.9, 1.1) * k ** slope
                            for k in ALLOWED_SIZES}
        table = table_from(curves)
        ws_dp, sizes = optimal_assignment(apps, table)
        ws_bf, __ = brute_force_assignment(apps, table)
        assert ws_dp == pytest.approx(ws_bf)
        assert sum(sizes) <= 32


class TestFixedCmp:
    def test_undersubscribed(self):
        table = table_from({"a": saturating(8), "b": saturating(8)})
        ws, sizes = fixed_cmp_assignment(["a", "b"], table, granularity=4)
        assert sizes == [4, 4]

    def test_oversubscribed_constant(self):
        """Paper: WS stays constant past the processor count."""
        table = table_from({"a": saturating(8)})
        ws2, __ = fixed_cmp_assignment(["a"] * 2, table, granularity=16)
        ws5, __ = fixed_cmp_assignment(["a"] * 5, table, granularity=16)
        assert ws2 == pytest.approx(ws5)

    def test_bad_granularity(self):
        table = table_from({"a": saturating(8)})
        with pytest.raises(ValueError):
            fixed_cmp_assignment(["a"], table, granularity=64)


class TestHierarchy:
    """Every *feasible* symmetric assignment (enough processors for all
    threads) lies inside the DP's search space, so the optimal
    asymmetric allocation dominates it.  Oversubscribed fixed CMPs use
    the paper's constant-WS convention and are excluded here."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
           st.integers(0, 100))
    def test_dominates_feasible_symmetric(self, apps, seed):
        import random
        rng = random.Random(seed)
        curves = {
            name: {k: rng.uniform(0.1, 5.0) for k in (1, 2, 4, 8, 16, 32)}
            for name in "abcd"
        }
        table = table_from(curves)
        ws_opt, __ = optimal_assignment(apps, table)
        feasible = [g for g in (1, 2, 4, 8, 16, 32) if 32 // g >= len(apps)]
        for granularity in feasible:
            ws_fixed, __ = fixed_cmp_assignment(apps, table, granularity)
            assert ws_opt >= ws_fixed - 1e-12

    def test_vb_cmp_at_least_best_fixed(self):
        table = table_from({"a": saturating(8), "b": saturating(2)})
        apps = ["a", "b", "a"]
        ws_vb, __ = symmetric_best_assignment(apps, table)
        for granularity in (1, 2, 4, 8, 16, 32):
            ws_fixed, __ = fixed_cmp_assignment(apps, table, granularity)
            assert ws_vb >= ws_fixed - 1e-12
