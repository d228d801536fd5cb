"""Harness tests on a small benchmark subset (full sweeps live in
benchmarks/)."""

import pytest

from repro.exec import JobSpec
from repro.harness import (
    clear_cache,
    fig5_baseline,
    fig6_performance,
    fig7_area,
    fig8_power,
    fig9_protocols,
    fig10_multiprogramming,
    format_table,
    geomean,
    run_all,
    run_edge_benchmark,
    run_risc_benchmark,
    table2_area_power,
)
from repro.harness.experiments import FIG10_SIZES


SUBSET = ["conv", "dither", "mcf"]
SMALL_CORES = (1, 2, 4)


@pytest.fixture(scope="module")
def fig6_small():
    return fig6_performance(core_counts=SMALL_CORES, benchmarks=SUBSET)


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]], title="T")
        assert "T" in text
        assert "bb" in text
        assert "2.5" in text


class TestRunner:
    def test_caching(self):
        clear_cache()
        first = run_edge_benchmark("dither", ncores=2)
        second = run_edge_benchmark("dither", ncores=2)
        assert first is second

    def test_labels(self):
        assert run_edge_benchmark("dither", ncores=2).label == "tflex-2"
        assert run_edge_benchmark("dither", trips=True).label == "trips"
        [ideal] = run_all([JobSpec.edge("dither", ncores=2,
                                        ideal_handshake=True)])
        assert ideal.label == "tflex-2-ideal"

    def test_power_attached(self):
        run = run_edge_benchmark("dither", ncores=2)
        assert run.power.total > 0
        assert run.performance == pytest.approx(1.0 / run.cycles)

    def test_risc_runner(self):
        result = run_risc_benchmark("dither")
        assert result.cycles > 0
        assert result.insts > 0

    def test_run_all_keeps_spec_order_and_duplicates(self):
        clear_cache()
        two, one = JobSpec.edge("dither", ncores=2), JobSpec.risc("dither")
        runs = run_all([two, one, two])
        assert [type(r).__name__ for r in runs] == [
            "RunResult", "RiscResult", "RunResult"]
        assert runs[0] is runs[2] is run_edge_benchmark("dither", ncores=2)
        assert runs[1] is run_risc_benchmark("dither")


class TestFig6:
    def test_structure(self, fig6_small):
        assert fig6_small.benchmarks == SUBSET
        for bench in SUBSET:
            assert fig6_small.speedup(bench, "tflex-1") == pytest.approx(1.0)
            assert fig6_small.best_speedup(bench) >= 1.0
        assert "Figure 6" in fig6_small.render()

    def test_speedup_table_for_sched(self, fig6_small):
        table = fig6_small.speedup_table()
        for bench in SUBSET:
            assert table.alone(bench) > 0
            assert set(table.perf[bench]) == set(SMALL_CORES)


class TestDownstreamFigures:
    def test_fig7(self, fig6_small):
        result = fig7_area(fig6_small)
        # Normalized to one core by definition.
        for bench in SUBSET:
            assert result.normalized(bench, "tflex-1") == pytest.approx(1.0)
        # Doubling cores at sub-2x speedup lowers perf/area.
        assert result.mean_normalized("tflex-4") < 2.0
        assert "Figure 7" in result.render()

    def test_fig8(self, fig6_small):
        result = fig8_power(fig6_small)
        for bench in SUBSET:
            assert result.normalized(bench, "tflex-1") == pytest.approx(1.0)
        assert result.best_fixed_label() in [f"tflex-{n}" for n in SMALL_CORES]
        assert "Figure 8" in result.render()

    def test_fig10(self, fig6_small):
        result = fig10_multiprogramming(fig6_small)
        assert result.sizes == FIG10_SIZES
        # Only the granularities the sweep measured become fixed CMPs.
        assert result.granularities == SMALL_CORES
        for m in FIG10_SIZES:
            assert 0 < result.ws[m]["TFlex"] <= m + 1e-9
            assert result.ws[m]["TFlex"] >= result.ws[m]["VB-CMP"] - 1e-9
            for g in SMALL_CORES:
                assert result.ws[m]["TFlex"] >= result.ws[m][f"CMP-{g}"] - 1e-9
        assert "Figure 10" in result.render()

    def test_table2(self, fig6_small):
        fig6_with_8 = fig6_performance(core_counts=(1, 8), benchmarks=["dither"])
        result = table2_area_power(fig6_with_8)
        assert sum(result.trips_power.values()) > 0
        assert "Table 2" in result.render()


class TestFig5AndFig9Small:
    def test_fig5_subset(self):
        result = fig5_baseline(benchmarks=["conv", "dither"])
        assert set(result.ratios) == {"conv", "dither"}
        assert all(r > 0 for r in result.ratios.values())
        assert "Figure 5" in result.render()

    def test_fig9_subset(self):
        result = fig9_protocols(core_counts=(1, 4), benchmarks=["dither"])
        assert result.fetch[1]["prediction"] == 0
        assert result.fetch[4]["prediction"] == 3
        assert result.commit[4]["handshake"] > 0
        # Ideal handshakes usually help; small negative values are
        # legitimate second-order speculation-timing effects.
        assert -0.15 <= result.mean_ablation_impact() < 0.6
        assert "Figure 9a" in result.render()
