"""Degradation-experiment tests: the figure-R curve, the fig10
dead-core extension, and the allocator/controller resilience hooks."""

import pytest

from repro.harness import fig6_performance, fig10_multiprogramming, \
    figR_degradation, figR_specs
from repro.sched import (
    CoreFailure,
    Job,
    ReallocationController,
    SpeedupTable,
    degraded_assignment,
    surviving_processors,
)
from repro.tflex import tflex_config
from repro.tflex.placement import pack


class TestFigRSpecs:
    def test_one_spec_per_point(self):
        specs = figR_specs(target_cores=8, max_dead=3,
                           benchmarks=["conv", "dither"])
        assert len(specs) == 4 * 2
        assert {s.bench for s in specs} == {"conv", "dither"}

    def test_zero_dead_point_is_the_plain_spec(self):
        specs = figR_specs(target_cores=8, max_dead=1, benchmarks=["conv"])
        assert specs[0].faults == ()
        assert "+faults" not in specs[0].label()
        assert len(specs[1].faults) == 1

    def test_bounds(self):
        with pytest.raises(ValueError, match="max_dead"):
            figR_specs(target_cores=8, max_dead=8)
        with pytest.raises(ValueError, match="max_dead"):
            figR_specs(target_cores=8, max_dead=0)


class TestFigRDegradation:
    @pytest.fixture(scope="class")
    def figR(self):
        return figR_degradation(target_cores=8, max_dead=2,
                                benchmarks=["conv"], seed=2007)

    def test_curve_shape(self, figR):
        assert figR.dead_counts == (0, 1, 2)
        assert figR.relative("conv", 0) == pytest.approx(1.0)
        assert figR.mean_relative(0) == pytest.approx(1.0)
        # Granted composition sizes can only shrink along the sweep.
        granted = [figR.granted_cores(k) for k in figR.dead_counts]
        assert granted[0] == 8
        assert all(b <= a for a, b in zip(granted, granted[1:]))

    def test_monotone_trend(self, figR):
        assert figR.monotone_trend()

    def test_dead_sets_nested(self, figR):
        sets = [set(figR.dead_sets[k]) for k in figR.dead_counts]
        assert sets[0] == set()
        assert sets[0] < sets[1] < sets[2]

    def test_runs_follow_spec_order(self):
        """``figR_specs`` lists the points dead-count-major, and that is
        the order the driver reads them back: ``runs[b][k]`` is bench
        ``b`` under schedule ``k``."""
        names = ["conv", "dither"]
        specs = figR_specs(target_cores=4, max_dead=2, benchmarks=names)
        figR = figR_degradation(target_cores=4, max_dead=2,
                                benchmarks=names)
        for i, spec in enumerate(specs):
            k, j = divmod(i, len(names))
            run = figR.runs[names[j]][k]
            assert spec.bench == run.bench == names[j]
            assert run.label == spec.label()
            assert len(spec.faults) == k == len(figR.dead_sets[k])
            if k:
                assert run.resil["boot_faulty"] == figR.dead_sets[k]

    def test_payload_and_render(self, figR):
        payload = figR.payload()
        assert payload["monotone"] is True
        assert len(payload["curve"]) == 3
        point = payload["curve"][1]
        assert point["dead"] == 1
        assert 0 < point["mean_relative"] <= 1.0
        assert point["cycles"]["conv"] > 0
        assert "Figure R" in figR.render()


class TestFig10DeadCores:
    @pytest.fixture(scope="class")
    def fig6_small(self):
        return fig6_performance(core_counts=(1, 2, 4),
                                benchmarks=["conv", "dither", "mcf"])

    def test_zero_dead_is_byte_identical(self, fig6_small):
        base = fig10_multiprogramming(fig6_small, sizes=(2, 4),
                                      granularities=(1, 2, 4),
                                      workloads_per_size=3)
        again = fig10_multiprogramming(fig6_small, sizes=(2, 4),
                                       granularities=(1, 2, 4),
                                       workloads_per_size=3, dead_cores=0)
        assert base.ws == again.ws
        assert base.allocation == again.allocation
        assert again.dead_cores == 0

    def test_degraded_never_beats_pristine(self, fig6_small):
        kwargs = dict(sizes=(2, 4), granularities=(1, 2, 4),
                      workloads_per_size=3)
        pristine = fig10_multiprogramming(fig6_small, **kwargs)
        hurt = fig10_multiprogramming(fig6_small, dead_cores=5, **kwargs)
        assert hurt.dead_cores == 5
        for m in (2, 4):
            assert hurt.ws[m]["TFlex"] <= pristine.ws[m]["TFlex"] + 1e-9
            # Composability keeps TFlex ahead of any fixed survivor CMP.
            for g in (1, 2, 4):
                assert hurt.ws[m]["TFlex"] >= hurt.ws[m][f"CMP-{g}"] - 1e-9


def curve(peak, height=4.0):
    out = {}
    for k in (1, 2, 4, 8, 16, 32):
        out[k] = height * min(k, peak) / peak * (
            1.0 if k <= peak else peak / k * 1.2)
    out[peak] = height
    return out


@pytest.fixture
def table():
    return SpeedupTable(perf={"wide": curve(16), "narrow": curve(2)})


class TestDegradedAssignment:
    def test_no_dead_matches_chip_capacity(self, table):
        cfg = tflex_config(32)
        ws, sizes, placements = degraded_assignment(
            ["wide", "narrow"], table, cfg, dead=set())
        assert sum(sizes) <= 32
        assert len(placements) == 2

    def test_avoids_dead_cores(self, table):
        cfg = tflex_config(32)
        dead = {0, 5, 17}
        ws, sizes, placements = degraded_assignment(
            ["wide", "narrow"], table, cfg, dead=dead)
        assert ws > 0
        for tile in placements:
            assert not set(tile) & dead

    def test_degrades_gracefully(self, table):
        cfg = tflex_config(32)
        apps = ["wide", "wide", "narrow"]
        pristine, *_ = degraded_assignment(apps, table, cfg, dead=set())
        prev = pristine
        for k in (4, 8, 16):
            dead = set(range(k))
            ws, *_ = degraded_assignment(apps, table, cfg, dead=dead)
            assert 0 < ws <= prev + 1e-9
            prev = ws

    def test_raises_when_threads_cannot_fit(self, table):
        cfg = tflex_config(32)
        apps = ["wide"] * 4
        with pytest.raises(ValueError, match="fit"):
            degraded_assignment(apps, table, cfg, dead=set(range(30)),
                                allowed=(1, 2, 4, 8, 16))


class TestSurvivingProcessors:
    def test_pristine_chip(self):
        cfg = tflex_config(32)
        assert surviving_processors(cfg, 4, set()) == 8
        assert surviving_processors(cfg, 16, set()) == 2

    def test_one_fault_kills_one_tile(self):
        cfg = tflex_config(32)
        assert surviving_processors(cfg, 4, {0}) == 7
        # A fixed 16-core CMP loses half the chip to one dead core.
        assert surviving_processors(cfg, 16, {0}) == 1

    def test_spread_faults_can_kill_every_tile(self):
        cfg = tflex_config(32)
        tiles = pack(cfg, [4] * 8)
        dead = {tile[0] for tile in tiles}
        assert surviving_processors(cfg, 4, dead) == 0


class TestControllerFailures:
    def test_failure_shrinks_capacity_in_trace(self, table):
        controller = ReallocationController(table)
        jobs = [Job(name=f"j{i}", bench="wide", arrival=0.0, work=2.0)
                for i in range(2)]
        result = controller.run(jobs, failures=(CoreFailure(time=1.0,
                                                            cores=16),))
        capacities = [ev.capacity for ev in result.trace]
        assert capacities[0] == 32
        assert min(capacities) == 16

    def test_failures_extend_makespan(self, table):
        controller = ReallocationController(table)
        jobs = [Job(name=f"j{i}", bench="wide", arrival=0.0, work=2.0)
                for i in range(2)]
        clean = controller.run(jobs)
        hurt = ReallocationController(table).run(
            jobs, failures=(CoreFailure(time=0.5, cores=24),))
        assert hurt.makespan > clean.makespan

    def test_total_loss_starves(self, table):
        controller = ReallocationController(table)
        with pytest.raises(RuntimeError, match="failed"):
            controller.run([Job(name="a", bench="wide", arrival=0.0,
                                work=5.0)],
                           failures=(CoreFailure(time=1.0, cores=32),))

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            CoreFailure(time=-1.0)
        with pytest.raises(ValueError):
            CoreFailure(time=0.0, cores=0)
