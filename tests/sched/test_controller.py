"""Tests for the dynamic reallocation controller (paper section 8)."""

import pytest

from repro.sched import Job, ReallocationController, SpeedupTable


def table_with(curves):
    return SpeedupTable(perf=curves)


def saturating(peak_at, height=4.0):
    curve = {}
    for k in (1, 2, 4, 8, 16, 32):
        curve[k] = height * min(k, peak_at) / peak_at * (
            1.0 if k <= peak_at else peak_at / k * 1.2)
    curve[peak_at] = height
    return curve


@pytest.fixture
def table():
    return table_with({
        "wide": saturating(16),    # ILP-hungry
        "narrow": saturating(2),   # saturates early
    })


def jobs_batch(table, count=4, work=1.0):
    names = ["wide", "narrow"]
    return [Job(name=f"j{i}", bench=names[i % 2], arrival=0.0, work=work)
            for i in range(count)]


class TestSingleJob:
    def test_runs_at_full_speed(self, table):
        controller = ReallocationController(table)
        result = controller.run([Job("a", "wide", arrival=0.0, work=2.0)])
        job = result.jobs[0]
        assert job.finish == pytest.approx(2.0)
        assert job.slowdown == pytest.approx(1.0)
        # Granted its best size.
        assert result.trace[0].running["a"] == 16

    def test_late_arrival(self, table):
        controller = ReallocationController(table)
        result = controller.run([Job("a", "narrow", arrival=5.0, work=1.0)])
        assert result.jobs[0].start == pytest.approx(5.0)
        assert result.makespan == pytest.approx(6.0)


class TestPolicies:
    def test_composable_beats_fixed_makespan(self, table):
        jobs = jobs_batch(table, count=4)
        composable = ReallocationController(table, policy="composable").run(
            [Job(j.name, j.bench, j.arrival, j.work) for j in jobs])
        fixed = ReallocationController(table, policy="fixed", granularity=4).run(
            [Job(j.name, j.bench, j.arrival, j.work) for j in jobs])
        assert composable.makespan <= fixed.makespan + 1e-9

    def test_composable_at_least_symmetric(self, table):
        jobs = jobs_batch(table, count=6)
        composable = ReallocationController(table, policy="composable").run(
            [Job(j.name, j.bench, j.arrival, j.work) for j in jobs])
        symmetric = ReallocationController(table, policy="symmetric").run(
            [Job(j.name, j.bench, j.arrival, j.work) for j in jobs])
        assert composable.mean_turnaround <= symmetric.mean_turnaround + 1e-9

    def test_fixed_queues_excess_jobs(self, table):
        controller = ReallocationController(table, policy="fixed", granularity=16)
        jobs = [Job(f"j{i}", "narrow", 0.0, 1.0) for i in range(4)]
        result = controller.run(jobs)
        first_event = result.trace[0]
        assert len(first_event.running) == 2       # 32/16 processors
        assert len(first_event.waiting) == 2
        # Queued jobs eventually finish.
        assert all(j.finish is not None for j in result.jobs)

    def test_unknown_policy_rejected(self, table):
        with pytest.raises(ValueError):
            ReallocationController(table, policy="magic")


class TestReallocation:
    def test_departure_grows_survivor(self, table):
        """When a co-runner finishes, the survivor's allocation grows."""
        controller = ReallocationController(table, policy="composable")
        jobs = [Job("short", "narrow", 0.0, 0.2),
                Job("long", "wide", 0.0, 2.0)]
        result = controller.run(jobs)
        grants = [e.running.get("long") for e in result.trace
                  if "long" in e.running]
        assert grants[-1] >= grants[0]
        assert max(grants) == 16        # eventually gets its best size

    def test_arrival_shrinks_incumbent(self, table):
        controller = ReallocationController(table, policy="composable")
        jobs = [Job("incumbent", "wide", 0.0, 3.0)] + [
            Job(f"newcomer{i}", "wide", 1.0, 1.0) for i in range(3)]
        result = controller.run(jobs)
        before = next(e.running["incumbent"] for e in result.trace
                      if e.time == 0.0)
        after = next(e.running["incumbent"] for e in result.trace
                     if e.time >= 1.0 and "incumbent" in e.running)
        assert after <= before

    def test_trace_utilization_bounded(self, table):
        controller = ReallocationController(table)
        result = controller.run(jobs_batch(table, count=8))
        utilization = result.utilization
        assert 0.0 < utilization <= 1.0

    def test_work_conserved(self, table):
        """Total granted core-time implies all work completed."""
        controller = ReallocationController(table)
        jobs = jobs_batch(table, count=5, work=0.7)
        result = controller.run(jobs)
        for job in result.jobs:
            assert job.remaining == pytest.approx(0.0, abs=1e-6)
            assert job.finish >= job.arrival + job.work - 1e-9
