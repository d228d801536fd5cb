"""PhaseProfiler: exclusive accounting, disabled wrap, rendering."""

from repro.obs import PhaseProfiler


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestDisabled:
    def test_wrap_returns_the_function_itself(self):
        def handler():
            return 7
        assert PhaseProfiler(enabled=False).wrap("issue", handler) is handler


class TestAccounting:
    def test_wrap_charges_the_phase_and_passes_through(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)

        def handler(a, b=0):
            clock.advance(3.0)
            return a + b

        timed = prof.wrap("lsq", handler)
        assert timed(1, b=2) == 3
        assert prof.seconds("lsq") == 3.0 and prof.calls("lsq") == 1
        # Bound at wrap time: disabling later does not unwrap.
        prof.enabled = False
        assert timed(1) == 1 and prof.calls("lsq") == 2

    def test_simple_phase(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        with prof.phase("fetch"):
            clock.advance(2.0)
        assert prof.seconds("fetch") == 2.0
        assert prof.calls("fetch") == 1

    def test_nested_time_is_exclusive(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        with prof.phase("issue"):
            clock.advance(1.0)
            with prof.phase("execute"):
                clock.advance(3.0)
            clock.advance(0.5)
        assert prof.seconds("execute") == 3.0
        assert prof.seconds("issue") == 1.5      # inner time not double-charged
        assert prof.total_seconds == 4.5

    def test_reentrant_same_phase(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        with prof.phase("noc"):
            clock.advance(1.0)
            with prof.phase("noc"):
                clock.advance(1.0)
        assert prof.seconds("noc") == 2.0
        assert prof.calls("noc") == 2

    def test_accumulates_across_calls(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        for _ in range(3):
            with prof.phase("lsq"):
                clock.advance(0.5)
        assert prof.seconds("lsq") == 1.5
        assert prof.calls("lsq") == 3


class TestRendering:
    def test_table_sorted_by_time(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        with prof.phase("cold"):
            clock.advance(1.0)
        with prof.phase("hot"):
            clock.advance(9.0)
        table = prof.table()
        assert table.index("hot") < table.index("cold")
        assert "TOTAL" in table
        assert "90.0%" in table

    def test_empty_table(self):
        assert "no phases" in PhaseProfiler().table()

    def test_snapshot_shape(self):
        clock = FakeClock()
        prof = PhaseProfiler(enabled=True, clock=clock)
        with prof.phase("fetch"):
            clock.advance(2.0)
        assert prof.snapshot() == {"fetch": {"seconds": 2.0, "calls": 1}}
