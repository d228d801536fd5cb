"""ProgressReporter: rendering, ETA math, rate limiting."""

import io

from repro.exec import ProgressReporter


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestRendering:
    def test_eta_from_completed_rate(self):
        clock = FakeClock()
        rep = ProgressReporter(total=10, stream=io.StringIO(), clock=clock)
        clock.now += 5.0
        rep.done = 5
        text = rep.render()
        assert "[5/10]" in text
        assert "50%" in text
        assert "elapsed 5.0s" in text
        assert "eta 5.0s" in text

    def test_unknown_eta_before_first_completion(self):
        rep = ProgressReporter(total=4, stream=io.StringIO(),
                               clock=FakeClock())
        assert "eta ?" in rep.render()

    def test_failed_count_shown(self):
        clock = FakeClock()
        stream = io.StringIO()
        rep = ProgressReporter(total=2, stream=stream, clock=clock)
        clock.now += 1.0
        rep.update(label="conv", ok=False)
        assert "failed 1" in rep.render()
        assert "last=conv" in stream.getvalue()

    def test_human_time_units(self):
        clock = FakeClock()
        rep = ProgressReporter(total=2, stream=io.StringIO(), clock=clock)
        clock.now += 90.0
        rep.done = 1
        assert "elapsed 1.5m" in rep.render()


class TestEtaWithCache:
    def test_eta_ignores_cached_jobs(self, monkeypatch):
        """Warm store hits complete instantly; counting them in the rate
        would wildly underestimate the ETA on mixed warm/cold sweeps."""
        monkeypatch.setattr(ProgressReporter, "min_interval", 0.0)
        clock = FakeClock()
        rep = ProgressReporter(total=10, stream=io.StringIO(), clock=clock)
        for _ in range(4):
            rep.update(cached=True)      # instant warm hits
        clock.now += 8.0
        for _ in range(2):
            rep.update()                 # 2 cold jobs in 8s -> 4s each
        assert "eta 16.0s" in rep.render()   # 4 remaining jobs

    def test_eta_unknown_while_only_cached(self):
        clock = FakeClock()
        rep = ProgressReporter(total=4, stream=io.StringIO(), clock=clock)
        rep.update(cached=True)
        clock.now += 2.0
        assert "eta ?" in rep.render()

    def test_eta_zero_when_done(self):
        clock = FakeClock()
        rep = ProgressReporter(total=2, stream=io.StringIO(), clock=clock)
        rep.update(cached=True)
        rep.update(cached=True)
        assert "eta 0.0s" in rep.render()


class TestFinish:
    def test_silent_when_nothing_emitted(self):
        """finish() on an unused reporter must not pollute the stream
        (regression: it used to write a bare newline)."""
        stream = io.StringIO()
        rep = ProgressReporter(total=5, stream=stream, clock=FakeClock())
        rep.finish()
        assert stream.getvalue() == ""

    def test_zero_total_is_silent(self):
        stream = io.StringIO()
        rep = ProgressReporter(total=0, stream=stream, clock=FakeClock())
        rep.finish()
        assert stream.getvalue() == ""

    def test_newline_after_real_output(self):
        clock = FakeClock()
        stream = io.StringIO()
        rep = ProgressReporter(total=2, stream=stream, clock=clock)
        clock.now += 1.0
        rep.update()
        rep.finish()
        assert stream.getvalue().endswith("\n")
        # The partial state was re-rendered by finish().
        assert "[1/2]" in stream.getvalue()


class TestRateLimiting:
    def test_intermediate_updates_coalesce(self, monkeypatch):
        monkeypatch.setattr(ProgressReporter, "min_interval", 1.0)
        clock = FakeClock()
        stream = io.StringIO()
        rep = ProgressReporter(total=100, stream=stream, clock=clock)
        for _ in range(50):
            clock.now += 0.01    # 50 completions in half a second
            rep.update()
        # First update emits, the rest fall inside the interval.
        assert stream.getvalue().count("\r") == 1

    def test_final_update_always_emits(self, monkeypatch):
        monkeypatch.setattr(ProgressReporter, "min_interval", 60.0)
        clock = FakeClock()
        stream = io.StringIO()
        rep = ProgressReporter(total=3, stream=stream, clock=clock)
        for _ in range(3):
            clock.now += 0.01
            rep.update()
        assert "[3/3]" in stream.getvalue()
        rep.finish()
        assert stream.getvalue().endswith("\n")


class TestRetries:
    def test_retries_shown_in_line(self):
        rep = ProgressReporter(total=4, stream=io.StringIO(),
                               clock=FakeClock())
        rep.update()
        assert "retries" not in rep.render()
        rep.note_retry()
        rep.note_retry()
        text = rep.render()
        assert "retries 2" in text
        # Retries sit between the failure count and the label.
        rep.failed = 1
        assert "failed 1 retries 2" in rep.render(label="conv")

    def test_note_retry_never_advances_completion(self):
        rep = ProgressReporter(total=2, stream=io.StringIO(),
                               clock=FakeClock())
        rep.note_retry()
        assert rep.done == 0
        assert "[0/2]" in rep.render()
