"""Live progress/ETA reporting for long sweeps.

Rate-limited single-line updates on a stream (stderr by default), with
elapsed time and a simple completed-rate ETA.  The clock is injectable
so tests can drive it deterministically.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressReporter:
    """Prints ``[done/total] pct elapsed eta`` lines, rate-limited."""

    #: Least seconds between two emitted lines; the last update always
    #: emits.
    min_interval = 0.5

    def __init__(self, total: int, stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.done = 0
        self.failed = 0
        self.retries = 0
        self._start = self.clock()
        self._last_emit = float("-inf")
        self._emitted = False

    def update(self, label: str = "", ok: bool = True) -> None:
        """Record one completed job; emit if the rate limit allows."""
        self.done += 1
        if not ok:
            self.failed += 1
        now = self.clock()
        if now - self._last_emit >= self.min_interval or self.done == self.total:
            self._emit(now, label)
            self._last_emit = now

    def note_retry(self) -> None:
        """Record one retried attempt (the job is not done yet, so this
        never advances the counter — it only surfaces flakiness in the
        progress line)."""
        self.retries += 1

    def finish(self) -> None:
        """Terminate the progress line.

        Emits a final partial-state line when work happened but the last
        update was rate-limited away; writes nothing at all (not even
        the newline) when no line was ever emitted, so quiet runs leave
        the stream untouched.
        """
        if self.done < self.total and self.done:
            self._emit(self.clock(), "")
        if self._emitted:
            self.stream.write("\n")
            self.stream.flush()

    def render(self, now: Optional[float] = None, label: str = "") -> str:
        now = self.clock() if now is None else now
        elapsed = max(now - self._start, 1e-9)
        pct = 100.0 * self.done / self.total if self.total else 100.0
        if self.done >= self.total:
            eta_text = _fmt_seconds(0.0)
        elif self.done > 0:
            eta = elapsed / self.done * (self.total - self.done)
            eta_text = _fmt_seconds(eta)
        else:
            eta_text = "?"
        text = (f"exec: [{self.done}/{self.total}] {pct:3.0f}% "
                f"elapsed {_fmt_seconds(elapsed)} eta {eta_text}")
        if self.failed:
            text += f" failed {self.failed}"
        if self.retries:
            text += f" retries {self.retries}"
        if label:
            text += f" last={label}"
        return text

    def _emit(self, now: float, label: str) -> None:
        self._emitted = True
        self.stream.write("\r" + self.render(now, label).ljust(78))
        self.stream.flush()
