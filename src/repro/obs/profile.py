"""Wall-clock phase profiling for the simulator itself.

The cycle-level simulator is event-driven, so "where does simulation
time go" is invisible from cycle counts.  :class:`PhaseProfiler`
accumulates *host* wall-clock seconds per named phase (fetch, issue,
execute, commit, noc, lsq, ...) with exclusive-time accounting: when
phases nest, time spent in an inner phase is charged to the inner phase
only.

The simulator's hot paths never consult a disabled profiler: their
phase hooks are class-level handlers, shadowed per instance by
:meth:`PhaseProfiler.wrap` only when the profiler is enabled at
construction, so a disabled profiler costs them nothing.  The rare
phases (a sampled run's fast-forward, a recovery) test
``profiler.enabled`` before they enter :meth:`PhaseProfiler.phase`.
"""

from __future__ import annotations

import time
from typing import Callable


class _Timer:
    __slots__ = ("profiler", "name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self.profiler = profiler
        self.name = name

    def __enter__(self):
        profiler = self.profiler
        now = profiler.clock()
        stack = profiler._stack
        if stack:
            # Charge the parent for its elapsed slice, then restart it.
            parent_name, started = stack[-1]
            profiler._seconds[parent_name] = (
                profiler._seconds.get(parent_name, 0.0) + now - started)
            stack[-1] = (parent_name, now)
        stack.append((self.name, now))
        return self

    def __exit__(self, *exc):
        profiler = self.profiler
        now = profiler.clock()
        name, started = profiler._stack.pop()
        profiler._seconds[name] = profiler._seconds.get(name, 0.0) + now - started
        profiler._calls[name] = profiler._calls.get(name, 0) + 1
        if profiler._stack:
            parent_name, __ = profiler._stack[-1]
            profiler._stack[-1] = (parent_name, now)
        return False


class PhaseProfiler:
    """Accumulates exclusive wall-clock time per phase."""

    def __init__(self, enabled: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._stack: list[tuple[str, float]] = []

    def phase(self, name: str):
        """Context manager timing one phase (the caller checks
        :attr:`enabled` first)."""
        return _Timer(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` charged to phase ``name`` — or ``fn`` itself when the
        profiler is disabled.  The choice is made *now*: the simulator
        calls this only when the profiler is enabled as it builds a
        system, and stores the result on the instance that ``fn`` is
        bound to, shadowing the class-level handler (enable the
        profiler before building the system).  That stored bound method
        is a reference cycle, so a profiled system is freed by the
        cyclic collector, not by reference counting."""
        if not self.enabled:
            return fn

        def timed(*args, **kwargs):
            with _Timer(self, name):
                return fn(*args, **kwargs)
        return timed

    # -- reading -------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    @property
    def total_seconds(self) -> float:
        return sum(self._seconds.values())

    def snapshot(self) -> dict:
        """JSON-safe per-phase totals."""
        return {name: {"seconds": self._seconds[name],
                       "calls": self._calls.get(name, 0)}
                for name in sorted(self._seconds)}

    def table(self) -> str:
        """Plain-text profile, hottest phase first."""
        if not self._seconds:
            return "(no phases recorded)"
        total = self.total_seconds or 1e-12
        lines = [f"{'phase':<12} {'seconds':>10} {'share':>7} {'calls':>10}"]
        for name, secs in sorted(self._seconds.items(),
                                 key=lambda item: -item[1]):
            lines.append(f"{name:<12} {secs:>10.4f} {secs / total:>6.1%} "
                         f"{self._calls.get(name, 0):>10}")
        lines.append(f"{'TOTAL':<12} {self.total_seconds:>10.4f} "
                     f"{'100%':>7} {sum(self._calls.values()):>10}")
        return "\n".join(lines)
