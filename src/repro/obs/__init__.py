"""``repro.obs`` — unified observability: metrics, tracing, profiling.

Three small pieces, bundled by :class:`Observability`:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: labelled
  counter/gauge/histogram series with a JSON-safe ``snapshot()``.
* :mod:`repro.obs.bus` — :class:`TraceBus`: structured events fanned
  out to pluggable sinks (ring buffer for tests, JSONL file for runs),
  with a parent bus for scoped observation (:meth:`Observability.fork`).
* :mod:`repro.obs.profile` — :class:`PhaseProfiler`: exclusive
  wall-clock seconds per simulation phase (where does *host* time go).

The simulator (:class:`repro.tflex.system.TFlexSystem`), the mesh
networks, and the exec engine all pick up the process-global instance
from :func:`current` unless handed one explicitly; the CLI's
``--trace-out``/``--metrics`` flags and ``python -m repro profile``
swap it via :func:`configure`.  With nothing configured, every hook is
gated on :attr:`Observability.active` and costs an attribute read —
see docs/OBSERVABILITY.md for the event schema and overhead notes.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.bus import (
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    Sink,
    TraceBus,
)
from repro.obs.metrics import Histogram, MetricsRegistry, format_series
from repro.obs.profile import PhaseProfiler


class Observability:
    """One bundle of registry + bus + profiler.

    ``active`` gates *both* event emission and metric recording: call
    sites do ``if obs.active: obs.emit(...)`` / ``obs.metrics.inc(...)``
    so the disabled path never builds an event dict or touches the
    registry.  The profiler has its own ``enabled`` flag because its
    hooks sit on hotter paths than per-block events.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 bus: Optional[TraceBus] = None,
                 profiler: Optional[PhaseProfiler] = None,
                 metrics_enabled: bool = False) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus if bus is not None else TraceBus()
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.metrics_enabled = metrics_enabled

    @property
    def active(self) -> bool:
        return (self.metrics_enabled or self.bus.active
                or self.profiler.enabled)

    def emit(self, kind: str, **fields) -> None:
        self.bus.emit(kind, **fields)

    def fork(self, *sinks: Sink) -> "Observability":
        """A scoped view: same registry and profiler, a forked bus with
        ``sinks`` attached.  Events emitted through the fork still reach
        every parent sink; the new sinks see only the fork's events."""
        child = TraceBus(parent=self.bus)
        for sink in sinks:
            child.attach(sink)
        return Observability(metrics=self.metrics, bus=child,
                             profiler=self.profiler,
                             metrics_enabled=self.metrics_enabled)

    def snapshot_event(self) -> dict:
        """The ``metrics.snapshot`` event payload (emitted by the CLI at
        the end of a traced run)."""
        return {"kind": "metrics.snapshot",
                "metrics": self.metrics.snapshot(),
                "profile": self.profiler.snapshot()}

    def close(self) -> None:
        self.bus.close()


#: Process-global instance; inactive until :func:`configure` is called.
_GLOBAL = Observability()


def current() -> Observability:
    """The process-global observability bundle."""
    return _GLOBAL


def configure(trace_path=None, metrics: bool = False,
              profile: bool = False) -> Observability:
    """Install a fresh global bundle.

    ``trace_path`` attaches a :class:`JsonlSink` writing one event per
    line; ``metrics`` turns on metric recording even without a trace
    sink; ``profile`` enables the wall-clock phase profiler.
    """
    global _GLOBAL
    _GLOBAL.close()
    obs = Observability(metrics_enabled=metrics or trace_path is not None)
    if trace_path is not None:
        obs.bus.attach(JsonlSink(trace_path))
    obs.profiler.enabled = profile
    _GLOBAL = obs
    return obs


def reset() -> Observability:
    """Close any configured sinks and restore the inactive default."""
    global _GLOBAL
    _GLOBAL.close()
    _GLOBAL = Observability()
    return _GLOBAL


__all__ = [
    "CallbackSink",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "Observability",
    "PhaseProfiler",
    "RingBufferSink",
    "Sink",
    "TraceBus",
    "configure",
    "current",
    "format_series",
    "reset",
]
