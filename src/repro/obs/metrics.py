"""Lightweight metrics: counters, gauges, histograms with labels.

A :class:`MetricsRegistry` holds named series.  A *series* is a metric
name plus a (possibly empty) set of ``key=value`` labels — the usual
Prometheus-style shape, e.g. ``noc.messages{net=opn}`` — stored as a
plain dict keyed by ``(name, sorted label items)``, so recording is one
dict lookup and one add.

Counters only go up; gauges hold the last value set; histograms keep
count/sum/min/max plus power-of-two bucket counts (bucket ``i`` counts
observations ``<= 2**i``), which is enough to answer "where does the
time go" without storing samples.

The registry is always safe to call; the *cost discipline* (skip the
call entirely when observability is off) lives with the caller — see
``repro.obs.Observability.active``.
"""

from __future__ import annotations

from typing import Optional

#: Histogram buckets: upper bounds 2**0 .. 2**N, plus an overflow slot.
HISTOGRAM_BUCKETS = 24


def series_key(name: str, labels: dict) -> tuple:
    """Canonical hashable identity of one labelled series."""
    if not labels:
        return (name, ())
    return (name, tuple(sorted(labels.items())))


def format_series(name: str, labels: tuple) -> str:
    """Human-readable series name: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket summary of a stream of non-negative observations."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (HISTOGRAM_BUCKETS + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = 0
        bound = 1.0
        while value > bound and index < HISTOGRAM_BUCKETS:
            bound *= 2.0
            index += 1
        self.buckets[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "mean": self.mean, "buckets": list(self.buckets)}


class MetricsRegistry:
    """Counters, gauges, and histograms, each a set of labelled series."""

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- recording -----------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (monotonic)."""
        key = series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to its latest value."""
        self._gauges[series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        key = series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # -- reading -------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        return self._counters.get(series_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        return sum(v for (n, __), v in self._counters.items() if n == name)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump of every series (the ``metrics.snapshot``
        trace-event payload and the ``--metrics`` report substrate)."""
        return {
            "counters": {format_series(n, lb): v
                         for (n, lb), v in sorted(self._counters.items())},
            "gauges": {format_series(n, lb): v
                       for (n, lb), v in sorted(self._gauges.items())},
            "histograms": {format_series(n, lb): h.to_dict()
                           for (n, lb), h in sorted(self._histograms.items())},
        }

    def render(self) -> str:
        """Plain-text report, one series per line."""
        snap = self.snapshot()
        lines = []
        for series, value in snap["counters"].items():
            lines.append(f"{series}  {value:g}")
        for series, value in snap["gauges"].items():
            lines.append(f"{series}  {value:g}")
        for series, hist in snap["histograms"].items():
            lines.append(f"{series}  count={hist['count']} "
                         f"mean={hist['mean']:.6g} min={hist['min']:g} "
                         f"max={hist['max']:g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"
