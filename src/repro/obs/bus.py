"""Structured event-trace bus with pluggable sinks.

Events are plain dicts with a ``kind`` string plus JSON-safe fields
(see docs/OBSERVABILITY.md for the kinds the simulator and the exec
engine emit).  A :class:`TraceBus` fans each event out to its attached
sinks; with no sinks attached, :meth:`TraceBus.emit` is a single
attribute test, so an instrumented hot path costs near nothing when
tracing is off — call sites additionally guard event-dict construction
behind ``Observability.active``.

A bus can have a *parent* (``TraceBus(parent=...)``, which
``Observability.fork`` builds): its events still reach every parent
sink, while sinks attached to it see only its own events.
``ComposedProcessor.enable_block_trace`` uses this to observe one
processor without globally enabling tracing.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Optional


class Sink:
    """Interface: receives event dicts; ``close`` flushes/releases."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class RingBufferSink(Sink):
    """Keeps the last ``capacity`` events in memory — the test sink.

    ``kinds`` optionally restricts which event kinds are retained.
    """

    def __init__(self, capacity: Optional[int] = None,
                 kinds: Optional[tuple] = None) -> None:
        self.events: deque = deque(maxlen=capacity)
        self.kinds = tuple(kinds) if kinds is not None else None

    def emit(self, event: dict) -> None:
        if self.kinds is None or event.get("kind") in self.kinds:
            self.events.append(event)

    def of_kind(self, kind: str) -> list[dict]:
        return [e for e in self.events if e.get("kind") == kind]

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink(Sink):
    """Invokes ``fn(event)`` per event, optionally filtered by kind."""

    def __init__(self, fn: Callable[[dict], None],
                 kinds: Optional[tuple] = None) -> None:
        self.fn = fn
        self.kinds = tuple(kinds) if kinds is not None else None

    def emit(self, event: dict) -> None:
        if self.kinds is None or event.get("kind") in self.kinds:
            self.fn(event)


class JsonlSink(Sink):
    """Appends one compact JSON object per event to a file — the run
    sink behind ``--trace-out``.  Events must be JSON-safe."""

    def __init__(self, path) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.events_written = 0

    def emit(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


class TraceBus:
    """Fans events out to sinks, and to its parent's, if it has one."""

    def __init__(self, parent: Optional["TraceBus"] = None) -> None:
        self._sinks: list[Sink] = []
        self._parent = parent

    @property
    def active(self) -> bool:
        """True when at least one sink (here or up the fork chain) will
        see events."""
        if self._sinks:
            return True
        return self._parent.active if self._parent is not None else False

    def attach(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def emit(self, kind: str, **fields) -> None:
        """Build and deliver one event.  Prefer guarding the call site
        with ``Observability.active`` so the kwargs dict is never built
        on the disabled path."""
        if not self.active:
            return
        event = {"kind": kind}
        event.update(fields)
        self.deliver(event)

    def deliver(self, event: dict) -> None:
        """Deliver an already-built event dict (fork fan-in path)."""
        for sink in self._sinks:
            sink.emit(event)
        if self._parent is not None:
            self._parent.deliver(event)

    def close(self) -> None:
        """Close this bus's own sinks (not the parent's)."""
        for sink in self._sinks:
            sink.close()
