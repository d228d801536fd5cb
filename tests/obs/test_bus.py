"""TraceBus and sinks: delivery, forking, JSONL output."""

import json

import repro.obs as obs
from repro.obs import (
    CallbackSink,
    JsonlSink,
    Observability,
    RingBufferSink,
    TraceBus,
)


class TestBus:
    def test_inactive_without_sinks(self):
        bus = TraceBus()
        assert not bus.active
        bus.emit("x", a=1)       # no sink: silently dropped

    def test_delivery_to_all_sinks(self):
        bus = TraceBus()
        ring1 = bus.attach(RingBufferSink())
        ring2 = bus.attach(RingBufferSink())
        bus.emit("block.commit", gseq=3)
        assert list(ring1.events) == [{"kind": "block.commit", "gseq": 3}]
        assert list(ring2.events) == list(ring1.events)

    def test_detach(self):
        bus = TraceBus()
        ring = bus.attach(RingBufferSink())
        bus._sinks.remove(ring)
        assert not bus.active
        bus.emit("x")
        assert len(ring) == 0

    def test_fork_reaches_parent_sinks(self):
        parent = TraceBus()
        parent_ring = parent.attach(RingBufferSink())
        child = TraceBus(parent=parent)
        child_ring = child.attach(RingBufferSink())
        child.emit("scoped", n=1)
        parent.emit("global", n=2)
        assert [e["kind"] for e in parent_ring.events] == ["scoped", "global"]
        # The fork's private sink sees only the fork's own events.
        assert [e["kind"] for e in child_ring.events] == ["scoped"]

    def test_fork_active_follows_parent(self):
        parent = TraceBus()
        child = TraceBus(parent=parent)
        assert not child.active
        parent.attach(RingBufferSink())
        assert child.active


class TestSinks:
    def test_ring_capacity(self):
        ring = RingBufferSink(capacity=2)
        for i in range(5):
            ring.emit({"kind": "e", "i": i})
        assert [e["i"] for e in ring.events] == [3, 4]

    def test_ring_kind_filter(self):
        ring = RingBufferSink(kinds=("keep",))
        ring.emit({"kind": "keep"})
        ring.emit({"kind": "drop"})
        assert len(ring) == 1
        assert ring.of_kind("keep") == [{"kind": "keep"}]

    def test_callback_filtering(self):
        seen = []
        sink = CallbackSink(seen.append, kinds=("a",))
        sink.emit({"kind": "a"})
        sink.emit({"kind": "b"})
        assert seen == [{"kind": "a"}]

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"kind": "a", "n": 1})
        sink.emit({"kind": "b", "s": "text"})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"kind": "a", "n": 1}, {"kind": "b", "s": "text"}]
        assert sink.events_written == 2


class TestObservability:
    def test_inactive_by_default(self):
        assert not Observability().active

    def test_active_with_sink_or_metrics_or_profiler(self):
        o = Observability()
        o.bus.attach(RingBufferSink())
        assert o.active
        assert Observability(metrics_enabled=True).active
        o2 = Observability()
        o2.profiler.enabled = True
        assert o2.active

    def test_fork_shares_registry(self):
        parent = Observability(metrics_enabled=True)
        ring = RingBufferSink()
        child = parent.fork(ring)
        child.metrics.inc("x")
        assert parent.metrics.counter("x") == 1
        child.emit("e")
        assert len(ring) == 1

    def test_snapshot_event_is_json_safe(self):
        o = Observability(metrics_enabled=True)
        o.metrics.inc("c", proc="p0")
        event = o.snapshot_event()
        assert event["kind"] == "metrics.snapshot"
        json.dumps(event)


class TestGlobal:
    def test_default_is_inactive(self):
        assert not obs.current().active

    def test_configure_trace_and_reset(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configured = obs.configure(trace_path=path, metrics=True)
        assert obs.current() is configured
        assert configured.active
        configured.emit("hello", n=1)
        obs.reset()                       # closes the sink
        assert not obs.current().active
        assert json.loads(path.read_text()) == {"kind": "hello", "n": 1}

    def test_configure_metrics_only(self):
        configured = obs.configure(metrics=True)
        assert configured.active
        assert not configured.bus.active
