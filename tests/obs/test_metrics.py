"""MetricsRegistry: series identity, recording, snapshot export."""

from repro.obs import MetricsRegistry, format_series


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("noc.messages")
        reg.inc("noc.messages", 4)
        assert reg.counter("noc.messages") == 5

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.inc("noc.messages", 2, net="opn")
        reg.inc("noc.messages", 3, net="control")
        assert reg.counter("noc.messages", net="opn") == 2
        assert reg.counter("noc.messages", net="control") == 3
        assert reg.counter_total("noc.messages") == 5

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.counter("x", b=2, a=1) == 2
        assert reg.snapshot()["counters"] == {"x{a=1,b=2}": 2}

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0.0


class TestGauges:
    def test_last_value_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("inflight", 3)
        reg.set_gauge("inflight", 7)
        assert reg.snapshot()["gauges"] == {"inflight": 7}

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().snapshot()["gauges"].get("nope") is None


class TestHistograms:
    def test_summary_stats(self):
        reg = MetricsRegistry()
        for value in (1, 2, 3, 10):
            reg.observe("duration", value)
        hist = reg.snapshot()["histograms"]["duration"]
        assert hist["count"] == 4
        assert hist["sum"] == 16
        assert hist["min"] == 1
        assert hist["max"] == 10
        assert hist["mean"] == 4.0

    def test_bucket_placement(self):
        reg = MetricsRegistry()
        reg.observe("d", 1)      # <= 2**0 -> bucket 0
        reg.observe("d", 2)      # <= 2**1 -> bucket 1
        reg.observe("d", 3)      # <= 2**2 -> bucket 2
        reg.observe("d", 1e30)   # overflow slot
        buckets = reg.snapshot()["histograms"]["d"]["buckets"]
        assert buckets[0] == 1
        assert buckets[1] == 1
        assert buckets[2] == 1
        assert buckets[-1] == 1


class TestExport:
    def test_format_series(self):
        assert format_series("a.b", ()) == "a.b"
        assert format_series("a.b", (("k", "v"), ("n", 2))) == "a.b{k=v,n=2}"

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("jobs", 2, status="ok")
        reg.set_gauge("load", 0.5)
        reg.observe("dur", 4.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"jobs{status=ok}": 2}
        assert snap["gauges"] == {"load": 0.5}
        assert snap["histograms"]["dur"]["count"] == 1
        import json
        json.dumps(snap)     # JSON-safe all the way down

    def test_render_and_series_listing(self):
        reg = MetricsRegistry()
        reg.inc("b.z")
        reg.inc("a.y")
        assert sorted(reg.snapshot()["counters"]) == ["a.y", "b.z"]
        text = reg.render()
        assert text.index("a.y") < text.index("b.z")

    def test_empty_render(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"
