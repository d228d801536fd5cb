"""ProcStats / LatencyBreakdown serialization, merging and metrics
export."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.noc.mesh import NetworkStats
from repro.obs import MetricsRegistry
from repro.tflex.stats import LatencyBreakdown, ProcStats


class TestLatencyBreakdownRoundTrip:
    def test_empty(self):
        again = LatencyBreakdown.from_dict(LatencyBreakdown().to_dict())
        assert again.samples == 0
        assert again.components == Counter()
        assert again.means() == {}

    def test_components_missing_from_some_samples(self):
        # Real traces do this: one-core compositions record no
        # prediction latency, squeezed blocks no handoff, etc.  Every
        # sample bumps the count; only the present components grow.
        bd = LatencyBreakdown()
        bd.record(prediction=3, tag=1, pipeline=3)
        bd.record(tag=1, pipeline=3)                 # no prediction
        bd.record(tag=1, pipeline=3, handoff=2)      # late-appearing key
        assert bd.samples == 3
        assert bd.mean("prediction") == 1.0
        assert bd.mean("handoff") == 2 / 3
        again = LatencyBreakdown.from_dict(bd.to_dict())
        assert again.samples == bd.samples
        assert again.components == bd.components
        assert again.means() == bd.means()
        # A component never recorded still reads a zero mean.
        assert again.mean("distribution") == 0.0

    def test_dict_form_is_plain(self):
        data = LatencyBreakdown().to_dict()
        assert isinstance(data["components"], dict)
        assert not isinstance(data["components"], Counter)


def _populated_stats() -> ProcStats:
    stats = ProcStats(cycles=100, blocks_committed=10, insts_committed=55,
                      insts_fetched=80, blocks_fetched=12, blocks_squashed=2,
                      mispredictions=1, predictions=9, predictions_correct=8,
                      inflight_integral=250)
    stats.fetch_latency.record(prediction=3, tag=1, pipeline=3, dispatch=7)
    stats.fetch_latency.record(tag=1, pipeline=3)   # prediction/dispatch gap
    stats.commit_latency.record(state_update=4, handshake=6)
    stats.count("alu_op", 40)
    stats.count("lsq_search", 12)
    return stats


class TestProcStatsRoundTrip:
    def test_round_trip_preserves_everything(self):
        stats = _populated_stats()
        again = ProcStats.from_dict(stats.to_dict())
        assert again.to_dict() == stats.to_dict()
        assert again.ipc == stats.ipc
        assert again.prediction_accuracy == stats.prediction_accuracy
        assert again.avg_inflight_blocks == stats.avg_inflight_blocks
        assert again.fetch_latency.mean("prediction") == 1.5
        assert again.energy_events["alu_op"] == 40

    def test_fresh_stats_round_trip(self):
        again = ProcStats.from_dict(ProcStats().to_dict())
        assert again.cycles == 0
        assert again.fetch_latency.samples == 0
        assert again.energy_events == Counter()


_counts = st.integers(min_value=0, max_value=10**9)
_counters = st.dictionaries(st.sampled_from("abcdef"), _counts)
_breakdowns = st.builds(LatencyBreakdown, samples=_counts,
                        components=_counters.map(Counter))
_stats = st.builds(
    ProcStats, fetch_latency=_breakdowns, commit_latency=_breakdowns,
    energy_events=_counters.map(Counter),
    **{name: _counts for name in ProcStats._SCALAR_FIELDS})
_fast = settings(max_examples=50, deadline=None)


class TestProcStatsMerged:
    """``ProcStats.merged`` is the one merge: segments of a fault run
    sum exactly, sampled windows extrapolate by ``round(sum * factor)``
    per scalar, per breakdown component and per energy event."""

    @_fast
    @given(_stats)
    def test_one_part_round_trips(self, part):
        assert ProcStats.merged([part]).to_dict() == part.to_dict()

    @_fast
    @given(st.lists(_stats, max_size=4), st.floats(min_value=1.0,
                                                   max_value=500.0))
    def test_fieldwise_sum_then_rounded_factor(self, parts, factor):
        exact = ProcStats.merged(parts)
        scaled = ProcStats.merged(iter(parts), factor)

        def total(read):
            acc = Counter()     # update, not +: a zero count is kept
            for part in parts:
                acc.update(read(part))
            return acc

        for name in ProcStats._SCALAR_FIELDS:
            summed = sum(getattr(part, name) for part in parts)
            assert getattr(exact, name) == summed
            assert getattr(scaled, name) == round(summed * factor)
        for phase in ("fetch_latency", "commit_latency"):
            samples = sum(getattr(part, phase).samples for part in parts)
            assert getattr(exact, phase).samples == samples
            assert getattr(scaled, phase).samples == round(samples * factor)
            components = total(lambda part: getattr(part, phase).components)
            assert getattr(exact, phase).components == components
            assert getattr(scaled, phase).components == {
                name: round(n * factor) for name, n in components.items()}
        events = total(lambda part: part.energy_events)
        assert exact.energy_events == events
        assert scaled.energy_events == {
            name: round(n * factor) for name, n in events.items()}


class TestProcStatsToMetrics:
    def test_breakdowns_sum_back_exactly(self):
        stats = _populated_stats()
        reg = MetricsRegistry()
        stats.to_metrics(reg, proc="p0")
        assert reg.counter("tflex.blocks_committed", proc="p0") == 10
        assert reg.counter("tflex.fetch_latency_blocks", proc="p0") == 2
        for comp, cycles in stats.fetch_latency.components.items():
            assert reg.counter("tflex.fetch_latency_cycles",
                               component=comp, proc="p0") == cycles
        assert reg.counter_total("tflex.commit_latency_cycles") == \
               sum(stats.commit_latency.components.values())
        assert reg.counter("tflex.energy_events", event="alu_op",
                           proc="p0") == 40

    def test_two_procs_keep_separate_series(self):
        reg = MetricsRegistry()
        _populated_stats().to_metrics(reg, proc="a")
        _populated_stats().to_metrics(reg, proc="b")
        assert reg.counter("tflex.cycles", proc="a") == 100
        assert reg.counter_total("tflex.cycles") == 200


class TestNetworkStats:
    def test_to_metrics_gauges_overwrite(self):
        reg = MetricsRegistry()
        stats = NetworkStats(messages=3, hops=7, total_latency=11)
        stats.to_metrics(reg, net="opn")
        stats.messages = 9      # later flush of the cumulative totals
        stats.to_metrics(reg, net="opn")
        assert reg.gauge("noc.messages", net="opn") == 9
        assert reg.gauge("noc.hops", net="opn") == 7
