"""Tests for block-lifecycle tracing and the timeline renderer."""

from repro.tflex import TFLEX, TFlexSystem, rectangle
from repro.tflex.trace import BlockTrace, render_timeline

from tests.sample_programs import ALL_SAMPLES


def traced_run(name="counted_loop", ncores=4):
    system = TFlexSystem(TFLEX)
    program, __ = ALL_SAMPLES[name]()
    proc = system.compose(rectangle(TFLEX, ncores, (0, 0)), program)
    proc.enable_block_trace()
    system.run()
    return proc


class TestBlockTrace:
    def test_every_committed_block_traced(self):
        proc = traced_run()
        assert len(proc.block_trace) == proc.stats.blocks_committed

    def test_milestones_ordered(self):
        proc = traced_run()
        for trace in proc.block_trace:
            assert trace.fetch_start <= trace.fetch_cmd
            assert trace.fetch_cmd <= trace.complete
            assert trace.complete <= trace.commit_start
            assert trace.commit_start <= trace.committed
            assert trace.committed > trace.fetch_start

    def test_commits_in_order(self):
        proc = traced_run()
        commit_times = [t.committed for t in proc.block_trace]
        assert commit_times == sorted(commit_times)

    def test_pipelining_visible(self):
        """With 4 cores, successive blocks' lifetimes overlap (fetch of
        block k+1 begins before block k commits)."""
        proc = traced_run(ncores=4)
        traces = sorted(proc.block_trace, key=lambda t: t.gseq)
        overlaps = sum(
            1 for a, b in zip(traces, traces[1:])
            if b.fetch_start < a.committed
        )
        assert overlaps > len(traces) // 2

    def test_disabled_by_default(self):
        system = TFlexSystem(TFLEX)
        program, __ = ALL_SAMPLES["counted_loop"]()
        proc = system.compose(rectangle(TFLEX, 2, (0, 0)), program)
        system.run()
        assert getattr(proc, "block_trace", None) is None


class TestRenderer:
    def test_renders_rows_and_legend(self):
        proc = traced_run()
        text = render_timeline(proc.block_trace)
        assert "legend" in text
        assert text.count("B") >= proc.stats.blocks_committed
        for char in "fxc":
            assert char in text

    def test_empty_trace(self):
        assert "no blocks" in render_timeline([])

    def test_width_respected(self):
        proc = traced_run()
        text = render_timeline(proc.block_trace, width=40)
        for line in text.splitlines()[1:-1]:
            assert len(line) <= 40 + 20   # row label + chart

    @staticmethod
    def _trace(gseq=0, fetch_start=0, fetch_cmd=4, complete=8,
               commit_start=8, committed=10, label="blk"):
        return BlockTrace(gseq=gseq, label=label, owner_index=0,
                          fetch_start=fetch_start, fetch_cmd=fetch_cmd,
                          complete=complete, commit_start=commit_start,
                          committed=committed)

    def test_commit_never_hides_execute(self):
        """When scaling squeezes commit into execute's column, the
        commit glyph spills right instead of overwriting (regression:
        the commit used to be drawn last and always won the cell)."""
        squeezed = self._trace(fetch_start=0, fetch_cmd=100, complete=110,
                               commit_start=110, committed=200)
        long = self._trace(gseq=1, fetch_start=0, fetch_cmd=400,
                           complete=900, commit_start=900, committed=1000)
        text = render_timeline([squeezed, long], width=11)
        row = text.splitlines()[1]
        chart = row.split("blk")[-1]
        assert "x" in chart and "c" in chart and "f" in chart
        assert chart.index("x") < chart.index("c")

    def test_fully_squeezed_row_shows_phase_order(self):
        """All three phases in one column still render f, x, c left to
        right (deterministic spill), never a lone commit glyph."""
        tiny = self._trace(fetch_start=0, fetch_cmd=1, complete=2,
                           commit_start=2, committed=3)
        long = self._trace(gseq=1, fetch_start=0, fetch_cmd=400,
                           complete=900, commit_start=900, committed=1000)
        text = render_timeline([tiny, long], width=10)
        chart = text.splitlines()[1]
        assert chart.index("f") < chart.index("x") < chart.index("c")

    def test_tiny_width_clamped(self):
        """width < 2 used to degenerate (zero scale, divide-into-nothing
        columns); it is now clamped and still renders every phase."""
        for width in (-5, 0, 1):
            text = render_timeline([self._trace()], width=width)
            assert "legend" in text
            row = text.splitlines()[1]
            assert "f" in row or "x" in row or "c" in row

    def test_deterministic(self):
        traces = [self._trace(gseq=i, fetch_start=i, fetch_cmd=i + 3,
                              complete=i + 9, commit_start=i + 9,
                              committed=i + 12) for i in range(6)]
        assert render_timeline(traces) == render_timeline(list(reversed(traces)))
