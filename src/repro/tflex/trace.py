"""Block-lifecycle tracing and ASCII timeline rendering.

Enable with :meth:`ComposedProcessor.enable_block_trace` before running;
every committed block then records its protocol milestones (consumed
from the processor's ``block.commit`` events on a private fork of the
``repro.obs`` trace bus).  The
timeline renderer draws fetch/execute/commit phases per block — the
textual equivalent of the paper's figure 2 pipeline diagram, useful for
teaching and for eyeballing protocol overlap.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockTrace:
    """Milestones of one committed block (absolute cycles)."""

    gseq: int
    label: str
    owner_index: int
    fetch_start: int
    fetch_cmd: int
    complete: int
    commit_start: int
    committed: int


def render_timeline(traces: list[BlockTrace], width: int = 72) -> str:
    """ASCII Gantt chart: one row per block.

    Legend: ``f`` fetch/dispatch, ``x`` execute (fetch command to
    completion), ``c`` commit protocol.

    When the scale squeezes adjacent phases into the same column, the
    earlier pipeline phase keeps the cell (a commit glyph never hides
    execution); a phase whose entire span lands on already-claimed
    cells takes the first free column to its right instead, falling
    back to overwriting its own last column at the chart edge, so every
    phase stays visible and placement is deterministic.  ``width`` is
    clamped to at least 2 columns.
    """
    if not traces:
        return "(no blocks traced)"
    width = max(2, int(width))
    t0 = min(t.fetch_start for t in traces)
    t1 = max(t.committed for t in traces)
    span = max(1, t1 - t0)
    scale = (width - 1) / span

    def col(cycle: int) -> int:
        return int((cycle - t0) * scale)

    lines = [f"cycles {t0}..{t1}  ({span} total; "
             f"1 column ~ {max(1, round(span / width))} cycles)"]
    for trace in sorted(traces, key=lambda t: t.gseq):
        row = [" "] * width
        for start, end, char in (
                (trace.fetch_start, trace.fetch_cmd, "f"),
                (trace.fetch_cmd, trace.complete, "x"),
                (trace.commit_start, trace.committed, "c")):
            cells = [i for i in range(col(start), max(col(start) + 1, col(end)))
                     if 0 <= i < width]
            blank = [i for i in cells if row[i] == " "]
            for i in blank:
                row[i] = char
            if cells and not blank:
                spill = next((i for i in range(cells[-1] + 1, width)
                              if row[i] == " "), cells[-1])
                row[spill] = char
        lines.append(f"B{trace.gseq:<4} {trace.label:<12} {''.join(row)}")
    lines.append("legend: f fetch  x execute  c commit "
                 "(overlapping rows = pipelined blocks)")
    return "\n".join(lines)
