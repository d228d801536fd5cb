#!/usr/bin/env python3
"""A deterministic work ledger: executed bytecodes and Python calls.

Wall-clock on a shared host moves by tens of percent with no code
change; the number of bytecodes the interpreter executes for one fixed
job does not move at all.  This tool counts them — per function and in
total, with ``sys.settrace`` and per-frame ``f_trace_opcodes`` — for one
of two jobs, both built outside the counted region::

    python3 benchmarks/opcount.py conv 1        # Interpreter(program).run()
    python3 benchmarks/opcount.py conv 4 1      # simulate_spec, 4 cores

A count is evidence about *work*, not a speed-up: it omits everything C
does (dict probes, big-int arithmetic, ``struct``) and all waiting.  It
is for aiming and for diffing a hot-path change (CI uploads
``opcount.txt``); performance claims come from ``benchmarks/perf`` only
(docs/PERFORMANCE.md).  The interpreter's compiled block paths are
pooled into one row, so the listing does not grow with the program.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.isa.interp import PATH_FILENAME_PREFIX  # noqa: E402


def count(job) -> tuple[Counter, Counter]:
    """Run ``job()`` traced; ``(opcodes, calls)`` keyed by code object."""
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        job()
    finally:
        sys.settrace(None)
    return opcodes, calls


def function_name(code) -> str:
    filename = code.co_filename
    if filename.startswith(PATH_FILENAME_PREFIX):   # one per learnt segment
        filename = PATH_FILENAME_PREFIX + ">"
    elif not filename.startswith("<"):
        try:
            filename = str(pathlib.Path(filename).resolve().relative_to(ROOT))
        except ValueError:
            filename = pathlib.Path(filename).name
    return f"{filename}:{getattr(code, 'co_qualname', code.co_name)}"


def ledger(opcodes: Counter, calls: Counter) -> list[tuple[str, int, int]]:
    """``(function, opcodes, calls)`` rows, most opcodes first."""
    rows: dict[str, list[int]] = {}
    for code in calls:
        row = rows.setdefault(function_name(code), [0, 0])
        row[0] += opcodes[code]
        row[1] += calls[code]
    return sorted(((name, *row) for name, row in rows.items()),
                  key=lambda row: (-row[1], row[0]))


def build_job(bench: str, numbers: list[int]):
    """The job to count and its title; everything it needs is built."""
    from repro.harness.simulate import cached_program, simulate_spec

    if len(numbers) == 1:
        from repro.isa import Interpreter

        program, __, __ = cached_program("edge", bench, numbers[0])
        interp = Interpreter(program)
        return interp.run, f"interp {bench} scale={numbers[0]}"
    from repro.exec.spec import JobSpec

    ncores, scale = numbers
    spec = JobSpec.edge(bench, ncores, scale=scale)
    cached_program("edge", bench, scale)
    return (lambda: simulate_spec(spec),
            f"simulate_spec {bench} ncores={ncores} scale={scale}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench")
    parser.add_argument("numbers", type=int, nargs="+", metavar="N",
                        help="<scale> (interpreter) or <ncores> <scale> "
                             "(simulate_spec)")
    args = parser.parse_args(argv)
    if len(args.numbers) > 2:
        parser.error("give <scale> or <ncores> <scale>")
    job, title = build_job(args.bench, args.numbers)
    rows = ledger(*count(job))
    print(f"# opcount: {title}")
    print(f"{sum(row[1] for row in rows):>12} opcodes  "
          f"{sum(row[2] for row in rows):>9} calls  total")
    for name, nops, ncalls in rows:
        print(f"{nops:>12} opcodes  {ncalls:>9} calls  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
