#!/usr/bin/env python3
"""A deterministic work ledger: executed bytecodes and Python calls.

Wall-clock on a shared host moves by tens of percent with no code
change; the number of bytecodes the interpreter executes for one fixed
job does not move at all.  This tool counts them — per function and in
total, with ``sys.settrace`` and per-frame ``f_trace_opcodes`` — for one
of three jobs, each built outside the counted region::

    python3 benchmarks/opcount.py conv 1        # Interpreter(program).run()
    python3 benchmarks/opcount.py conv 4 1      # simulate_spec, 4 cores
    python3 benchmarks/opcount.py conv 4 8 --sample 300,12,4
                                                # ... sampled: FF,WINDOW,WARMUP

A sampled job also prints the opcodes executed inside
``SampledRun._fast_forward`` per fast-forward block (live
interpretation and warm-up: no trace store is configured).

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


def count(job, scope=None) -> tuple[Counter, Counter, int]:
    """Run ``job()`` traced; ``(opcodes, calls)`` keyed by code object,
    and the opcodes executed while a frame of the code object ``scope``
    (not recursive) was live."""
    opcodes: Counter = Counter()
    calls: Counter = Counter()
    scoped = [None, 0]              # the live scope frame, its opcodes

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
            if scoped[0] is not None:
                scoped[1] += 1
        elif event == "return" and frame is scoped[0]:
            scoped[0] = None
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        if frame.f_code is scope:
            scoped[0] = frame
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        job()
    finally:
        sys.settrace(None)
    return opcodes, calls, scoped[1]


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


def build_job(bench: str, numbers: list[int], sample=None):
    """The job to count, its title and, for a sampled job, its spec;
    everything the job needs is built."""
    from repro.harness.simulate import cached_program, simulate_spec

    if len(numbers) == 1:
        from repro.isa import Interpreter

        program, __, __ = cached_program("edge", bench, numbers[0])
        interp = Interpreter(program)
        return interp.run, f"interp {bench} scale={numbers[0]}", None
    from repro.exec.spec import JobSpec

    ncores, scale = numbers
    title = f"simulate_spec {bench} ncores={ncores} scale={scale}"
    sampling = None
    if sample is not None:
        ff, window, warmup = sample
        sampling = {"ff_blocks": ff, "window_blocks": window,
                    "warmup_blocks": warmup}
        title += f" sample={ff},{window},{warmup}"
    spec = JobSpec.edge(bench, ncores, scale=scale, sampling=sampling)
    cached_program("edge", bench, scale)
    return (lambda: simulate_spec(spec), title,
            spec if sampling else None)


def fast_forward_blocks(spec) -> int:
    """The blocks a sampled spec fast-forwards (an uncounted rerun)."""
    from repro.sample.engine import SampledRun

    run = SampledRun(spec)
    run.run()
    return run.blocks - sum(w.stats.blocks_committed for w in run.windows)


def sampling_triple(text: str) -> tuple[int, int, int]:
    numbers = tuple(int(part) for part in text.split(","))
    if len(numbers) != 3:
        raise argparse.ArgumentTypeError("give FF,WINDOW,WARMUP")
    return numbers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench")
    parser.add_argument("numbers", type=int, nargs="+", metavar="N",
                        help="<scale> (interpreter) or <ncores> <scale> "
                             "(simulate_spec)")
    parser.add_argument("--sample", type=sampling_triple,
                        metavar="FF,WINDOW,WARMUP",
                        help="sample the simulate_spec job with this "
                             "schedule (blocks)")
    args = parser.parse_args(argv)
    if len(args.numbers) > 2:
        parser.error("give <scale> or <ncores> <scale>")
    if args.sample and len(args.numbers) != 2:
        parser.error("--sample needs <ncores> <scale>")
    job, title, spec = build_job(args.bench, args.numbers, args.sample)
    scope = None
    if spec is not None:
        from repro.sample.engine import SampledRun

        scope = SampledRun._fast_forward.__code__
    opcodes, calls, scoped = count(job, scope)
    rows = ledger(opcodes, calls)
    print(f"# opcount: {title}")
    print(f"{sum(row[1] for row in rows):>12} opcodes  "
          f"{sum(row[2] for row in rows):>9} calls  total")
    if spec is not None:
        blocks = fast_forward_blocks(spec)
        print(f"{scoped / max(blocks, 1):>12.1f} opcodes  per fast-forward "
              f"block ({scoped} in SampledRun._fast_forward, {blocks} "
              f"blocks)")
    for name, nops, ncalls in rows:
        print(f"{nops:>12} opcodes  {ncalls:>9} calls  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
