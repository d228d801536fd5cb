"""Traffic census: the ``src/repro`` functions a fixed traffic list never runs.

``tests/test_reach.py`` asks whether any line names a definition; a
cluster of definitions that only reach each other passes it.  This
script asks what runs, and closes the answer: every definition either
runs or has a reason.  It copies the tree to a temporary directory and
runs :data:`TRAFFIC` there — every example, the CLI commands and the
figure harnesses, at small sizes and ``--jobs 1``, plus one ``--jobs 2``
sweep through the worker pool and a sampled run in a fresh process that
replays the trace an earlier one stored.  Each Python process gets a
profiler (``sys.setprofile`` and ``threading.setprofile``, installed by
a ``sitecustomize`` module put first on ``PYTHONPATH``) that writes the
code objects it ran when the process exits — at exit, or in
``os._exit``, which a forked pool worker leaves by.  The script then
prints every function definition under ``src/repro`` whose code never
ran, and a count: first those :data:`REASONS` explains, each with its
reason, then the rest.

Run it from the repo root::

    PYTHONPATH=src python tests/census.py > census.txt

It is a gate: it exits 1 if a traffic command fails, if a definition
never ran and :data:`REASONS` does not explain it (delete it, give it
traffic, or give the reason), or if a :data:`REASONS` entry is stale —
its definition ran, or there is no such definition.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".repro-cache")

_PAIR = ("--bench", "conv", "--bench", "gzip")
_SWEEP = ("--jobs", "1", "--cache-dir", "{store}")

#: What runs, in order: ``("example", script)``, ``("repro", argv)``
#: (``{store}`` is one result store shared by every command), or
#: ``("pytest", argv)`` from the tree's root.
TRAFFIC = [
    *(("example", f"examples/{name}.py") for name in (
        "quickstart", "composition_sweep", "custom_kernel",
        "multiprogramming", "os_reallocation", "smt_vs_composition")),
    ("repro", ("list",)),
    # The full parser, which a named command's run never builds.
    ("repro", ("--help",)),
    ("repro", ("run", "conv", "--cores", "4", "--cache-dir", "{store}")),
    # Records a trace with metrics on, which reports it (trace.record).
    ("repro", ("run", "conv", "--cores", "4", "--sample", "--metrics",
               "--cache-dir", "{store}")),
    # Another composition, so a result miss that replays the stored blob.
    ("repro", ("run", "conv", "--cores", "8", "--sample",
               "--cache-dir", "{store}")),
    # Observability output, on a store of its own so both simulate: the
    # metrics report, and a JSONL event trace with its closing snapshot.
    ("repro", ("run", "dither", "--cores", "2", "--sample", "--metrics",
               "--cache-dir", "{store}-obs")),
    ("repro", ("run", "dither", "--cores", "4", "--trace-out",
               "{store}-trace.jsonl", "--cache-dir", "{store}-obs")),
    # The OoO baseline alone, and one run whose working set overflows
    # an L1 into the L2 and an L2 set back out of the L1s (an eviction
    # and a recall; no figure run does either, EXPERIMENTS.md fig5).
    ("repro", ("run", "conv", "--machine", "ooo", "--cache-dir", "{store}")),
    ("repro", ("run", "equake", "--cores", "1", "--scale", "64",
               "--cache-dir", "{store}")),
    ("repro", ("disasm", "conv")),
    ("repro", ("timeline", "conv", "--cores", "4")),
    ("repro", ("profile", "conv", "--cores", "4")),
    ("repro", ("lint",)),
    ("repro", ("lint", "--format", "json")),
    *(("repro", (fig, *_PAIR, *_SWEEP)) for fig in (
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2")),
    ("repro", ("sweep", "conv", *_SWEEP)),
    ("repro", ("sweep", "gzip", *_SWEEP)),
    ("repro", ("resil", "--cores", "8", "--max-dead", "2", *_PAIR,
               "--out", "{store}-figR.json", *_SWEEP)),
    ("repro", ("search", *_PAIR, "--max-candidates", "5",
               "--out", "{store}-best.json", *_SWEEP)),
    ("repro", ("fig6", "--scale", "2", "--sample", *_PAIR, *_SWEEP)),
    # A store of its own, so the pool's workers simulate.
    ("repro", ("fig6", *_PAIR, "--jobs", "2", "--cache-dir", "{store}-pool")),
    ("repro", ("cache", "gc", "--dry-run", "--max-bytes", "1M",
               "--cache-dir", "{store}")),
    ("pytest", ("-q", "-p", "no:cacheprovider", "benchmarks",
                "--ignore=benchmarks/perf")),
]

_ERROR = "an error or debug path, which no correct run takes"
_RETRY = "a worker crash or a retry, which no correct run takes"
_INJECT = ("a fault only `repro run --inject` schedules: a mid-run core "
           "kill and the recomposition it starts, or a degraded link "
           "(figR injects only boot-time dead cores)")
_RAS = ("the distributed RAS and the calls that would use it: the suite "
        "has no call (ROADMAP item 8)")
_TARGET = "the paper's 9-bit target format, which docs/ISA.md keeps"
_GOLDEN = "golden fixture regeneration, run by hand for a model change"
_DEBUG = "a `__repr__` debug aid, which no run prints"
_LINT = ("a lint finding's report, which a tree that lints clean (CI's "
         "gate) never makes")
_SPLIT = ("block splitting: no shipped kernel's straight-line code "
          "overflows one block (tests/compiler forces it)")
_BENCH = ("a reader only benchmarks/perf calls, which the traffic does "
          "not run (its files are the benchmark contract's)")

#: The reason every test-only seam gives: a module-level function or
#: class that only tests call, on purpose.  ``tests/test_reach.py``
#: derives its allow-list from the entries that give it.
TESTS_ONLY = "a seam or reference only tests call, on purpose"

#: Definitions the traffic never runs on purpose: ``module.qualname``
#: (the module file's stem, then the name as printed) -> why.  Every
#: other definition runs; an entry whose definition runs is stale.
REASONS = {
    "datapath.DatapathMixin._bad_address": _ERROR,
    "system.TFlexSystem._dump": _ERROR,
    "cli._OneCommandParser.error": _ERROR,
    "runner.prewarm_specs": (
        "the harness's public batch call, which tests drive and "
        "benchmarks/perf wraps; the program's own sweeps batch through "
        "`run_all`, which hashes each spec once and reads back by key"),
    "processor.ComposedProcessor.debug_state": _ERROR,
    "isa.RInst.describe": _ERROR,
    **{f"pool.WorkerPool.{name}": _RETRY
       for name in ("_respawn", "_lost", "_stop")},
    "executor.ParallelExecutor._note_retry": _RETRY,
    "progress.ProgressReporter.note_retry": _RETRY,
    "runner.JobFailed.__init__": _RETRY,
    **{f"recompose.{name}": _INJECT for name in (
        "RecompositionEngine.on_core_failure", "RecompositionEngine._recover",
        "RecompositionEngine._resume",
        "RecompositionEngine._recovery_latency", "RecoveryReport.to_dict",
        "transfer_ras")},
    "protocol.ProtocolMixin.interrupt": _INJECT,
    "mesh.Network.degrade_link": _INJECT,
    "mesh.Network._delay_degraded": _INJECT,
    "injector.FaultInjector._fire_kill": _INJECT,
    "injector.FaultInjector._nets": _INJECT,
    "faults.parse_inject": _INJECT,
    "mesh.Topology.distance": (
        "a hop count off the routing path: a dirty line forwarded from "
        "another core's L1 (only after a recomposition moves a bank), a "
        "RAS return's round trip, a degraded link or a recovery"),
    **{f"ras.DistributedRas.{name}": _RAS for name in (
        "core_of_slot", "top_core", "depth", "checkpoint", "push", "pop",
        "restore")},
    "edge_backend._EdgeFunc._emit_call": _RAS,
    "risc_backend._RiscFunc._emit_call": _RAS,
    "builder.BlockBuilder.label_address": _RAS,
    "mesh.Network.zero_load_delay": _RAS,
    "instruction.Target.encode": _TARGET,
    "instruction.Target.decode": _TARGET,
    **{f"golden.{name}": _GOLDEN for name in (
        "_fig6_payload", "_normalized_payload", "_fig9_payload",
        "_fig10_payload", "collect_fixtures", "write_fixtures", "main")},
    **{name: _DEBUG for name in (
        "instruction.LabelRef.__repr__", "instruction.Instruction.__repr__",
        "interp._NullToken.__repr__", "opcodes.OpSpec.__repr__",
        "datapath._NullValue.__repr__", "instance.BlockInstance.__repr__")},
    "_lazy.lazy_exports.__dir__": (
        "the `dir()` protocol of a lazily exporting package: tab "
        "completion and `dir(repro.exec)`, which no run calls"),
    **{name: _LINT for name in (
        "determinism._check_set_iteration.flag", "findings.Finding.to_dict",
        "findings.Finding.render")},
    **{name: _SPLIT for name in (
        "edge_backend._EdgeFunc._close_jump", "edge_backend._EdgeFunc._split",
        "builder.BlockBuilder.size")},
    "builder.BlockBuilder.null_write": (
        "the ISA's NULL register write: the compiler merges predicated "
        "values with a phi instead, so only hand-built programs (the "
        "tests') resolve a write slot with NULL"),
    "bus.Sink.emit": "the sink interface's abstract method",
    "bus.Sink.close": (
        "the no-op close a callback sink inherits; nothing closes a "
        "processor's block-trace sink"),
    "profile.PhaseProfiler.phase": (
        "a profiled sampled or fault-injected run: `repro profile` runs "
        "one full-detail spec (benchmarks/perf's traced rep profiles the "
        "sampled workloads)"),
    "trace.reset_ff_trace": (
        "a store reconfigured after a sampled run imported the trace "
        "module, which tests and benchmarks/perf do; a CLI command "
        "configures the store once, first"),
    **{name: _BENCH for name in (
        "spec.JobSpec.from_dict", "sweeps.FigBestResult.objectives",
        "sweeps.FigBestResult.best_ncores",
        "sweeps.FigBestResult.detailed_jobs",
        "halving.SearchResult.best_ncores", "metrics.MetricsRegistry.counter",
        "metrics.MetricsRegistry.counter_total",
        "profile.PhaseProfiler.seconds", "profile.PhaseProfiler.calls",
        "trace.configure_ff_trace")},
    **{name: TESTS_ONLY for name in (
        # The in-memory sink tests read events from.
        "bus.RingBufferSink.__init__", "bus.RingBufferSink.emit",
        "bus.RingBufferSink.of_kind", "bus.RingBufferSink.__len__",
        # The seam TestRespawn uses to break a worker's pipe.
        "worker.current_connection",
        # The exhaustive reference the DP allocator is tested against.
        "allocator.brute_force_assignment",
        # The reference count placement tests compare against.
        "schedule.cross_core_edges",
        # The golden reader the fixture tests use.
        "golden.load_fixture",
        # The seam tests use to assert that a warm replay simulates
        # nothing.
        "simulate.simulation_count")},
}

#: Written as ``sitecustomize.py``; ``{src}`` and ``{out}`` are filled in.
_PROFILER = '''\
import atexit, json, os, sys, tempfile, threading

_seen = set()


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


sys.setprofile(_profile)
threading.setprofile(_profile)


@atexit.register
def _dump():
    sys.setprofile(None)
    ran = sorted({{(code.co_filename, code.co_firstlineno) for code in _seen
                  if code.co_filename.startswith({src!r})}})
    fd, __ = tempfile.mkstemp(dir={out!r}, suffix=".json")
    with open(fd, "w") as handle:
        json.dump(ran, handle)


def _exit(status, _exit=os._exit):
    _dump()
    _exit(status)


os._exit = _exit
'''


def definitions(src: pathlib.Path):
    """Every function definition under ``src``: ``(path, first line,
    qualified name, lines)``, the first line being the first
    decorator's, as the code object's ``co_firstlineno`` is."""
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    yield (path, first, prefix + child.name,
                           child.end_lineno - first + 1)
                    yield from walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.")
                else:
                    yield from walk(child, prefix)
        yield from walk(tree, "")


def _command(kind, argv, tree: pathlib.Path, store: pathlib.Path):
    if kind == "example":
        return [sys.executable, str(tree / argv)]
    if kind == "repro":
        return [sys.executable, "-m", "repro",
                *(arg.format(store=store) for arg in argv)]
    return [sys.executable, "-m", "pytest", *argv]


def main() -> int:
    failed = 0
    ran = set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        tree, out, site = tmp / "tree", tmp / "out", tmp / "site"
        shutil.copytree(ROOT, tree, ignore=_COPY_IGNORE)
        out.mkdir()
        site.mkdir()
        src = tree / "src"
        (site / "sitecustomize.py").write_text(
            _PROFILER.format(src=str(src / "repro"), out=str(out)),
            encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(site), str(src)]), PYTHONDONTWRITEBYTECODE="1")
        for kind, argv in TRAFFIC:
            # Examples and CLI commands run from an empty directory, so
            # nothing they write lands in the tree.
            cwd = tree if kind == "pytest" else pathlib.Path(
                tempfile.mkdtemp(dir=tmp))
            command = _command(kind, argv, tree, tmp / "store")
            done = subprocess.run(command, cwd=cwd, env=env, text=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
            if done.returncode:
                failed += 1
                print(f"FAILED (exit {done.returncode}): "
                      f"{' '.join(command[1:])}\n{done.stderr[-2000:]}",
                      file=sys.stderr)
        for dump in out.glob("*.json"):
            ran.update((filename, line)
                       for filename, line in json.loads(dump.read_text()))
        defs = list(definitions(src / "repro"))
        never = [(path.relative_to(tree), line, name, lines)
                 for path, line, name, lines in defs
                 if (str(path), line) not in ran]
    def key(row):
        return f"{row[0].stem}.{row[2]}"

    explained = [row for row in never if key(row) in REASONS]
    unexplained = [row for row in never if key(row) not in REASONS]
    for row in explained:
        path, line, name, lines = row
        print(f"{path}:{line} {name} ({lines} lines): {REASONS[key(row)]}")
    print(f"{len(explained)} of them explained above\n")
    for path, line, name, lines in unexplained:
        print(f"{path}:{line} {name} ({lines} lines)")
    stale = sorted(set(REASONS) - {key(row) for row in never})
    if stale:
        print(f"REASONS entries whose definition ran or does not exist: "
              f"{', '.join(stale)}")
    print(f"{len(never)} of {len(defs)} function definitions "
          f"({sum(lines for *__, lines in never)} lines) never ran, "
          f"{len(explained)} ({sum(row[3] for row in explained)} lines) "
          f"explained, {len(unexplained)} "
          f"({sum(row[3] for row in unexplained)} lines) unexplained")
    return 1 if failed or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
