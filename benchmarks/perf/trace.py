"""Benchmark-side tracing: spans around the program's public calls.

The traced rep wraps the modules' existing public functions (nothing
under ``src/`` changes) so every call opens a span ``{id, name, start,
end, parent, workload, rep, pid}``; very hot, tiny calls
(``spec_hash``, the interpreter's per-block step) are *tallied* onto
the enclosing span instead (calls + seconds).  Wrappers that can see a
useful object attach counts: the ``TFlexSystem.run`` wrapper reads the
event queue, the processors' ``ProcStats`` and the phase profiler.

Pool workers are forked from the traced child, so they inherit the
wrappers; a worker appends each finished top-level span tree to a side
file the child merges afterwards (timestamps are ``CLOCK_MONOTONIC``,
which all processes share).  Spans stay in memory otherwise and are
written once, at exit.

Self time = span − the part its children cover − its tallies.  Where
children overlap (two workers), each child's subtree is scaled by
``covered / Σ child durations`` so the ledger still sums to the wall
clock: concurrent work is charged its share of the blocking interval.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

clock = time.perf_counter

#: PhaseProfiler phases read around ``TFlexSystem.run``.
TFLEX_PHASES = ("fetch", "issue", "execute", "commit", "noc", "lsq",
                "recovery")
SAMPLE_PHASES = ("sample.ff", "sample.ff_replay")
SAMPLE_COUNTERS = ("sample.ff_blocks", "sample.ff_replayed_blocks",
                   "sample.windows", "sample.trace_records",
                   "sample.trace_replays", "sample.trace_mismatches")
#: TraceBus event kinds the callback sink stamps and keeps.
EVENT_KINDS = ("job.start", "job.done", "job.cached", "job.retry",
               "pool.spawn", "pool.dispatch", "pool.respawn", "pool.stop",
               "search.start", "search.rung", "search.best",
               "trace.record", "trace.replay", "trace.mismatch",
               "sim.done")


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self, workload: str, rep: int, side_dir: str) -> None:
        self.workload = workload
        self.rep = rep
        self.side_dir = side_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self._stack: list[dict] = []
        self._next = 0

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> dict:
        pid = os.getpid()
        span = {"id": f"{pid}:{self._next}", "name": name,
                "start": clock(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "workload": self.workload, "rep": self.rep, "pid": pid}
        self._next += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: dict) -> None:
        if span["end"] is None:
            span["end"] = clock()
        self._stack.pop()
        if span["pid"] != self.pid and (
                not self._stack or self._stack[-1]["pid"] == self.pid):
            self._flush_worker(span)

    def _flush_worker(self, top: dict) -> None:
        """In a forked worker: hand one finished top-level tree to the
        driver through the side file, then forget it."""
        first = self.spans.index(top)
        tree = self.spans[first:]
        del self.spans[first:]
        path = os.path.join(self.side_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(tree) + "\n")

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.finish(record)

    def on_event(self, event: dict) -> None:
        stamped = dict(event)
        stamped["t"] = clock()
        stamped["span"] = self._stack[-1]["id"] if self._stack else None
        self.events.append(stamped)

    # -- wrapping ------------------------------------------------------

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args) -> state`` and
        ``after(span, state, args, result)`` attach counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            state = before(args) if before is not None else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = clock()
                if after is not None:
                    after(span, state, args, result)
                tracer.finish(span)
        return wrapper

    def tallied(self, name: str, fn):
        """``fn`` with its calls and seconds added to the open span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                if stack:
                    tally = stack[-1].setdefault("tally", {})
                    entry = tally.get(name)
                    if entry is None:
                        tally[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed
        return wrapper

    def _patch_function(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` and every by-name import of it in an
        already-imported ``repro`` module."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        setattr(cls, attr, make(cls.__dict__[attr]))

    def install(self) -> None:
        """Turn on ``repro.obs`` and wrap the public surface."""
        import repro.obs
        import repro.search
        import repro.cli  # noqa: F401  (so its by-name imports exist)
        from repro.exec import executor, spec as spec_mod, store
        from repro.harness import experiments, runner
        from repro.isa.interp import Interpreter
        from repro.power import EnergyModel
        from repro.sample import engine as sample_engine, trace as ff_trace
        from repro.search import halving
        from repro.tflex import TFlexSystem
        from repro.workloads import suite

        obs = repro.obs.configure(profile=True, metrics=True)
        #: Kept by reference: ``repro.cli.main`` resets the global bundle.
        self.metrics = obs.metrics
        obs.bus.attach(repro.obs.CallbackSink(self.on_event,
                                              kinds=EVENT_KINDS))

        def fn(module, attr, name, **hooks):
            self._patch_function(
                module, attr, lambda f: self.spanned(name, f, **hooks))

        def method(cls, attr, name, **hooks):
            self._patch_method(
                cls, attr, lambda f: self.spanned(name, f, **hooks))

        for attr in ("fig6_performance", "fig_best"):
            fn(experiments, attr, f"harness.{attr}")
        fn(experiments, "fig6_specs", "harness.plan")
        for attr in ("fig7_area", "fig8_power", "table2_area_power"):
            fn(experiments, attr, "harness.reduce")
        fn(experiments, "fig10_multiprogramming", "sched.fig10")
        for cls_name in ("Fig6Result", "Fig7Result", "Fig8Result",
                         "Fig10Result", "Table2Result", "FigBestResult"):
            method(getattr(experiments, cls_name), "render",
                   "harness.render")
        fn(runner, "prewarm_specs", "harness.prewarm_specs")
        fn(runner, "run_spec", "harness.run_spec")
        fn(runner, "simulate_spec", "harness.simulate_spec",
           after=_after_simulate_spec)
        fn(runner, "cached_program", "harness.cached_program")
        fn(executor, "run_specs", "exec.run_specs", after=_after_run_specs)
        method(store.ResultStore, "load", "exec.store_load",
               after=_after_store_load)
        method(store.ResultStore, "store", "exec.store_write",
               after=_after_store_write)
        self._patch_function(spec_mod, "spec_hash",
                             lambda f: self.tallied("exec.hash", f))
        fn(halving, "search_best", "search.search_best")
        fn(sample_engine, "run_sampled", "sample.run_sampled",
           before=_before_sampled, after=_after_sampled)
        fn(ff_trace, "prewarm_partition", "sample.prewarm_partition")
        for attr in ("execute_block", "commit"):
            self._patch_method(Interpreter, attr,
                               lambda f: self.tallied("isa.interp", f))
        method(suite.Benchmark, "build", "workloads.build")
        fn(suite, "compile_edge", "compiler.compile_edge")
        fn(suite, "verify_edge_run", "workloads.verify")
        method(TFlexSystem, "__init__", "tflex.construct")
        method(TFlexSystem, "compose", "tflex.construct")
        method(TFlexSystem, "run", "tflex.run",
               before=_before_tflex_run, after=_after_tflex_run)
        method(EnergyModel, "breakdown", "power.breakdown")

    # -- merging -------------------------------------------------------

    def merge_side_files(self) -> None:
        """Adopt the span trees forked workers (and traced CLI
        invocations) left in the side directory."""
        for name in sorted(os.listdir(self.side_dir)):
            if not (name.startswith("spans-") and name.endswith(".jsonl")):
                continue
            with open(os.path.join(self.side_dir, name),
                      encoding="utf-8") as source:
                for line in source:
                    self.spans.extend(json.loads(line))

    def add_job_spans(self) -> None:
        """Per-job spans from the executor's ``job.start``/``job.done``
        events, parented to their ``exec.run_specs`` batch; each job
        adopts the ``simulate_spec`` tree (a worker's, or in-process on
        the serial path) that ran the same spec inside its interval."""
        open_jobs: dict[tuple, dict] = {}
        jobs: dict[tuple, list] = {}
        made = 0
        for event in self.events:
            key = (event.get("span"), event.get("bench"), event.get("label"))
            if event["kind"] == "job.start" and key not in open_jobs:
                open_jobs[key] = {
                    "id": f"job:{made}", "name": "exec.job",
                    "start": event["t"], "end": None, "parent": event["span"],
                    "workload": self.workload, "rep": self.rep,
                    "pid": self.pid}
                made += 1
            elif event["kind"] == "job.done" and key in open_jobs:
                job = open_jobs.pop(key)
                job["end"] = event["t"]
                jobs.setdefault(key, []).append(job)
        for span in self.spans:
            if span["name"] != "harness.simulate_spec":
                continue
            key = (span["parent"], span.get("bench"), span.get("label"))
            for job in jobs.get(key, ()):
                if job["start"] <= span["start"] and span["end"] <= job["end"]:
                    span["parent"] = job["id"]
                    break
        self.spans.extend(job for batch in jobs.values() for job in batch)


# -- count hooks (module-level so forked workers share them) -----------

def _bump(span: dict, **counts) -> None:
    bucket = span.setdefault("counts", {})
    for key, value in counts.items():
        bucket[key] = bucket.get(key, 0) + value


def _profile_snapshot(profiler, phases) -> dict:
    return {p: (profiler.seconds(p), profiler.calls(p)) for p in phases}


def _profile_delta(span: dict, profiler, before: dict) -> None:
    phases = span.setdefault("phases", {})
    for name, (seconds, calls) in before.items():
        phases[name] = [profiler.seconds(name) - seconds,
                        profiler.calls(name) - calls]


def _after_simulate_spec(span, state, args, result) -> None:
    span["bench"], span["label"] = args[0].bench, args[0].label()


def _before_tflex_run(args):
    system = args[0]
    return (system.queue.events_processed,
            _profile_snapshot(system.obs.profiler, TFLEX_PHASES))


def _after_tflex_run(span, state, args, result) -> None:
    system = args[0]
    events, before = state
    _profile_delta(span, system.obs.profiler, before)
    stats = [p.stats for p in system.procs]
    _bump(span,
          events=system.queue.events_processed - events,
          blocks=sum(s.blocks_committed for s in stats),
          cycles=sum(s.cycles for s in stats),
          insts=sum(s.insts_committed for s in stats),
          blocks_fetched=sum(s.blocks_fetched for s in stats),
          blocks_squashed=sum(s.blocks_squashed for s in stats))


def _before_sampled(args):
    import repro.obs

    obs = repro.obs.current()
    return (_profile_snapshot(obs.profiler, SAMPLE_PHASES),
            {name: obs.metrics.counter_total(name)
             for name in SAMPLE_COUNTERS})


def _after_sampled(span, state, args, result) -> None:
    import repro.obs

    obs = repro.obs.current()
    before, counters = state
    _profile_delta(span, obs.profiler, before)
    _bump(span, **{name: obs.metrics.counter_total(name) - value
                   for name, value in counters.items()})


def _after_store_load(span, state, args, result) -> None:
    _bump(span, store_reads=1, store_hits=0 if result is None else 1)


def _after_store_write(span, state, args, result) -> None:
    if result is not None:
        _bump(span, store_writes=1, store_bytes=result.stat().st_size)


def _after_run_specs(span, state, args, result) -> None:
    import pickle

    simulated = [r for r in result or () if r.status == "ok"]
    _bump(span, jobs=len(simulated),
          payload_bytes=sum(len(pickle.dumps(r.payload)) for r in simulated))


# -- the ledger --------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict], root_name: str = None) -> list[dict]:
    """Per span: ``self`` seconds (span − covered children − tallies)
    and ``weight`` (the share of wall clock its subtree is charged, <1
    under concurrent siblings).  Walks down from the spans called
    ``root_name``, or from every span without a resolvable parent."""
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for span in spans:
        parent = span["parent"] if span["parent"] in by_id else None
        children.setdefault(parent, []).append(span)
    roots = (children.get(None, []) if root_name is None
             else [s for s in spans if s["name"] == root_name])
    out = []
    pending = [(root, 1.0) for root in roots]
    while pending:
        span, weight = pending.pop()
        kids = children.get(span["id"], [])
        lo, hi = span["start"], span["end"]
        clipped = [(max(k["start"], lo), min(k["end"], hi)) for k in kids]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _covered(clipped)
        kid_total = sum(b - a for a, b in clipped)
        tallies = sum(sec for _, sec in span.get("tally", {}).values())
        own = max(0.0, (hi - lo) - covered - tallies)
        out.append({"span": span, "self": own, "weight": weight})
        scale = covered / kid_total if kid_total > 0 else 1.0
        for kid in kids:
            pending.append((kid, weight * scale))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def ledger(spans: list[dict], root_name: str) -> dict:
    """Wall-clock seconds charged to each layer (keys are module names
    under ``src/repro``), plus ``unattributed``: the root span's own
    time, i.e. wall not inside any wrapped call."""
    layers: dict[str, float] = {}
    unattributed = 0.0
    for entry in self_times(spans, root_name):
        span, own, weight = entry["span"], entry["self"], entry["weight"]
        if span["name"] == root_name:
            unattributed += own * weight
            continue
        layer = layer_of(span["name"])
        phases = span.get("phases", {})
        if span["name"] == "tflex.run":
            # noc/lsq phases are exclusive slices of the run.
            for phase in ("noc", "lsq"):
                seconds = min(own, phases.get(phase, [0.0, 0])[0])
                layers[phase] = layers.get(phase, 0.0) + seconds * weight
                own -= seconds
        layers[layer] = layers.get(layer, 0.0) + own * weight
        for name, (_, seconds) in span.get("tally", {}).items():
            key = layer_of(name)
            layers[key] = layers.get(key, 0.0) + seconds * weight
    return {"layers": layers, "unattributed": unattributed}
