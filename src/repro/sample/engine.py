"""Sampled simulation: interpreter fast-forward + detailed windows.

A sampled run executes the program's full dynamic block stream exactly
once, alternating two regimes:

* **Detailed windows** run on a real :class:`TFlexSystem` with the
  architectural state (registers, memory) and warm microarchitectural
  state (predictor, RAS, I/D caches, L2) injected at entry — one
  ``swap_state`` per structure in, one back out (:mod:`repro.warm`).
  Each window commits ``warmup_blocks`` blocks unmeasured, then measures
  IPC over ``window_blocks`` committed blocks, then halts through the
  processor's ``commit_limit``.

* **Fast-forward intervals** are a three-stage pipeline over one
  :class:`~repro.sample.trace.FFInterval`: the golden model executes
  ``ff_blocks`` blocks, each committed straight into the columns and
  memory (:func:`interpret`), or what a recorded interval's stores
  leave in memory lands there (``FFInterval.landing``, derived once by
  the same code); then the :class:`ShadowUarch` warms on the columns —
  except on the interval that ends the program, which no window
  follows — then one shared tail books the interval.

Because both regimes execute every block architecturally (windows
commit exactly; fast-forward *is* the golden model) the final memory
image is exact — only the cycle count is estimated, so the standard
``verify_edge_run`` check stays on for sampled runs.  The cycle
estimate is stratified (:meth:`SampledRun.result`; docs/PERFORMANCE.md
"Estimator design"): each measured interval's cycles stand as-is, and
only the unmeasured instructions — fast-forward gaps and warm-up blocks
— are extrapolated, at the pooled IPC of the warmed windows (the cold
first window and a ramp-and-drain tail stay out of it when any warmed
window exists); the spread of those windows' IPCs is reported as a
relative-error estimate in ``RunResult.sampling``.

The first window starts at the program entry with cold structures, so
a program shorter than ``warmup + window`` blocks never fast-forwards
and the result is bit-identical to an unsampled run (the ``exact``
flag in ``RunResult.sampling``).

Fidelity caveats, all timing-only: ``loads_executed`` counts functional
loads during fast-forward but executed loads (including replays) inside
windows; microarchitectural event counters (fetches, squashes, energy
events, DRAM requests) are measured in the windows and scaled by
committed-instruction coverage.  TRIPS-baseline specs are never sampled:
``JobSpec.edge`` drops their sampling items, like their ``ncores``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import repro.obs as obs_lib
from repro.isa.interp import NULL_TOKEN, Interpreter, prepare_block
from repro.isa.opcodes import BRANCH_KINDS
from repro.isa.program import HALT_ADDR
from repro.mem.flatmem import FlatMemory
from repro.sample.config import SamplingConfig
from repro.sample.shadow import ShadowUarch, rebuild_directory
from repro.sample.trace import FFInterval, land_stores
from repro.tflex import TFlexSystem
from repro.tflex.placement import rectangle
from repro.tflex.stats import ProcStats

#: Branch opcode name -> its ``FFInterval.branch_ops`` entry.
BRANCH_INDEX = {name: index for index, name in enumerate(BRANCH_KINDS)}


@dataclass
class _Window:
    """One detailed window's raw yield."""

    stats: ProcStats
    dram_requests: int
    measured_insts: Optional[int]
    measured_cycles: Optional[int]
    #: True when the program halted inside this window (its measured
    #: interval then spans the whole window, drain included).
    terminal: bool = False
    #: True when the program halted before the warm-up mark, so the
    #: measured interval is the whole (ramp-and-drain) tail: exact for
    #: its own stratum but never representative of steady-state gaps.
    tail: bool = False


class SampledRun:
    """Driver for one sampled simulation; see the module docstring.

    ``step()`` advances one window plus the following fast-forward
    interval; ``run()`` drives to completion and builds the
    extrapolated :class:`~repro.harness.runner.RunResult`.
    """

    def __init__(self, spec, trace=None) -> None:
        from repro.harness.simulate import build_edge_config, cached_program

        if spec.kind != "edge" or not spec.sampling:
            raise ValueError(f"a sampled run needs an edge spec with "
                             f"sampling, not {spec.label()!r}")
        self.spec = spec
        #: Validated when the spec was built (``JobSpec.__post_init__``).
        self.sampling = SamplingConfig.from_dict(spec.sampling_dict())
        self.cfg, self.ncores = build_edge_config(spec)
        self.program, self.expected, self.kernel = \
            cached_program("edge", spec.bench, spec.scale)
        self.mem = FlatMemory()
        self.interp = Interpreter(self.program, memory=self.mem)
        #: Block address -> its prepared form, for :func:`interpret`.
        self._prepared: dict = {}
        self.shadow = ShadowUarch(self.cfg, self.ncores)
        self.addr = self.program.address_of(self.program.entry)
        self.ghist = 0
        # Functional progress (exact): committed blocks/insts/loads/stores.
        self.blocks = 0
        self.insts = 0
        self.loads = 0
        self.stores = 0
        self.windows: list[_Window] = []
        # Dependence-violation history carried between windows: entries
        # accumulate monotonically in a real run and keep re-executions
        # of a violating load deferred, so a fresh set per window would
        # bias windows fast.
        self.dependence: set[tuple[str, int]] = set()
        self.finished = False
        self.obs = obs_lib.current()
        #: Shared fast-forward trace session (repro.sample.trace):
        #: a RecordSession captures this run's intervals, a
        #: ReplaySession substitutes recorded intervals for live
        #: interpretation.  None = plain live fast-forward.
        self.trace = trace

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One detailed window, then one fast-forward interval.

        Returns True while the program has more blocks to execute."""
        if self.finished:
            return False
        self._window()
        if not self.finished:
            self._fast_forward(self.sampling.ff_blocks)
        return not self.finished

    def run(self):
        """Drive to completion and return the extrapolated RunResult."""
        while self.step():
            pass
        return self.result()

    # ------------------------------------------------------------------
    # Detailed windows
    # ------------------------------------------------------------------

    def _window(self) -> None:
        sampling = self.sampling
        system = TFlexSystem(self.cfg)
        proc = system.compose(rectangle(self.cfg, self.ncores), self.program,
                              name=self.spec.bench)

        # Architectural injection: share the interpreter's memory (the
        # window commits into it) and copy registers in place (the
        # regfile banks alias ``proc.regs``).
        proc.memory = self.mem
        proc.regs[:] = self.interp.regs
        proc.dependence_set |= self.dependence
        self._inject(system, proc)

        # The first window starts from the true initial state (a cold
        # machine IS the real machine at the program entry), so its
        # ramp-up is representative and is measured from cycle zero.
        # Later windows run on injected state and need the warm-up
        # blocks to heal the injection error before the mark.
        warmup = sampling.warmup_blocks if self.blocks else 0
        proc.commit_limit = warmup + sampling.window_blocks
        if warmup > 0:
            proc.measure_after = warmup
        else:
            proc.measure_mark = (system.queue.now, 0)
        proc.start(self.addr, self.ghist)
        system.run()

        stats = proc.stats
        end_cycle = proc.start_cycle + stats.cycles
        finished = (proc.last_commit_next is None
                    or proc.last_commit_next == HALT_ADDR)
        measured_insts = measured_cycles = None
        tail = False
        if proc.measure_mark is not None:
            mark_cycle, mark_insts = proc.measure_mark
            insts = stats.insts_committed - mark_insts
            cycles = end_cycle - mark_cycle
            if insts > 0 and cycles > 0:
                measured_insts, measured_cycles = insts, cycles
        elif finished and stats.insts_committed > 0 and stats.cycles > 0:
            # The program ended before the warm-up mark: the whole
            # interval is the best measurement of these final blocks
            # (drain included) — better than extrapolating them at a
            # steady-state IPC they never reach.
            measured_insts = stats.insts_committed
            measured_cycles = stats.cycles
            tail = True
        self.windows.append(_Window(stats, system.dram.stats.requests,
                                    measured_insts, measured_cycles,
                                    terminal=finished, tail=tail))
        self.blocks += stats.blocks_committed
        self.insts += stats.insts_committed
        self.loads += stats.loads_executed
        self.stores += stats.stores_committed

        if self.obs.active:
            self.obs.emit("sample.window", bench=self.spec.bench,
                          index=len(self.windows) - 1,
                          blocks=stats.blocks_committed, cycles=stats.cycles,
                          measured_insts=measured_insts,
                          measured_cycles=measured_cycles)
            self.obs.metrics.inc("sample.windows", bench=self.spec.bench)
            self.obs.metrics.inc("sample.window_blocks",
                                 stats.blocks_committed, bench=self.spec.bench)

        self.dependence = set(proc.dependence_set)
        # Fast-forward resumes, or the run ends, with these registers.
        self.interp.regs[:] = proc.regs
        if finished:
            self.finished = True
        else:
            self.addr = proc.last_commit_next
            self.ghist = proc.last_commit_ghist
            self._absorb(system, proc)
        # The window is harvested: with its processor decomposed the
        # chip holds no cycle, so it is freed when this frame returns.
        system.decompose(proc)

    def _swap_state(self, system: TFlexSystem, proc) -> None:
        """Exchange warm state between the shadow and a window system.

        This is the only place warm state crosses between the two: each
        shadow part is paired with the window part that plays its role,
        and the pair exchanges its declared ``WARM`` fields by reference
        (:meth:`repro.warm.WarmState.swap_state`).  Each window runs on
        a fresh ``TFlexSystem`` that no one reads after :meth:`_absorb`
        (its processor is then decomposed and the system freed by
        reference counting), and the shadow is idle while the window
        runs, so the O(1) swap is observably a copy in both directions,
        without materializing per-window snapshots.  Every pair's
        geometry is compared before any part moves, so a mismatch
        raises with nothing exchanged."""
        shadow = self.shadow
        shadow.settle()
        cores = system.cores
        pairs = [(proc.ras, shadow.ras), *zip(system.l2.banks, shadow.l2.banks)]
        pairs += [(cores[proc.core_of_index(i)].predictor, bank)
                  for i, bank in enumerate(shadow.pred_banks)]
        pairs += [(cores[proc.core_of_index(i)].icache, bank)
                  for i, bank in enumerate(shadow.icaches)]
        pairs += [(cores[proc.dbank_core(b)].dcache, bank)
                  for b, bank in enumerate(shadow.dcaches)]
        if any(part.warm_geometry() != bank.warm_geometry()
               for part, bank in pairs):
            raise ValueError("window and shadow warm geometries differ")
        for part, bank in pairs:
            part.swap_state(bank)

    def _inject(self, system: TFlexSystem, proc) -> None:
        """Move the shadow's warm state into the real structures."""
        self._swap_state(system, proc)
        rebuild_directory(system.l2, self._l1_by_global_core(system, proc))

    def _absorb(self, system: TFlexSystem, proc) -> None:
        """Move the window's final state back into the shadow so
        fast-forward continues from it."""
        self._swap_state(system, proc)
        self.shadow.rebuild_directory()

    def _l1_by_global_core(self, system: TFlexSystem, proc) -> dict:
        l1_by_core: dict[int, list] = {}
        for i in range(self.ncores):
            core_id = proc.core_of_index(i)
            l1_by_core.setdefault(core_id, []).append(
                system.cores[core_id].icache)
        for b in range(self.shadow.num_dbanks):
            core_id = proc.dbank_core(b)
            l1_by_core.setdefault(core_id, []).append(
                system.cores[core_id].dcache)
        return l1_by_core

    # ------------------------------------------------------------------
    # Fast-forward
    # ------------------------------------------------------------------

    def _fast_forward(self, n_blocks: int) -> None:
        trace = self.trace
        # Intervals are indexed by position: the loop alternates
        # window -> fast-forward, so the interval after window k is
        # interval k.
        index = len(self.windows) - 1
        interval = None
        if trace is not None and trace.mode == "replay":
            interval = trace.interval_for(index, self.addr)
        replayed = interval is not None
        profiler = self.obs.profiler
        if profiler.enabled:
            with profiler.phase("sample.ff_replay" if replayed
                                else "sample.ff"):
                executed = self._run_interval(interval, n_blocks)
        else:
            executed = self._run_interval(interval, n_blocks)
        if self.obs.active:
            bench = self.spec.bench
            self.obs.emit("sample.ff_replayed" if replayed else "sample.ff",
                          bench=bench, blocks=executed, resumed_at=self.addr,
                          finished=self.finished)
            self.obs.metrics.inc(
                "sample.ff_replayed" if replayed else "sample.ff", bench=bench)
            self.obs.metrics.inc(
                "sample.ff_replayed_blocks" if replayed else "sample.ff_blocks",
                executed, bench=bench)
            if self.finished:           # the tail: not warmed at all
                pred_skipped = icache_skipped = 0
                self.obs.metrics.inc("sample.warm_tail_skipped_blocks",
                                     executed, bench=bench)
            else:
                pred_skipped, icache_skipped = self.shadow.skipped
            self.obs.metrics.inc("sample.warm_pred_skipped_blocks",
                                 pred_skipped, bench=bench)
            self.obs.metrics.inc("sample.warm_icache_skipped_blocks",
                                 icache_skipped, bench=bench)

    def _run_interval(self, interval, n_blocks: int) -> int:
        """One fast-forward interval: interpret it (or land a recorded
        one's stores), warm the shadow on its columns, book it.

        The interval that ends the program is not warmed: no window
        follows it, and :meth:`result` reads neither the shadow nor
        ``ghist``, so its warm-up would be work no result reads."""
        if interval is None:
            interval = interpret(self.interp, self.addr, n_blocks,
                                 self._prepared)
            if self.trace is not None and self.trace.mode == "record":
                self.trace.add(interval)
        else:
            write = self.mem.write_bytes
            for addr, raw in interval.landing():
                write(addr, raw)
            regs = self.interp.regs
            for reg, value in interval.end_regs():
                regs[reg] = value
        if not interval.finished:
            self.ghist = self.shadow.warm(interval, self.ghist,
                                          self.program.block_at)
        executed = len(interval)
        self.blocks += executed
        self.insts += sum(interval.insts)
        self.loads += sum(interval.loads)
        self.stores += len(interval.store_addrs)
        if executed:
            self.addr = interval.nexts[-1]
        if interval.finished:
            self.finished = True
        return executed

    # ------------------------------------------------------------------
    # Extrapolation
    # ------------------------------------------------------------------

    def result(self):
        """Extrapolate the measured windows into a full RunResult."""
        from repro.harness.runner import RunResult
        from repro.power import EnergyModel
        from repro.workloads import verify_edge_run

        if not self.finished:
            raise RuntimeError("sampled run has not finished")
        if self.spec.verify:
            verify_edge_run(self.kernel, self.mem, self.expected)

        window_insts = sum(w.stats.insts_committed for w in self.windows)
        total_insts = self.insts
        exact = window_insts == total_insts
        measures = [(w.measured_insts, w.measured_cycles)
                    for w in self.windows if w.measured_insts]

        if exact:
            # The whole program fit in the detailed windows: no
            # extrapolation, bit-identical to a full-detail run.
            cycles = sum(w.stats.cycles for w in self.windows)
            factor = 1.0
            ipc_estimate = total_insts / cycles if cycles else 0.0
            rel_stddev: Optional[float] = 0.0
        else:
            if not measures:
                raise RuntimeError(
                    "sampled run fast-forwarded but measured no windows")
            # Stratified estimator: each measured interval covers its
            # committed instructions exactly (the first window from the
            # true cold start, later ones after warm-up), so those
            # cycles stand as-is.  Only the unmeasured instructions —
            # fast-forward gaps plus warm-up blocks — are extrapolated,
            # at the pooled IPC of the warmed windows alone: the cold
            # first window is real but unrepresentative of the
            # steady-state gaps it would otherwise be pooled with.
            measured_insts = sum(m for m, __ in measures)
            measured_cycles = sum(c for __, c in measures)
            # The cold first window and a ramp-and-drain tail are
            # measured exactly but are unrepresentative of the
            # steady-state gaps, so they stay out of the gap estimator
            # when any warmed window exists.
            steady = [(w.measured_insts, w.measured_cycles)
                      for w in self.windows[1:]
                      if w.measured_insts and not w.tail]
            steady = steady or measures
            steady_ipc = (sum(m for m, __ in steady)
                          / sum(c for __, c in steady))
            unmeasured_insts = total_insts - measured_insts
            cycles = max(1, measured_cycles
                         + round(unmeasured_insts / steady_ipc))
            ipc_estimate = total_insts / cycles
            factor = total_insts / window_insts
            ipcs = [m / c for m, c in steady]
            if len(ipcs) >= 2:
                mean = sum(ipcs) / len(ipcs)
                var = sum((x - mean) ** 2 for x in ipcs) / len(ipcs)
                rel_stddev = math.sqrt(var) / mean if mean else None
            else:
                rel_stddev = None

        # Counters measured only inside windows are extrapolated by
        # committed-instruction coverage; functional progress is exact.
        merged = ProcStats.merged((w.stats for w in self.windows), factor)
        merged.cycles = cycles
        merged.blocks_committed = self.blocks
        merged.insts_committed = total_insts
        merged.loads_executed = self.loads
        merged.stores_committed = self.stores
        dram_requests = round(
            sum(w.dram_requests for w in self.windows) * factor)

        power = EnergyModel().breakdown(
            merged.energy_events, merged.cycles, self.ncores,
            dram_requests=dram_requests)

        sampling_info = {
            "config": self.sampling.to_dict(),
            "exact": exact,
            "windows": len(self.windows),
            "measured_windows": len(measures),
            "total_insts": total_insts,
            "window_insts": window_insts,
            "ipc_estimate": ipc_estimate,
            "ipc_rel_stddev": rel_stddev,
        }
        return RunResult(
            bench=self.spec.bench, label=self.spec.label(),
            num_cores=self.ncores, cycles=cycles,
            insts_committed=total_insts, stats=merged, power=power,
            dram_requests=dram_requests, sampling=sampling_info)


def interpret(interp: Interpreter, addr: int, n_blocks: int,
              prepared: dict) -> FFInterval:
    """Execute up to ``n_blocks`` blocks from ``addr`` on ``interp``
    straight into a new interval's columns, committing each as it goes;
    ``prepared`` caches each block address's prepared form
    (``isa.interp.prepare_block``) from one call to the next.

    A block's compiled segments run (``Interpreter.chain``) and their
    buffer is read once, into the registers and the columns — no
    ``BlockOutcome`` — and each store is encoded once
    (``FFInterval.add_store``) and landed from those bytes by the code
    replay lands stores with (:func:`land_stores`).  A predicate outcome
    no path has learnt falls back to the dataflow loop, whose outcome
    commits the same way.  ``tests/references.py`` keeps the
    ``execute_block`` -> ``commit`` loop this must equal byte for
    byte."""
    regs = interp.regs
    mem = interp.mem
    program = interp.program
    interval = FFInterval(addr)
    start_regs = list(regs)
    addrs, exits, nexts, branch_ops, insts, loads = (
        interval.addrs, interval.exits, interval.nexts,
        interval.branch_ops, interval.insts, interval.loads)
    load_addrs, load_ends, store_ends = (
        interval.load_addrs, interval.load_ends, interval.store_ends)
    add_store, store_addrs = interval.add_store, interval.store_addrs
    chain = interp.chain
    for __ in range(n_blocks):
        pb = prepared.get(addr)
        if pb is None:
            pb = prepared[addr] = prepare_block(program,
                                                program.block_at(addr))
        addrs.append(addr)
        block_stores: dict = {}
        seg, guard = chain(pb, block_stores, load_addrs)
        if seg is None:
            # A path not learnt yet: the dataflow loop runs the block
            # from scratch, and learns it.
            del load_addrs[load_ends[-1] if load_ends else 0:]
            outcome = interp._dataflow(pb, guard)
            load_addrs.extend(outcome.load_addrs)
            for reg, value in outcome.writes.items():
                regs[reg] = value
            block_stores = {lsq_id: store
                            for lsq_id, *store in outcome.stores}
            exits.append(outcome.exit_id)
            branch_ops.append(BRANCH_INDEX[outcome.branch_op])
            insts.append(outcome.insts_fired)
            loads.append(outcome.loads)
            addr = outcome.next_addr
        else:
            buf = pb.buf
            for slot, reg in pb.writes:
                value = buf[slot]
                if value is not NULL_TOKEN:
                    regs[reg] = value
            branch = seg.branch
            exits.append(branch.exit_id)
            branch_ops.append(BRANCH_INDEX[branch.op.name])
            insts.append(seg.fired)
            loads.append(seg.loads)
            addr = branch.next_addr
            if addr is None:                        # RET
                addr = buf[branch.base + 1]
        load_ends.append(len(load_addrs))
        if block_stores:
            first = len(store_addrs)
            for lsq_id in sorted(block_stores):
                add_store(*block_stores[lsq_id])
            land_stores(mem, interval, first)
        store_ends.append(len(store_addrs))
        nexts.append(addr)
        if addr == HALT_ADDR:
            interval.finished = True
            break
    interval.set_regs(start_regs, regs)
    return interval


def run_sampled(spec):
    """Execute one edge job spec with sampling; returns a RunResult.

    With fast-forward tracing enabled (the default — see
    :mod:`repro.sample.trace`), the first run of a
    ``(program, scale, schedule)`` records its fast-forward intervals
    into the trace store and every later composition replays them; the
    result is bit-identical either way.
    """
    from repro.sample.trace import open_trace_session

    session = open_trace_session(spec)
    run = SampledRun(spec, trace=session)
    result = run.run()
    if session is not None:
        session.finish(run)
    return result
