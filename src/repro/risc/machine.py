"""Trace-driven out-of-order superscalar timing model (the "Core 2"
stand-in for figure 5).

The interpreter produces the dynamic instruction trace; this model
replays it through a 4-wide out-of-order pipeline: fetch along the
predicted path (gshare + BTB + RAS, with a fixed redirect penalty on
mispredictions), register renaming limited by a reorder buffer,
dataflow-ordered issue constrained by issue width and functional-unit
counts, a two-level cache hierarchy on the load path, and 4-wide
in-order commit.  Trace-driven timing is a standard approximation that
preserves the dependence/bandwidth/misprediction behaviour the
comparison needs without a second execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.cache import CacheBank
from repro.risc.interp import RiscInterpreter, TraceEntry
from repro.risc.isa import NUM_RISC_REGS, RiscProgram


@dataclass(frozen=True)
class OoOConfig:
    """A Core 2-class out-of-order core."""

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 96
    decode_depth: int = 3              # fetch -> dispatch latency
    mispredict_penalty: int = 12

    int_alus: int = 3
    mul_units: int = 1
    div_units: int = 1
    fp_units: int = 2
    mem_ports: int = 2

    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l1_hit: int = 3
    l2_bytes: int = 4 * 1024 * 1024
    l2_assoc: int = 8
    l2_hit: int = 12
    mem_latency: int = 150

    gshare_bits: int = 12
    btb_entries: int = 512
    ras_entries: int = 16


@dataclass
class OoOStats:
    cycles: int = 0
    insts: int = 0
    branches: int = 0
    mispredictions: int = 0
    l1_misses: int = 0
    l2_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.insts / self.cycles if self.cycles else 0.0


class _BranchPredictor:
    """gshare direction + BTB indirect targets + return address stack."""

    def __init__(self, cfg: OoOConfig) -> None:
        # Counters start weakly taken: loop back-edges dominate, and a
        # cold counter should not cost a misprediction per history value.
        self._pht = [2] * (1 << cfg.gshare_bits)
        self._mask = (1 << cfg.gshare_bits) - 1
        self._history = 0
        self._btb: dict[int, int] = {}
        self._btb_entries = cfg.btb_entries
        self._ras: list[int] = []
        self._ras_entries = cfg.ras_entries

    def predict(self, entry: TraceEntry) -> bool:
        """True if the fetch unit follows this branch correctly."""
        inst = entry.inst
        op = inst.op
        if op in ("BEQZ", "BNEZ"):
            index = (entry.pc ^ self._history) & self._mask
            predicted_taken = self._pht[index] >= 2
            counter = self._pht[index]
            if entry.taken:
                self._pht[index] = min(3, counter + 1)
            else:
                self._pht[index] = max(0, counter - 1)
            self._history = ((self._history << 1) | int(entry.taken)) & self._mask
            if predicted_taken != entry.taken:
                return False
            if entry.taken:
                # Direction right; the target still needs a BTB hit.
                return self._btb_lookup(entry.pc, entry.target_pc)
            return True
        if op == "B":
            return self._btb_lookup(entry.pc, entry.target_pc)
        if op == "JAL":
            if len(self._ras) >= self._ras_entries:
                self._ras.pop(0)
            self._ras.append(entry.pc + 1)
            return self._btb_lookup(entry.pc, entry.target_pc)
        if op == "JR":
            predicted = self._ras.pop() if self._ras else None
            return predicted == entry.target_pc
        return True    # HALT

    def _btb_lookup(self, pc: int, target: Optional[int]) -> bool:
        index = pc % self._btb_entries
        hit = self._btb.get(index) == target
        self._btb[index] = target
        return hit


class OoOCore:
    """Run a RISC program and report out-of-order timing."""

    def __init__(self, cfg: Optional[OoOConfig] = None) -> None:
        self.cfg = cfg if cfg is not None else OoOConfig()

    def run(self, program: RiscProgram, max_insts: int = 5_000_000
            ) -> tuple[OoOStats, RiscInterpreter]:
        """Returns (timing stats, the interpreter holding final state)."""
        interp = RiscInterpreter(program)
        result = interp.run(max_insts=max_insts, record_trace=True)
        stats = self._time_trace(result.trace)
        stats.insts = result.insts_executed
        return stats, interp

    # ------------------------------------------------------------------
    # Timing replay
    # ------------------------------------------------------------------

    def _time_trace(self, trace: list[TraceEntry]) -> OoOStats:
        cfg = self.cfg
        stats = OoOStats()
        predictor = _BranchPredictor(cfg)
        l1 = CacheBank(cfg.l1_bytes, cfg.l1_assoc, 64, name="ooo-l1")
        l2 = CacheBank(cfg.l2_bytes, cfg.l2_assoc, 64, name="ooo-l2")

        reg_ready = [0] * NUM_RISC_REGS
        fetch_cycle = 0
        fetched_this_cycle = 0
        issue_count: dict[int, int] = {}
        unit_free = {
            "alu": [0] * cfg.int_alus,
            "mul": [0] * cfg.mul_units,
            "div": [0] * cfg.div_units,
            "fp": [0] * cfg.fp_units,
            "fmul": [0] * cfg.fp_units,
            "fdiv": [0] * cfg.div_units,
            "load": [0] * cfg.mem_ports,
            "store": [0] * cfg.mem_ports,
            "branch": [0] * cfg.int_alus,
            "jump": [0] * cfg.int_alus,
            "halt": [0] * cfg.int_alus,
        }
        commit_times: list[int] = []      # ring of recent commits (ROB model)
        commit_cycle = 0
        commit_this_cycle = 0
        # Store queue for forwarding: addr -> (data_ready, seq).
        recent_stores: dict[int, int] = {}

        for seq, entry in enumerate(trace):
            inst = entry.inst

            # ---------------- fetch ----------------
            if fetched_this_cycle >= cfg.fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetch = fetch_cycle
            fetched_this_cycle += 1

            # ---------------- dispatch (ROB gate) ----------------
            dispatch = fetch + cfg.decode_depth
            if len(commit_times) >= cfg.rob_entries:
                dispatch = max(dispatch, commit_times[-cfg.rob_entries])

            # ---------------- issue ----------------
            ready = dispatch
            for reg in inst.sources():
                ready = max(ready, reg_ready[reg])
            opclass = inst.opclass
            units = unit_free[opclass]
            best = min(range(len(units)), key=lambda u: units[u])
            issue = max(ready, units[best])
            while issue_count.get(issue, 0) >= cfg.issue_width:
                issue += 1
            issue_count[issue] = issue_count.get(issue, 0) + 1
            units[best] = issue + 1

            # ---------------- execute ----------------
            latency = inst.latency
            if opclass == "load":
                latency = self._load_latency(entry.addr, l1, l2, stats,
                                             recent_stores, seq)
            complete = issue + latency
            if opclass == "store":
                line = entry.addr & ~63
                recent_stores[line] = complete
                if len(recent_stores) > 64:
                    recent_stores.pop(next(iter(recent_stores)))
                l1.access(0, entry.addr, write=True) or l1.fill(0, entry.addr)

            dest = inst.destination()
            if dest is not None and dest != 0:
                reg_ready[dest] = complete

            # ---------------- branch resolution ----------------
            if inst.is_branch and inst.op != "HALT":
                stats.branches += 1
                if not predictor.predict(entry):
                    stats.mispredictions += 1
                    fetch_cycle = complete + cfg.mispredict_penalty
                    fetched_this_cycle = 0

            # ---------------- commit (in order) ----------------
            commit = max(complete + 1, commit_cycle)
            if commit == commit_cycle and commit_this_cycle >= cfg.commit_width:
                commit += 1
            if commit > commit_cycle:
                commit_cycle = commit
                commit_this_cycle = 1
            else:
                commit_this_cycle += 1
            commit_times.append(commit_cycle)
            if len(commit_times) > cfg.rob_entries * 2:
                del commit_times[:cfg.rob_entries]

        stats.cycles = commit_cycle
        return stats

    def _load_latency(self, addr: int, l1: CacheBank, l2: CacheBank,
                      stats: OoOStats, recent_stores: dict[int, int],
                      seq: int) -> int:
        cfg = self.cfg
        line = addr & ~63
        if line in recent_stores:
            # Store-to-load forwarding within the window.
            return cfg.l1_hit
        if l1.access(0, addr):
            return cfg.l1_hit
        stats.l1_misses += 1
        l1.fill(0, addr)
        if l2.access(0, addr):
            return cfg.l1_hit + cfg.l2_hit
        stats.l2_misses += 1
        l2.fill(0, addr)
        return cfg.l1_hit + cfg.l2_hit + cfg.mem_latency
