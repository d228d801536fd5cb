"""Configuration of TFlex cores and systems (paper Table 1).

:data:`TFLEX` is the paper's default 32-core chip.  :func:`trips_config`
builds the fixed-granularity TRIPS baseline as a configuration of the
same simulator: sixteen single-issue tiles sharing one logical
processor, with a centralized next-block predictor, four D-cache/LSQ
banks, four register banks, and half the operand-network bandwidth —
the three modelled deltas (dual issue, doubled operand bandwidth,
fully-distributed cache/LSQ banks) the paper credits TFlex with, plus
the centralization limits composability removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CoreConfig:
    """One TFlex core (paper Table 1)."""

    # Execution: out-of-order, RAM-structured 128-entry issue window,
    # dual issue (up to two INT and one FP).
    window_entries: int = 128
    issue_int: int = 2
    issue_fp: int = 1
    issue_total: Optional[int] = None    # cap on combined issue (TRIPS tiles: 1)
    dispatch_width: int = 4              # instructions dispatched per cycle

    # Instruction supply: partitioned 8KB I-cache, 1-cycle hit.
    icache_bytes: int = 8 * 1024
    icache_assoc: int = 2
    icache_hit: int = 1

    # Data supply: partitioned 8KB D-cache (2-cycle hit, 2-way,
    # 1R + 1W port), 44-entry LSQ bank.
    dcache_bytes: int = 8 * 1024
    dcache_assoc: int = 2
    dcache_hit: int = 2
    lsq_entries: int = 44
    lsq_search: int = 1

    # Next-block predictor (local/gshare tournament, 3-cycle latency,
    # speculative updates): Local 64(L1)+128(L2), Global 512, Choice 512,
    # RAS 16, CTB 16, BTB 128, Btype 256.
    predictor_latency: int = 3
    local_l1: int = 64
    local_l2: int = 128
    global_entries: int = 512
    choice_entries: int = 512
    ras_entries: int = 16
    ctb_entries: int = 16
    btb_entries: int = 128
    btype_entries: int = 256


@dataclass(frozen=True)
class SystemConfig:
    """A whole chip: core array, networks, L2, DRAM, and mode flags."""

    name: str = "tflex"
    num_cores: int = 32
    mesh_width: int = 4
    mesh_height: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)

    # Networks: TFlex doubles operand-network bandwidth vs TRIPS.
    opn_channels: int = 2
    control_channels: int = 2
    hop_latency: int = 1

    # L2: 4MB S-NUCA, 32 banks, 8-way; hit 5..27 cycles by distance.
    l2_banks: int = 32
    l2_bank_bytes: int = 128 * 1024
    l2_assoc: int = 8
    l2_tag_latency: int = 3
    line_size: int = 64

    # Memory: 150-cycle unloaded latency.
    dram_latency: int = 150
    dram_issue_gap: int = 4

    # Composition structure overrides (None = fully distributed, one bank
    # per participating core — the TFlex design point).
    dcache_banks: Optional[int] = None
    regfile_banks: Optional[int] = None
    centralized_predictor: bool = False
    max_inflight: Optional[int] = None    # None = one block per core

    # Protocol ablation (paper section 6.4): distributed fetch/commit
    # handshakes take zero cycles.
    ideal_handshake: bool = False

    # Retry delay after an LSQ NACK.
    nack_retry: int = 8

    # Dependence prediction after a load/store violation: False = the
    # replayed load waits for ALL older stores (blunt, always safe);
    # True = a store-set predictor delays it only until the specific
    # stores it conflicted with have resolved.
    store_sets: bool = False

    # Misprediction redirect penalty beyond protocol latencies.
    flush_penalty: int = 2

    def validate(self) -> None:
        if self.num_cores != self.mesh_width * self.mesh_height:
            raise ValueError(
                f"{self.name}: {self.num_cores} cores != "
                f"{self.mesh_width}x{self.mesh_height} mesh")
        for banks in (self.dcache_banks, self.regfile_banks):
            if banks is not None and banks < 1:
                raise ValueError(f"{self.name}: bank override must be >= 1")
        # Forward-progress invariant: one block's memory operations (up
        # to 32 LSQ slots) may all hash to a single bank; the bank must
        # be able to hold them or the oldest block can never complete
        # (the NACK overflow policy only evicts *younger* occupants).
        from repro.isa.block import MAX_LSQ_IDS
        if self.core.lsq_entries < MAX_LSQ_IDS:
            raise ValueError(
                f"{self.name}: lsq_entries={self.core.lsq_entries} < "
                f"{MAX_LSQ_IDS}; a bank must hold one block's worst case")


#: The paper's TFlex chip: 32 dual-issue cores in a 4x8 array.
TFLEX = SystemConfig()

#: Cycle budget of one run — a full-detail or fault-injected job, one
#: detailed window of a sampled job — and the default of every ``run``
#: (``EventQueue``, ``TFlexSystem``, ``run_program``); also the bound a
#: ``kill:CORE@CYCLE`` must fall inside to ever fire.
MAX_CYCLES = 30_000_000


def trips_config() -> SystemConfig:
    """The fixed-granularity TRIPS baseline (paper section 5).

    16 single-issue execution tiles in a 4x4 array run one thread as a
    single composed processor with up to 8 blocks (1K instructions) in
    flight.  Control is centralized: one predictor bank at the G-tile
    corner, 4 D-cache/LSQ banks on one edge, 4 register banks, and an
    operand network with half of TFlex's bandwidth.  TRIPS tiles carry
    one FPU each (twice the FP capacity of an equal-area TFlex array —
    which is what costs TRIPS power efficiency in figure 8).
    """
    return SystemConfig(
        name="trips",
        num_cores=16,
        mesh_width=4,
        mesh_height=4,
        core=replace(
            CoreConfig(),
            issue_int=1,
            issue_fp=1,
            issue_total=1,
            # The centralized predictor has a single bank's capacity.
        ),
        opn_channels=1,
        control_channels=1,
        dcache_banks=4,
        regfile_banks=4,
        centralized_predictor=True,
        max_inflight=8,
    )


#: Rectangle shape (width, height) of each power-of-two composition size
#: on a 4-wide mesh; a :func:`tflex_config` chip is exactly one of them.
SHAPES = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2), 16: (4, 4), 32: (4, 8)}


def tflex_config(num_cores: int = 32) -> SystemConfig:
    """A TFlex chip sized to ``num_cores`` (power of two up to 32)."""
    if num_cores not in SHAPES:
        raise ValueError(f"unsupported core count {num_cores}")
    width, height = SHAPES[num_cores]
    return SystemConfig(name=f"tflex{num_cores}", num_cores=num_cores,
                        mesh_width=width, mesh_height=height)
