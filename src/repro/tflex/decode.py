"""Per-composition placement of a block: the static schedule of the
timing model.

What an instruction does is fixed per program: the timing model runs on
the interpreter's records (``isa.interp._PInst``, in the program's
:class:`~repro.isa.interp.PreparedBlock`), shared by every composition.
Where it runs is a function of the composition (paper section 4.4):
instruction ``i`` on participating core ``i mod N``, registers on
interleaved banks.  A composed processor compiles that placement
**once** per block, on first fetch, into a :class:`DecodedBlock`, and
every later fetch, dispatch and operand delivery indexes it.

Routes hold core IDs and :class:`~repro.tflex.core.Core` objects of one
composition, so a :class:`DecodedBlock` lives and dies with the
processor that compiled it (``ComposedProcessor._decoded``): a
recomposed processor — other ``core_ids`` — starts with an empty cache.
``tests/tflex/test_decode.py`` checks the records once per program and
the placement per composition against the ISA definitions.
"""

from __future__ import annotations

from repro.isa.block import Block
from repro.isa.interp import PreparedBlock, prepare_block
from repro.tflex.interleave import rf_bank_of


def _routes(targets: tuple, pb: PreparedBlock, proc) -> tuple:
    """Encoded dataflow targets (``_PInst.targets``) as ``(dest core ID,
    dest Core, a, b)`` routes.

    An operand of instruction ``i`` is delivered on the core executing
    ``i``: ``a`` is the consumer's record, ``b`` the encoded target
    ``i << 2 | slot`` — its index in the instance's operand buffer.  A
    register write goes to the bank holding the register: ``dest Core``
    is ``None``, ``a`` the register, ``b`` the bank.
    """
    routes = []
    for enc in targets:
        if enc >= pb.n4:
            reg = pb.block.writes[enc - pb.n4].reg
            bank = rf_bank_of(reg, proc.num_rf_banks)
            routes.append((proc.rf_bank_core(bank), None, reg, bank))
        else:
            dest = proc.core_ids[(enc >> 2) % proc.ncores]
            routes.append((dest, proc.system.cores[dest],
                           pb.insts[enc >> 2], enc))
    return tuple(routes)


class DecodedBlock:
    """Where one block runs on one composition."""

    __slots__ = ("block", "routes", "operands", "missing", "groups",
                 "reads_by_core", "icache_lines", "write_slots",
                 "writes_per_bank")

    def __init__(self, block: Block, proc) -> None:
        ncores = proc.ncores
        nbanks = proc.num_rf_banks
        pb = prepare_block(proc.program, block)
        self.block = block
        #: Per instruction ID, the routes of its result.
        self.routes = [_routes(pi.targets, pb, proc) for pi in pb.insts]
        # Per-fetch state templates: an empty operand buffer, and per
        # instruction the tokens still missing plus one for dispatch.
        self.operands = [None] * pb.n4
        self.missing = [need + 1 for need in pb.needs]

        # Instruction interleaving: instruction ``i`` executes on
        # participating core ``i mod N`` (paper section 4.4), dispatched
        # in packets of ``dispatch_width`` per cycle.
        width = proc.cfg.core.dispatch_width
        chunks = [pb.insts[index::ncores] for index in range(ncores)]
        self.groups = tuple(
            tuple(tuple(chunk[i:i + width])
                  for i in range(0, len(chunk), width))
            for chunk in chunks)

        # Register reads resolve at the bank holding the register; bank
        # ``b`` lives on participating core ``b`` (the composition's
        # first cores), so the core index equals the bank index.  Per
        # read: (register, bank, bank core ID, routes).
        reads = [[] for __ in range(ncores)]
        for reg, targets in pb.reads:
            bank = rf_bank_of(reg, nbanks)
            reads[bank].append((reg, bank, proc.rf_bank_core(bank),
                                _routes(targets, pb, proc)))
        self.reads_by_core = tuple(tuple(r) for r in reads)

        # Each core's slice occupies ceil(4 * |chunk| / line) I-cache
        # lines (only meaningful for non-empty slices).
        self.icache_lines = tuple(
            max(1, -(-len(chunk) * 4 // proc.cfg.line_size))
            for chunk in chunks)

        # Write set: (bank, register) per header write slot, plus the
        # per-bank drain depth used by the commit protocol.
        self.write_slots = tuple((rf_bank_of(reg, nbanks), reg)
                                 for __, reg in pb.writes)
        per_bank = [0] * nbanks
        for bank, __ in self.write_slots:
            per_bank[bank] += 1
        self.writes_per_bank = tuple(per_bank)
