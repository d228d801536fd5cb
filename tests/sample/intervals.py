"""Build :class:`~repro.sample.trace.FFInterval` columns from per-block
rows, for tests that hand the warm-up or the codec a made-up stream."""

from repro.isa.opcodes import BRANCH_KINDS
from repro.sample.trace import FFInterval

#: The per-block control columns in the order :func:`interval_of_blocks`
#: takes them.
CONTROL = ("addrs", "exits", "nexts", "branch_ops", "insts", "loads")


def interval_of_blocks(start: int, columns, *, regs=(),
                       finished: bool = False) -> FFInterval:
    """An interval from per-block columns: the six control columns
    (branch ops by name), then the load addresses and the stores, one
    list per block (stores as flat ``addr, size, value, fp01`` quads);
    ``regs`` holds ``(index, value)`` per register it ends with."""
    interval = FFInterval(start, finished=finished)
    for index, value in regs:
        interval.add_reg(index, value)
    *control, load_addrs, stores = columns
    control[3] = map(BRANCH_KINDS.index, control[3])
    for name, column in zip(CONTROL, control):
        getattr(interval, name).extend(column)
    for block in load_addrs:
        interval.load_addrs.extend(block)
        interval.load_ends.append(len(interval.load_addrs))
    for block in stores:
        for at in range(0, len(block), 4):
            interval.add_store(*block[at:at + 4])
        interval.store_ends.append(len(interval.store_addrs))
    return interval
