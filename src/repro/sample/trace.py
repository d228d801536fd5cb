"""Shared fast-forward traces: record once, replay across compositions.

A sampled run's fast-forward trajectory — the sequence of committed
blocks, their exits/branches, load/store addresses, and the
architectural register/memory deltas — depends only on the *program*
(benchmark + scale) and the *sampling schedule* (window boundaries fall
at fixed block counts), never on the composition: detailed windows
commit architecturally exactly and the interpreter is the golden model.
Every figure sweep and search rung evaluates many compositions of the
same benchmark, so the first run records its fast-forward intervals
into a content-addressed :class:`FFTraceStore` and every later
composition *replays* them: recorded outcomes are fed to that run's own
:class:`~repro.sample.shadow.ShadowUarch` (predictor/RAS/cache warm-up
interleaves by core count, so it must be re-hashed per composition),
recorded stores are applied to memory in commit order, and the interval
boundary register delta is injected directly — no interpreter
execution.  O(compositions x ff) interpretation becomes O(1) record +
O(compositions) cheap replays.

Correctness guards, layered:

* the trace key hashes the program fingerprint, scale, and the full
  sampling schedule (``TRACE_SCHEMA``-salted), so a schedule or
  workload change misses instead of colliding;
* every interval replay checks its recorded start address against the
  engine's resume address; any mismatch abandons the trace and falls
  back to live interpretation (the architectural state is exact at
  every boundary, so the fallback continues seamlessly);
* the architectural end-state verification (``verify_edge_run``) stays
  on for replayed runs, exactly as for live ones.

Replayed runs produce bit-identical ``RunResult`` payloads to direct
interpretation — enforced by the cross-composition differential suite
(``tests/sample/test_trace.py``) and the golden accuracy gates.  In
memory every column of an interval is a fixed-width ``array``, the data
columns flat with end offsets (:class:`FFInterval`).  On disk a blob is
those columns as they are held: a one-line JSON header (schema and key
echo, byte order, metadata, and per interval its start, ``finished``
flag, address width and column lengths), then each column's raw bytes
(:func:`encode_trace`), gzip level 1::

    {"schema": 5, "key": ..., "intervals": [{"start": ..., "finished":
     ..., "addr_bytes": 4 or 8, "lengths": [15 column lengths]}, ...]}
                                                          (one line)
    then per interval, in this order:
      addrs u32 | exits u8 | nexts u32 | branch_ops u8 | insts u8 |
      loads u8 | load_addrs u32/u64 | load_ends u32 |
      store_addrs u32/u64 | store_kinds u8 | store_bits 8 B |
      store_ends u32 | reg_index u8 | reg_kinds u8 | reg_bits 8 B

An interval's two data-address columns are u32 when every address in
the interval fits in 32 bits (every benchmark's do: data starts at
1 MiB) and u64 otherwise; ``addr_bytes`` says which.

A value, in memory or in a register, crosses the blob only as its 8
bytes beside a kind, so a NaN's payload and a zero's sign survive.  The
recorder streams the blob into the store's temp file, and a reader
fills each column in place with one ``readinto``
(:func:`decode_trace`): no Python object per block or per store on
either side.

Traces follow the result store: on exactly when
:func:`repro.harness.runner.configure_cache` enabled one, at
``<store root>/traces``.  :func:`configure_ff_trace` is the explicit
override (the benchmark records traces with the result store off), and
the next ``configure_cache`` drops it.  Forked executor workers inherit
the process-wide setting.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib
import struct
import sys
import zlib
from array import array
from typing import Optional, Sequence

import repro.obs as obs_lib
from repro.exec.store import MISS, BlobStore
from repro.mem.flatmem import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, FlatMemory

#: Bump when the trace layout or what it records changes; old blobs
#: then read as misses.
TRACE_SCHEMA = 5

#: The explicit override (:func:`configure_ff_trace`): ``None`` follows
#: the result store, ``False`` is off, a path is the trace root.
_override = None

#: (store root, key) -> FFTrace: one in-memory trace serves every replay
#: in-process (a serial composition sweep parses — or, after recording,
#: never parses — each trace once).  Keyed by root so a re-pointed
#: store is consulted, and filled, on its own account.
_PARSED: dict[tuple, "FFTrace"] = {}
_PARSED_CAP = 4


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

def configure_ff_trace(enabled: bool, cache_dir=None) -> None:
    """Override the trace store: off, or at ``cache_dir``, whatever the
    result store does.  Pool workers forked afterwards inherit it."""
    global _override
    if enabled and cache_dir is None:
        raise ValueError("an enabled trace override needs a cache_dir")
    _override = pathlib.Path(cache_dir) if enabled else False


def reset_ff_trace() -> None:
    """Drop the override, so traces follow the result store again, and
    the in-process parsed cache (the on-disk store is untouched)."""
    global _override
    _override = None
    _PARSED.clear()


def trace_root() -> Optional[pathlib.Path]:
    """Where sampled runs record and replay traces; ``None`` when
    tracing is off."""
    if _override is not None:
        return _override or None
    from repro.harness.runner import get_store

    store = get_store()
    return None if store is None else store.root / "traces"


class FFTraceStore(BlobStore):
    """Content-addressed fast-forward trace store: a
    :class:`repro.exec.store.BlobStore` rooted at the trace directory,
    salted with the trace schema, whose records are
    :func:`encode_trace` blobs at gzip level 1 — streamed into the
    temp file on write, and read column by column from the gzip stream
    (never a whole compressed copy in memory)."""

    def __init__(self, root) -> None:
        super().__init__(root, salt=TRACE_SCHEMA)

    def _read(self, key: str):
        try:
            with gzip.open(self.path_for(key), "rb") as blob:
                return decode_trace(blob, key, self.salt)
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zlib.error):
            return MISS

    def store(self, key: str, trace: "FFTrace") -> pathlib.Path:
        def write(handle) -> None:
            with gzip.GzipFile(fileobj=handle, mode="wb", compresslevel=1,
                               mtime=0) as blob:
                for piece in encode_trace(trace, key, self.salt):
                    blob.write(piece)
        return self._put(key, write)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------

def program_fingerprint(program) -> str:
    """Structural content hash of a built program: entry, block layout
    (label/size/instruction counts), data segment, and initial
    registers.  Memoized on the program object — one hash per build.

    The fingerprint deliberately stops at structure (it does not
    disassemble every instruction): a code change that preserves the
    full block layout *and* data image is caught by the per-interval
    start-address checks and the architectural end-state verification,
    which stay on for every replayed run.
    """
    fp = getattr(program, "_ff_fingerprint", None)
    if fp is None:
        digest = hashlib.sha256()
        digest.update(repr((program.name, program.entry,
                            tuple(program.order))).encode())
        for label in program.order:
            block = program.blocks[label]
            digest.update(repr((label, block.size, len(block.reads),
                                len(block.writes))).encode())
        for addr in sorted(program.data):
            digest.update(str(addr).encode())
            digest.update(program.data[addr])
        digest.update(repr(sorted(program.reg_init.items())).encode())
        fp = digest.hexdigest()
        program._ff_fingerprint = fp
    return fp


def schedule_tag(sampling: dict) -> str:
    """Human-readable schedule label for events/metrics, e.g.
    ``ff448/w40/wu8``."""
    return (f"ff{sampling['ff_blocks']}/w{sampling['window_blocks']}"
            f"/wu{sampling['warmup_blocks']}")


def trace_group(spec) -> Optional[tuple]:
    """Cheap grouping key — every spec in a group shares one trace.
    ``None`` for unsampled specs (``JobSpec`` allows sampling only on
    fault-free TFlex edge specs).

    Unlike :func:`trace_key` this never builds the program, so batch
    planners (``prewarm_specs``) can partition without paying a
    workload build per spec.
    """
    if not spec.sampling:
        return None
    return (spec.bench, spec.scale, spec.sampling)


def trace_key(spec) -> Optional[str]:
    """Content address of the trace ``spec`` records or replays:
    sha256 over the schema version, program fingerprint, scale, and the
    full sampling schedule.  Composition axes (``ncores``, overrides,
    ``ideal_handshake``, ``verify``) are deliberately absent — the
    interpreter never reads them."""
    if not spec.sampling:
        return None
    from repro.harness.simulate import cached_program

    program, __, __ = cached_program("edge", spec.bench, spec.scale)
    payload = {
        "schema": TRACE_SCHEMA,
        "bench": spec.bench,
        "scale": spec.scale,
        "program": program_fingerprint(program),
        "sampling": dict(sorted(spec.sampling_dict().items())),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Schema: encode / decode
# ----------------------------------------------------------------------

_DOUBLE = struct.Struct("<d")


def store_bits(size: int, value, fp) -> bytes:
    """A store's value as :class:`FFInterval` keeps it: 8 little-endian
    bytes, an int as its signed 64-bit pattern and an fp value as its
    double.  The first ``size`` of them are what ``FlatMemory.store``
    writes.  A store the interpreter cannot commit that way — an int
    store of anything but an int in signed 64 bits, an fp store of
    anything but an 8-byte float — raises ``ValueError``
    (``OverflowError`` out of range)."""
    if fp:
        if type(value) is not float or size != 8:
            raise ValueError(f"fp store of {size} B {value!r}")
        return _DOUBLE.pack(value)
    if type(value) is not int or size not in (1, 2, 4, 8):
        raise ValueError(f"int store of {size} B {value!r}")
    return value.to_bytes(8, "little", signed=True)


def _bits(value) -> bytes:
    """A register's value as the register columns keep it (see
    :func:`store_bits`)."""
    return store_bits(8, value, type(value) is float)


#: Every column of an interval, in blob order, with its ``array`` type
#: code (``None``: a ``bytearray`` of 8-byte values; ``_ADDR``: a data
#: address column, at the interval's address width).  Block addresses
#: lie in the code segment, far below 4 GiB, a block has at most 128
#: instructions and 8 exits, and the register file 128 registers.
_ADDR = "addr"
_COLUMNS = (("addrs", "I"), ("exits", "B"), ("nexts", "I"),
            ("branch_ops", "B"), ("insts", "B"), ("loads", "B"),
            ("load_addrs", _ADDR), ("load_ends", "I"),
            ("store_addrs", _ADDR), ("store_kinds", "B"),
            ("store_bits", None), ("store_ends", "I"),
            ("reg_index", "B"), ("reg_kinds", "B"), ("reg_bits", None))

#: An address column's type code by its width in bytes.
_ADDR_CODES = {4: "I", 8: "Q"}

#: The columns with one entry per block.
_PER_BLOCK = ("exits", "nexts", "branch_ops", "insts", "loads",
              "load_ends", "store_ends")

#: ``store_kinds``: a store's size, with the ``_FP`` flag on an fp store.
_FP = 0x80
STORE_SIZE = 0x7F
_STORE_KINDS = bytes((1, 2, 4, 8, 8 | _FP))
#: ``reg_kinds``: an int register's and an fp register's store kind.
_REG_KINDS = bytes((8, 8 | _FP))
#: What :meth:`FFInterval.landing` marks each stored byte with.
_MARKS = b"\x01" * 8


def land_stores(mem, interval: "FFInterval", first: int = 0) -> None:
    """Apply an interval's stores from its ``first`` on to the
    ``FlatMemory`` ``mem`` in commit order: one live block's (the
    sampled engine's ``interpret``), or all of an interval's
    (:meth:`FFInterval.landing`).  A store's bytes are the first
    ``size`` of its value's 8 in ``store_bits`` (byte-identical to
    ``FlatMemory.store``) and land with direct page writes; only a
    page-straddling store takes the generic path."""
    pages = mem._pages
    bits = interval.store_bits
    at = 8 * first
    for saddr, kind in zip(interval.store_addrs[first:],
                           interval.store_kinds[first:]):
        size = kind & STORE_SIZE
        off = saddr & PAGE_MASK
        stop = off + size
        if stop <= PAGE_SIZE:
            number = saddr >> PAGE_SHIFT
            page = pages.get(number)
            if page is None:
                page = pages[number] = bytearray(PAGE_SIZE)
            page[off:stop] = bits[at:at + size]
        else:
            mem.write_bytes(saddr, bits[at:at + size])
        at += 8


def _addr_column(values) -> array:
    """``values`` as an address column: 32-bit when every value fits,
    64-bit otherwise."""
    try:
        return array("I", values)
    except OverflowError:
        return array("Q", values)


class FFInterval:
    """One fast-forward interval: what the live loop appends to, the
    recorder keeps, the codec reads and writes, and replay and warm-up
    consume.

    Every column is a fixed-width ``array`` (``store_bits`` a
    ``bytearray``), so an interval holds no Python object per block or
    per store.  The control columns
    (``addrs`` .. ``loads``) have one entry per block; ``branch_ops``
    holds indices into ``repro.isa.opcodes.BRANCH_KINDS``.  The data
    columns are flat, in commit order, with ``load_ends``/``store_ends``
    where each block ends: ``load_addrs``, and per store its address
    (``store_addrs``), its size with the ``_FP`` flag (``store_kinds``)
    and its value as 8 little-endian bytes (``store_bits``, see
    :func:`store_bits`).  A store's first ``size`` bytes there are the
    bytes replay writes.  The two address columns are appended to at
    64 bits and held at 32 once :meth:`narrow` finds that every
    address in the interval fits.  The register columns hold, per
    register the interval changed, its number (``reg_index``), its kind
    as a store's (``reg_kinds``: 8, with ``_FP`` for a float) and its
    end value's 8 bytes (``reg_bits``), written by the same
    :func:`store_bits`.
    """

    __slots__ = ("start", *(name for name, __ in _COLUMNS), "finished",
                 "_dcache_ops", "_landing")

    def __init__(self, start: int, *, finished: bool = False) -> None:
        self.start = start
        for name, typecode in _COLUMNS:
            setattr(self, name,
                    bytearray() if typecode is None
                    else array("Q" if typecode is _ADDR else typecode))
        self.finished = finished
        self._dcache_ops: dict = {}
        self._landing: Optional[list] = None

    def __len__(self) -> int:
        return len(self.addrs)

    def add_store(self, addr: int, size: int, value, fp) -> None:
        """Append one committed store to the data columns."""
        self.store_bits += store_bits(size, value, fp)
        self.store_addrs.append(addr)
        self.store_kinds.append(size | _FP if fp else size)

    def add_reg(self, index: int, value) -> None:
        """Append one register's end value to the register columns."""
        self.reg_bits += _bits(value)
        self.reg_index.append(index)
        self.reg_kinds.append(8 | _FP if type(value) is float else 8)

    def set_regs(self, start_regs: Sequence, end_regs: Sequence) -> None:
        """Keep every register whose kind or bits differ between two
        register files of equal length: ``-0.0 == 0.0`` and ``1 == 1.0``
        are changes here, and an unchanged NaN is none."""
        for index, (old, new) in enumerate(zip(start_regs, end_regs,
                                               strict=True)):
            if old is not new and (type(old) is not type(new)
                                   or _bits(old) != _bits(new)):
                self.add_reg(index, new)

    def narrow(self) -> None:
        """Hold both address columns at 32 bits if every load and store
        address fits there; call once the interval is complete."""
        try:
            loads = array("I", self.load_addrs)
            stores = array("I", self.store_addrs)
        except OverflowError:
            return
        self.load_addrs, self.store_addrs = loads, stores

    def end_regs(self):
        """``(index, value)`` per kept register, bit for bit as kept."""
        bits = self.reg_bits
        for at, (index, kind) in enumerate(zip(self.reg_index,
                                               self.reg_kinds)):
            raw = bits[8 * at:8 * at + 8]
            yield index, (_DOUBLE.unpack(raw)[0] if kind & _FP
                          else int.from_bytes(raw, "little", signed=True))

    def landing(self) -> list:
        """``[(addr, raw), ...]``: what the interval's stores leave in
        memory, as runs of stored bytes within a page, in address order;
        derived once and shared by every replay.  Writing the runs is
        landing the stores (:func:`land_stores`): every byte a store
        wrote holds what the last store to it wrote, and no other byte
        is touched.  (conv@192's 16 000-block interval lands 7 112 stores
        as 14 runs.)"""
        if self._landing is None:
            image, marks = FlatMemory(), FlatMemory()
            land_stores(image, self)
            for addr, kind in zip(self.store_addrs, self.store_kinds):
                marks.write_bytes(addr, _MARKS[:kind & STORE_SIZE])
            runs = []
            for number, marked in sorted(marks._pages.items()):
                page, base = image._pages[number], number << PAGE_SHIFT
                start = marked.find(1)
                while start >= 0:
                    stop = marked.find(0, start)
                    if stop < 0:
                        stop = PAGE_SIZE
                    runs.append((base + start, bytes(page[start:stop])))
                    start = marked.find(1, stop)
            self._landing = runs
        return self._landing

    def dcache_ops(self, line_size: int) -> tuple:
        """``(lines, ops, ends)``: the D-cache accesses of the interval
        as one op stream, derived once per line size and shared by every
        composition's warm-up.  Per block, in commit order, the lines
        its loads touch, then the lines its stores touch; ``ends`` holds
        where each block's ops end.  An op is ``index << 1 | store``,
        ``index`` naming its line in ``lines`` (the distinct lines, in
        first use order).  An op on the line of the op just before it in
        its block, of the same kind, is kept once: that line is then the
        MRU of its set — and a stored one MODIFIED — with nothing run in
        between, so the access could neither miss nor reorder.  (Never
        across blocks: the next block's I-cache misses can reach the L2
        in between and recall the line.)"""
        derived = self._dcache_ops.get(line_size)
        if derived is None:
            index: dict[int, int] = {}          # line -> its index
            ops, ends = array("I"), array("I")
            load_addrs, store_addrs = self.load_addrs, self.store_addrs
            load_start = store_start = 0
            for load_end, store_end in zip(self.load_ends, self.store_ends):
                last = -1
                for addr in load_addrs[load_start:load_end]:
                    line = addr // line_size
                    if line != last:
                        last = line
                        ops.append(index.setdefault(line, len(index)) << 1)
                # A store to the line just loaded upgrades it (S -> M).
                last = -1
                for addr in store_addrs[store_start:store_end]:
                    line = addr // line_size
                    if line != last:
                        last = line
                        ops.append(index.setdefault(line, len(index)) << 1
                                   | 1)
                ends.append(len(ops))
                load_start, store_start = load_end, store_end
            derived = self._dcache_ops[line_size] = (
                _addr_column(index), ops, ends)
        return derived

    def check(self) -> None:
        """Raise ``ValueError`` unless the columns agree: one entry per
        block in each per-block column, end offsets that end at their
        data column's length, one width for both address columns, 8
        value bytes per store and per register, every store kind one
        :func:`store_bits` admits, every register kind an int's or a
        float's, and every register number below the register file's
        128."""
        from repro.isa.block import NUM_REGS

        blocks, stores = len(self.addrs), len(self.store_addrs)
        regs = len(self.reg_index)
        if not (all(len(getattr(self, name)) == blocks
                    for name in _PER_BLOCK)
                and (self.load_ends[-1] if blocks else 0)
                == len(self.load_addrs)
                and (self.store_ends[-1] if blocks else 0) == stores
                and self.load_addrs.typecode == self.store_addrs.typecode
                and len(self.store_kinds) == stores
                and len(self.store_bits) == 8 * stores
                and not self.store_kinds.tobytes().translate(
                    None, _STORE_KINDS)
                and len(self.reg_kinds) == regs
                and len(self.reg_bits) == 8 * regs
                and max(self.reg_index, default=0) < NUM_REGS
                and not self.reg_kinds.tobytes().translate(
                    None, _REG_KINDS)):
            raise ValueError(f"inconsistent columns in the interval at "
                             f"{self.start:#x}")


class FFTrace:
    """One trace: metadata plus ordered intervals."""

    __slots__ = ("bench", "scale", "sampling", "program", "intervals")

    def __init__(self, bench, scale, sampling, program, intervals):
        self.bench = bench
        self.scale = scale
        self.sampling = sampling
        self.program = program
        self.intervals = intervals

    def blocks(self) -> int:
        return sum(len(iv) for iv in self.intervals)


def encode_trace(trace: FFTrace, key: str, schema: int):
    """One trace's blob, uncompressed, in pieces: a one-line JSON
    header — the schema and key echo, the byte order, the trace's
    metadata, the branch kinds ``branch_ops`` indexes, and per interval
    its start, ``finished`` flag, address width and column lengths —
    then every interval's columns' raw bytes in :data:`_COLUMNS` order.
    The columns go out as they are held: no per-value conversion, and
    no register or memory value in the header."""
    from repro.isa.opcodes import BRANCH_KINDS

    header = {"schema": schema, "key": key, "byteorder": sys.byteorder,
              "bench": trace.bench, "scale": trace.scale,
              "sampling": trace.sampling, "program": trace.program,
              "branch_kinds": BRANCH_KINDS,
              "intervals": [{"start": iv.start, "finished": iv.finished,
                             "addr_bytes": iv.load_addrs.itemsize,
                             "lengths": [len(getattr(iv, name))
                                         for name, __ in _COLUMNS]}
                            for iv in trace.intervals]}
    yield json.dumps(header, separators=(",", ":")).encode() + b"\n"
    for iv in trace.intervals:
        for name, __ in _COLUMNS:
            yield getattr(iv, name)


def decode_trace(blob, key: str, schema: int) -> FFTrace:
    """Read an :func:`encode_trace` blob from the binary file ``blob``
    into columns, one ``readinto`` per column.  Raises
    ``ValueError`` on another schema, key, byte order or branch-kind
    table, on an address width other than 4 or 8 bytes, on columns that
    disagree (:meth:`FFInterval.check`) or on trailing bytes, and
    ``EOFError`` on a short body."""
    from repro.isa.opcodes import BRANCH_KINDS

    header = json.loads(blob.readline())
    if not isinstance(header, dict) or [
            header.get(field) for field in
            ("schema", "key", "byteorder", "branch_kinds")] != [
            schema, key, sys.byteorder, list(BRANCH_KINDS)]:
        raise ValueError("not a trace blob of this schema, key and host")
    intervals = []
    for raw in header["intervals"]:
        interval = FFInterval(raw["start"], finished=raw["finished"])
        lengths = raw["lengths"]
        if len(lengths) != len(_COLUMNS) or min(lengths) < 0:
            raise ValueError(f"column lengths {lengths}")
        addr_code = _ADDR_CODES.get(raw["addr_bytes"])
        if addr_code is None:
            raise ValueError(f"address width {raw['addr_bytes']!r}")
        for (name, typecode), length in zip(_COLUMNS, lengths):
            if typecode is _ADDR:
                typecode = addr_code
            # Allocated at its exact size, then filled in place.
            column = (bytearray(length) if typecode is None
                      else array(typecode, (0,)) * length)
            size = memoryview(column).nbytes
            if blob.readinto(column) != size:
                raise EOFError(f"{name}: fewer than {size} B")
            setattr(interval, name, column)
        interval.check()
        intervals.append(interval)
    if blob.read(1):
        raise ValueError("trailing bytes after the last column")
    return FFTrace(bench=header["bench"], scale=header["scale"],
                   sampling=header["sampling"], program=header["program"],
                   intervals=intervals)


# ----------------------------------------------------------------------
# Sessions (the engine's record/replay handles)
# ----------------------------------------------------------------------

class RecordSession:
    """Collects one run's fast-forward intervals; persisted once the
    run finishes cleanly from the program entry."""

    mode = "record"

    def __init__(self, key: str, store: FFTraceStore, spec,
                 program_fp: str) -> None:
        self.key = key
        self.store = store
        self.spec = spec
        self.program_fp = program_fp
        self.intervals: list[FFInterval] = []

    def add(self, interval: FFInterval) -> None:
        """Keep the next interval as the live loop built it."""
        self.intervals.append(interval)

    def finish(self, run) -> None:
        """Persist the trace if the run completed a clean recording,
        and keep it in memory for this process's replays either way: a
        trace that cannot be written is lost sharing, not a lost run."""
        if not run.finished or not self.intervals:
            return
        spec = self.spec
        sampling = dict(sorted(spec.sampling_dict().items()))   # as decoded
        trace = FFTrace(spec.bench, spec.scale, sampling, self.program_fp,
                        self.intervals)
        _cache_parsed(self.store, self.key, trace)
        obs = obs_lib.current()
        try:
            path = self.store.store(self.key, trace)
        except OSError as exc:
            if obs.active:
                obs.emit("trace.write_failed", bench=spec.bench, key=self.key,
                         error=f"{type(exc).__name__}: {exc}")
                obs.metrics.inc("sample.trace_write_failures",
                                bench=spec.bench)
            return
        if obs.active:
            obs.emit("trace.record", bench=spec.bench, key=self.key,
                     schedule=schedule_tag(sampling),
                     intervals=len(self.intervals), blocks=trace.blocks(),
                     bytes=path.stat().st_size)
            obs.metrics.inc("sample.trace_records", bench=spec.bench,
                            schedule=schedule_tag(sampling))


class ReplaySession:
    """Hands decoded intervals to the engine, falling back to live
    interpretation permanently on any alignment mismatch."""

    mode = "replay"

    def __init__(self, key: str, trace: FFTrace, spec) -> None:
        self.key = key
        self.trace = trace
        self.spec = spec
        self.live = False
        self.replayed = 0

    def interval_for(self, index: int, addr: int) -> Optional[FFInterval]:
        """The recorded interval the engine should replay next, or
        ``None`` (= interpret live) after any mismatch."""
        if self.live:
            return None
        intervals = self.trace.intervals
        interval = intervals[index] if 0 <= index < len(intervals) else None
        if interval is None or interval.start != addr:
            self.live = True
            obs = obs_lib.current()
            if obs.active:
                obs.emit("trace.mismatch", bench=self.spec.bench,
                         key=self.key, interval=index, resumed_at=addr,
                         recorded_start=(interval.start
                                         if interval is not None else None))
                obs.metrics.inc("sample.trace_mismatches",
                                bench=self.spec.bench)
            return None
        self.replayed += 1
        return interval

    def finish(self, run) -> None:
        obs = obs_lib.current()
        if obs.active:
            sampling = self.spec.sampling_dict()
            obs.emit("trace.replay", bench=self.spec.bench, key=self.key,
                     schedule=schedule_tag(sampling),
                     intervals=self.replayed, fell_back=self.live)
            obs.metrics.inc("sample.trace_replays", bench=self.spec.bench,
                            schedule=schedule_tag(sampling))


def _cache_parsed(store: FFTraceStore, key: str, trace: FFTrace) -> None:
    while len(_PARSED) >= _PARSED_CAP:
        _PARSED.pop(next(iter(_PARSED)))
    _PARSED[store.root, key] = trace


def open_trace_session(spec, store: Optional[FFTraceStore] = None):
    """The record-or-replay session for one sampled run, or ``None``
    when tracing is off or does not apply to the spec."""
    if store is None:
        root = trace_root()
        if root is None:
            return None
        store = FFTraceStore(root)
    key = trace_key(spec)
    if key is None:
        return None
    trace = _PARSED.get((store.root, key))
    if trace is None:
        trace = store.load(key)
        if trace is not None:
            _cache_parsed(store, key, trace)
    if trace is not None:
        return ReplaySession(key, trace, spec)
    from repro.harness.simulate import cached_program

    program, __, __ = cached_program("edge", spec.bench, spec.scale)
    return RecordSession(key, store, spec, program_fingerprint(program))


def prewarm_partition(specs: Sequence) -> tuple[list, list]:
    """Split a cold batch into ``(recorders, rest)`` so a parallel
    fan-out interprets each fast-forward trajectory exactly once.

    One spec per trace group whose trace would miss in the store — not
    on disk, or on disk but damaged or stale — goes into ``recorders``
    (run first, in parallel across groups); everything else —
    ineligible specs, singleton groups, groups already traced — goes
    into ``rest`` and replays.  A trace found here is parsed here and
    kept while the parsed cache has room, so the replays of the first
    ``_PARSED_CAP`` groups — in this process or in workers forked from
    it — start from the parsed trace.  With tracing disabled the batch
    passes through untouched.
    """
    specs = list(specs)
    root = trace_root()
    if root is None:
        return [], specs
    groups: dict[tuple, list] = {}
    order: list = []                     # (kind, payload) preserving input
    for spec in specs:
        group = trace_group(spec)
        if group is None:
            order.append(("spec", spec))
            continue
        members = groups.get(group)
        if members is None:
            members = groups[group] = []
            order.append(("group", group))
        members.append(spec)
    recorders: list = []
    rest: list = []
    store = None
    for kind, payload in order:
        if kind == "spec":
            rest.append(payload)
            continue
        members = groups[payload]
        if len(members) == 1:
            rest.extend(members)
            continue
        if store is None:
            store = FFTraceStore(root)
        key = trace_key(members[0])
        trace = None
        if key is not None:
            trace = _PARSED.get((store.root, key))
            if trace is None:
                trace = store.load(key)
                # Kept only while there is room: evicting here would
                # drop the groups that replay first.
                if trace is not None and len(_PARSED) < _PARSED_CAP:
                    _cache_parsed(store, key, trace)
        if trace is not None:
            rest.extend(members)
        else:
            recorders.append(members[0])
            rest.extend(members[1:])
    return recorders, rest
