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
echo, byte order, metadata, and per interval its start, register
delta, ``finished`` flag and column lengths), then each column's raw
bytes (:func:`encode_trace`), gzip level 1.  The recorder streams it
into the store's temp file, and a reader fills each column in place
with one ``readinto`` (:func:`decode_trace`): no Python object per
block or per store on either side.

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
from itertools import chain
from typing import Optional, Sequence

import repro.obs as obs_lib
from repro.exec.store import MISS, BlobStore

#: Bump when the trace layout changes; old blobs then read as misses.
TRACE_SCHEMA = 2

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

def encode_reg_delta(start_regs: Sequence, end_regs: Sequence) -> list:
    """Sparse ``[[index, value], ...]`` delta between two register
    files of equal length (typically a handful of entries per
    interval against the 128-register file)."""
    if len(start_regs) != len(end_regs):
        raise ValueError(f"register files differ in length: "
                         f"{len(start_regs)} vs {len(end_regs)}")
    return [[i, end_regs[i]] for i in range(len(start_regs))
            if start_regs[i] != end_regs[i]
            or type(start_regs[i]) is not type(end_regs[i])]


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


#: Every column of an interval, in blob order, with its ``array`` type
#: code (``None``: the ``bytearray`` of store values).  Block addresses
#: lie in the code segment, far below 4 GiB, and a block has at most
#: 128 instructions and 8 exits.
_COLUMNS = (("addrs", "I"), ("exits", "B"), ("nexts", "I"),
            ("branch_ops", "B"), ("insts", "B"), ("loads", "B"),
            ("load_addrs", "Q"), ("load_ends", "I"),
            ("store_addrs", "Q"), ("store_kinds", "B"),
            ("store_bits", None), ("store_ends", "I"))

#: The columns with one entry per block.
_PER_BLOCK = ("exits", "nexts", "branch_ops", "insts", "loads",
              "load_ends", "store_ends")

#: ``store_kinds``: a store's size, with the ``_FP`` flag on an fp store.
_FP = 0x80
STORE_SIZE = 0x7F
_STORE_KINDS = bytes((1, 2, 4, 8, 8 | _FP))


def block_spans(ends):
    """``(start, end)`` per block of a flat column with end offsets."""
    return zip(chain((0,), ends), ends)


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
    bytes replay writes.
    """

    __slots__ = ("start", *(name for name, __ in _COLUMNS), "reg_delta",
                 "finished", "_load_lines")

    def __init__(self, start: int, *, reg_delta=(),
                 finished: bool = False) -> None:
        self.start = start
        for name, typecode in _COLUMNS:
            setattr(self, name,
                    bytearray() if typecode is None else array(typecode))
        self.reg_delta = reg_delta        # [[index, value], ...] at the end
        self.finished = finished
        self._load_lines: dict = {}

    def __len__(self) -> int:
        return len(self.addrs)

    def add_store(self, addr: int, size: int, value, fp) -> None:
        """Append one committed store to the data columns."""
        self.store_bits += store_bits(size, value, fp)
        self.store_addrs.append(addr)
        self.store_kinds.append(size | _FP if fp else size)

    def load_lines(self, line_size: int) -> tuple:
        """``(lines, ends)``: per block, the lines its loads touch, a
        line loaded again right after itself kept once; derived once per
        line size and shared by every composition's warm-up."""
        if line_size not in self._load_lines:
            lines, ends = array("Q"), array("I")
            for start, end in block_spans(self.load_ends):
                last = -1
                for addr in self.load_addrs[start:end]:
                    line = addr // line_size
                    if line != last:
                        lines.append(line)
                        last = line
                ends.append(len(lines))
            self._load_lines[line_size] = lines, ends
        return self._load_lines[line_size]

    def check(self) -> None:
        """Raise ``ValueError`` unless the columns agree: one entry per
        block in each per-block column, end offsets that end at their
        data column's length, 8 value bytes per store, and every store
        kind one :func:`store_bits` admits."""
        blocks, stores = len(self.addrs), len(self.store_addrs)
        if not (all(len(getattr(self, name)) == blocks
                    for name in _PER_BLOCK)
                and (self.load_ends[-1] if blocks else 0)
                == len(self.load_addrs)
                and (self.store_ends[-1] if blocks else 0) == stores
                and len(self.store_kinds) == stores
                and len(self.store_bits) == 8 * stores
                and not self.store_kinds.tobytes().translate(
                    None, _STORE_KINDS)):
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
    its start, register delta, ``finished`` flag and column lengths —
    then every interval's columns' raw bytes in :data:`_COLUMNS` order.
    The columns go out as they are held: no per-value conversion."""
    from repro.isa.opcodes import BRANCH_KINDS

    header = {"schema": schema, "key": key, "byteorder": sys.byteorder,
              "bench": trace.bench, "scale": trace.scale,
              "sampling": trace.sampling, "program": trace.program,
              "branch_kinds": BRANCH_KINDS,
              "intervals": [{"start": iv.start, "regs": iv.reg_delta,
                             "finished": iv.finished,
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
    table, on columns that disagree (:meth:`FFInterval.check`) or on
    trailing bytes, and ``EOFError`` on a short body."""
    from repro.isa.opcodes import BRANCH_KINDS

    header = json.loads(blob.readline())
    if not isinstance(header, dict) or [
            header.get(field) for field in
            ("schema", "key", "byteorder", "branch_kinds")] != [
            schema, key, sys.byteorder, list(BRANCH_KINDS)]:
        raise ValueError("not a trace blob of this schema, key and host")
    intervals = []
    for raw in header["intervals"]:
        interval = FFInterval(raw["start"], reg_delta=raw["regs"],
                              finished=raw["finished"])
        lengths = raw["lengths"]
        if len(lengths) != len(_COLUMNS) or min(lengths) < 0:
            raise ValueError(f"column lengths {lengths}")
        for (name, typecode), length in zip(_COLUMNS, lengths):
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
