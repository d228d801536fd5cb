"""Shared fast-forward traces: schema round-trips, keying, store
hygiene, and the cross-composition differential gate.

The differential suite is the tentpole guarantee: replaying a recorded
fast-forward trace under a *different* composition must produce a
``RunResult`` byte-identical to interpreting the fast-forward region
live — across core counts, the ideal-handshake ablation arm, and
benchmarks of every category.
"""

import gzip
import io
import json
import pathlib
import struct
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.obs as obs_lib
from repro.exec import ResultStore
from repro.exec.spec import JobSpec
from repro.exec.worker import execute_spec
from repro.harness import clear_cache, configure_cache
from repro.obs import RingBufferSink
from repro.sample.trace import (
    TRACE_SCHEMA,
    FFInterval,
    FFTrace,
    FFTraceStore,
    RecordSession,
    ReplaySession,
    configure_ff_trace,
    decode_trace,
    encode_trace,
    prewarm_partition,
    reset_ff_trace,
    trace_group,
    trace_key,
    trace_root,
)
from tests.bits import exact
from tests.sample.intervals import interval_of_blocks


SAMPLING = {"ff_blocks": 160, "window_blocks": 24, "warmup_blocks": 8}


def _blob_count(root) -> int:
    """Trace blobs stored under ``root``."""
    return len(list(pathlib.Path(root).glob(f"??/*{FFTraceStore.SUFFIX}")))


@pytest.fixture(autouse=True)
def _isolated(tmp_path):
    """Each test gets a fresh in-process cache, a disabled result
    store, and its own trace-store root."""
    clear_cache()
    configure_cache(enabled=False)
    reset_ff_trace()
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces")
    yield
    reset_ff_trace()
    clear_cache()
    configure_cache(enabled=False)
    obs_lib.reset()


# ----------------------------------------------------------------------
# Schema round-trips (property-based, through the column codec)
# ----------------------------------------------------------------------

#: A negative quiet NaN with payload 1: JSON would bring it back as
#: ``float("nan")``, 0x7ff8000000000000.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]

_reg_values = st.one_of(st.integers(-(2 ** 63), 2 ** 63 - 1), st.floats(),
                        st.just(NAN_PAYLOAD))
_regfiles = st.lists(_reg_values, min_size=8, max_size=8)


def _resumed(start, interval):
    """``start`` with an interval's kept registers landed, as replay
    lands them."""
    regs = list(start)
    for index, value in interval.end_regs():
        regs[index] = value
    return regs


def _regs_interval(start, end) -> FFInterval:
    interval = FFInterval(0)
    interval.set_regs(start, end)
    return interval


class TestRegDelta:
    @given(_regfiles, _regfiles)
    @example([0.0, 1, NAN_PAYLOAD, 2.5] * 2, [-0.0, 1.0, NAN_PAYLOAD,
                                               float("nan")] * 2)
    def test_roundtrip(self, start, end):
        """Through the blob: every register comes back bit for bit."""
        interval = _regs_interval(start, end)
        decoded = _decoded(_blob(_trace([interval]))).intervals[0]
        assert exact(_resumed(start, decoded)) == exact(end)

    def test_negative_zero_is_a_delta(self):
        """``0.0 != -0.0`` is false; the register still changed."""
        interval = _regs_interval([0.0, 1, -0.0], [-0.0, 1, 0.0])
        assert repr(list(interval.end_regs())) == "[(0, -0.0), (2, 0.0)]"

    @given(_regfiles)
    def test_identity_is_empty(self, regs):
        """Equal bits are no change, also for a NaN read back into a new
        object (``nan != nan``)."""
        copies = [struct.unpack("<d", struct.pack("<d", value))[0]
                  if type(value) is float else value for value in regs]
        assert not _regs_interval(regs, copies).reg_index

    def test_type_change_is_a_delta(self):
        # 1 == 1.0 in Python, but the register file distinguishes the
        # int from the float; the delta must carry it.
        assert list(_regs_interval([1], [1.0]).end_regs()) == [(0, 1.0)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _regs_interval([0], [0, 0])


# Stores as the interpreter commits them, flat ``addr, size, value,
# fp01`` quads: an int store of any size and any 64-bit value
# (negative, or wider than its size), or an 8-byte fp store of any
# double, NaNs included; some of them straddle a page.
_addrs = st.one_of(st.integers(0, 1 << 20), st.integers(4089, 4095))
_stores = st.lists(st.one_of(
    st.tuples(_addrs, st.sampled_from([1, 2, 4, 8]),
              st.integers(-(2 ** 63), 2 ** 63 - 1), st.just(0)),
    st.tuples(_addrs, st.just(8), st.floats(), st.just(1))),
    max_size=6).map(lambda items: [field for item in items
                                   for field in item])

_intervals = st.lists(st.tuples(
    st.integers(0, 63),                                    # block number
    st.integers(0, 7),                                     # exit id
    st.integers(0, 63),                                    # next block
    st.sampled_from(["BRO", "CALLO", "RET"]),              # branch op
    st.integers(1, 128),                                   # insts
    st.lists(st.integers(0, 1 << 20), max_size=4),         # load addrs
    _stores,
), max_size=8)

_reg_deltas = st.lists(st.tuples(st.integers(0, 127), _reg_values),
                       max_size=4)


def _columns(blocks):
    """Per-block columns in :func:`interval_of_blocks` order (the data
    columns one list per block)."""
    return ([b * 64 for b, *_ in blocks],
            [e for _, e, *_ in blocks],
            [n * 64 for _, _, n, *_ in blocks],
            [op for *_3, op, _i, _l, _s in blocks],
            [i for *_4, i, _l, _s in blocks],
            [len(l) for *_5, l, _s in blocks],
            [list(l) for *_5, l, _s in blocks],
            [list(s) for *_6, s in blocks])


def _build_interval(blocks, start, finished, regs=((1, 42),)):
    return interval_of_blocks(start, _columns(blocks), regs=regs,
                              finished=finished)


def _trace(intervals, bench="conv", scale=1, program="fp"):
    return FFTrace(bench, scale, dict(sorted(SAMPLING.items())), program,
                   intervals)


KEY = "ab" * 32


def _blob(trace, key=KEY, schema=TRACE_SCHEMA) -> bytes:
    """``trace``'s blob as the store writes it, before gzip."""
    return b"".join(bytes(piece)
                    for piece in encode_trace(trace, key, schema))


def _decoded(blob: bytes, key=KEY) -> FFTrace:
    return decode_trace(io.BytesIO(blob), key, TRACE_SCHEMA)


#: An interval's columns and fields (its derived caches excluded).
FIELDS = [name for name in FFInterval.__slots__ if not name.startswith("_")]


def _same_interval(got, want):
    """Field-for-field equality of two FFIntervals, in type too (an
    int column entry is not a float one)."""
    return repr([getattr(got, name) for name in FIELDS]) \
        == repr([getattr(want, name) for name in FIELDS])


#: Every store shape the interpreter commits, as ``(size, value,
#: fp01)``: int stores of each size, negative, and wider than their
#: size but inside 64 bits, and fp stores.
STORE_SHAPES = [
    (1, 0x7F, 0), (1, -1, 0), (1, 0x1234, 0),
    (2, 0xBEEF, 0), (2, -2, 0), (2, 1 << 40, 0),
    (4, 0xDEADBEEF, 0), (4, -(1 << 31), 0), (4, -(1 << 40) - 7, 0),
    (8, (1 << 63) - 1, 0), (8, -(1 << 63), 0), (8, 0, 0),
    (8, 2.5, 1), (8, -0.0, 1), (8, 1e300, 1), (8, -5e-324, 1),
    (8, float("inf"), 1), (8, float("nan"), 1),
]

#: ``_intervals`` blocks storing every shape: one block each, then one
#: block with all of them, then one with none, then one whose stores
#: straddle a page.
SHAPE_BLOCKS = [(n, 0, n + 1, "BRO", 1, [], [8 * n, *shape])
                for n, shape in enumerate(STORE_SHAPES)] + [
    (40, 1, 41, "RET", 9, [], [field for n, shape in enumerate(STORE_SHAPES)
                               for field in (4096 + 8 * n, *shape)]),
    (41, 2, 0, "CALLO", 2, [8], []),
    (42, 0, 43, "BRO", 2, [], [4095, 2, -3, 0, 8190, 8, 0.5, 1])]


def _packed(code, values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}{code}", *values)


def _ends(lists):
    return list(accumulate(len(items) for items in lists))


class TestTraceRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_intervals, _reg_deltas, st.booleans()),
                    max_size=3))
    @example(raw_intervals=[(SHAPE_BLOCKS, [(1, 42), (7, -0.5),
                                            (9, NAN_PAYLOAD), (127, -0.0)],
                             False), ([], [], True)])
    def test_encode_decode_roundtrip(self, raw_intervals):
        intervals = [_build_interval(blocks, i * 4096, finished, regs)
                     for i, (blocks, regs, finished)
                     in enumerate(raw_intervals)]
        trace = _decoded(_blob(_trace(intervals, scale=3,
                                      program="fp" * 32)))

        assert trace.bench == "conv"
        assert trace.scale == 3
        assert trace.sampling == dict(sorted(SAMPLING.items()))
        assert trace.program == "fp" * 32
        assert len(trace.intervals) == len(intervals)
        for got, want in zip(trace.intervals, intervals):
            assert _same_interval(got, want)

    def test_negative_zero_register_keeps_its_sign(self):
        """A register that went from 0.0 to -0.0 in an interval resumes
        as -0.0 after the blob's round trip, as in the live run, and a
        negative NaN keeps its sign and payload."""
        start = [0.0, 7, -0.0, 2.5, float("nan")]
        end = [-0.0, 7, 0.0, 2.5, NAN_PAYLOAD]
        decoded = _decoded(_blob(_trace([_regs_interval(start, end)])))
        assert exact(_resumed(start, decoded.intervals[0])) == exact(end)

    @settings(max_examples=25, deadline=None)
    @given(_intervals)
    @example(blocks=SHAPE_BLOCKS)
    @example(blocks=[(0, 0, 1, "BRO", 1, [], [
        100, 8, -1, 0, 102, 2, 0, 0, 4094, 4, 7, 0]),
        (1, 0, 2, "BRO", 1, [], [100, 1, 0x55, 0, 4092, 8, -0.0, 1])])
    def test_stores_raw_matches_flatmemory_encoding(self, blocks):
        """The raw bytes replay lands from a decoded interval's store
        columns must be exactly what ``FlatMemory.store`` would have
        written: store by store (``land_stores``), and as the runs the
        stores leave behind (``FFInterval.landing``), overlaps and page
        straddles included."""
        from repro.mem.flatmem import FlatMemory
        from repro.sample.trace import land_stores

        interval = _build_interval(blocks, start=0, finished=True)
        decoded = _decoded(_blob(_trace([interval]))).intervals[0]

        via_store = FlatMemory()
        for quads in _columns(blocks)[7]:
            for at in range(0, len(quads), 4):
                addr, size, value, fp = quads[at:at + 4]
                via_store.store(addr, size, value, fp=bool(fp))
        landed = FlatMemory()
        land_stores(landed, decoded)
        assert via_store._pages == landed._pages
        runs = FlatMemory()
        for addr, raw in decoded.landing():
            runs.write_bytes(addr, raw)
        assert via_store._pages == runs._pages

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_intervals, max_size=3))
    @example(raw_intervals=[SHAPE_BLOCKS, []])
    def test_blob_is_a_header_line_then_column_bytes(self, raw_intervals):
        """The blob, written out by hand: a compact JSON header line,
        then per interval its fifteen columns' little-endian bytes —
        block addresses as u32, counts and branch-kind indices as u8,
        addresses as u64, end offsets as u32, store kinds with the fp
        flag, each store's value as its 8-byte pattern, and the
        register columns: numbers and kinds as u8, values as 8 bytes.
        No value is in the header."""
        from repro.isa.opcodes import BRANCH_KINDS

        trace = _trace([_build_interval(blocks, i * 4096, False)
                        for i, blocks in enumerate(raw_intervals)])
        body, described = b"", []
        for i, blocks in enumerate(raw_intervals):
            addrs, exits, nexts, ops, insts, loads, la, st_ = \
                _columns(blocks)
            stores = [quads[at:at + 4] for quads in st_
                      for at in range(0, len(quads), 4)]
            columns = [
                _packed("I", addrs), _packed("B", exits),
                _packed("I", nexts),
                _packed("B", map(BRANCH_KINDS.index, ops)),
                _packed("B", insts), _packed("B", loads),
                _packed("Q", (a for block in la for a in block)),
                _packed("I", _ends(la)),
                _packed("Q", (addr for addr, *_ in stores)),
                _packed("B", (size | 0x80 * fp for _, size, _, fp in stores)),
                b"".join(struct.pack("<d", value) if fp else
                         value.to_bytes(8, "little", signed=True)
                         for *_, value, fp in stores),
                _packed("I", (end // 4 for end in _ends(st_))),
                _packed("B", [1]), _packed("B", [8]), _packed("q", [42])]
            body += b"".join(columns)
            sizes = (4, 1, 4, 1, 1, 1, 8, 4, 8, 1, 1, 4, 1, 1, 1)
            described.append({"start": i * 4096, "finished": False,
                              "lengths": [len(column) // size for column, size
                                          in zip(columns, sizes)]})
        header = {"schema": TRACE_SCHEMA, "key": KEY, "byteorder": "little",
                  "bench": "conv", "scale": 1,
                  "sampling": dict(sorted(SAMPLING.items())),
                  "program": "fp", "branch_kinds": list(BRANCH_KINDS),
                  "intervals": described}
        assert _blob(trace) == json.dumps(
            header, separators=(",", ":")).encode() + b"\n" + body

    def test_unknown_schema_rejected(self):
        trace = _trace([_build_interval(SHAPE_BLOCKS, 0, True)])
        with pytest.raises(ValueError):
            _decoded(_blob(trace, schema=TRACE_SCHEMA + 1))
        with pytest.raises(ValueError):
            _decoded(_blob(trace), key="cd" * 32)

    @pytest.mark.parametrize("kind", [3, 8 | 0x80 | 1, 4 | 0x80, 0, 16])
    def test_unknown_store_kind_rejected(self, kind):
        """A store kind the recorder cannot write is refused on decode,
        before replay could land its bytes."""
        interval = _build_interval([(0, 0, 1, "BRO", 1, [], [0, 8, 1, 0])],
                                   start=0, finished=True)
        interval.store_kinds[0] = kind
        with pytest.raises(ValueError):
            _decoded(_blob(_trace([interval])))

    @pytest.mark.parametrize("column, value", [
        ("reg_kinds", 4), ("reg_kinds", 0x80), ("reg_kinds", 1 | 0x80),
        ("reg_index", 128), ("reg_index", 255)])
    def test_unknown_register_kind_or_number_rejected(self, column, value):
        """A register kind other than an int's or a float's, or a number
        past the 128-register file, is refused on decode."""
        interval = _build_interval([], start=0, finished=True,
                                   regs=[(0, 1), (127, 2.0)])
        getattr(interval, column)[1] = value
        with pytest.raises(ValueError):
            _decoded(_blob(_trace([interval])))


@pytest.mark.parametrize("size, value, fp", [
    (8, 1.5, 0), (4, True, 0), (8, 3, 1), (4, 2.0, 1), (3, 1, 0),
    (8, 1 << 63, 0), (1, -(1 << 63) - 1, 0)])
def test_unrepresentable_store_is_an_error(size, value, fp):
    """A store whose bytes the columns could not hold exactly — an int
    store of anything but an int in signed 64 bits, an fp store of
    anything but an 8-byte float — is refused when recorded: it is never
    kept another way."""
    with pytest.raises((ValueError, OverflowError)):
        FFInterval(0).add_store(0, size, value, fp)


def test_every_benchmark_trace_round_trips_its_wire_text():
    """Each benchmark's scale-1 run, interpreted into intervals as the
    recorder does, encodes to a blob that decodes and re-encodes to the
    same bytes; its decoded stores, landed on the initial image, give
    the interpreter's final memory."""
    from repro.sample.engine import SampledRun, interpret
    from repro.sample.trace import land_stores
    from repro.workloads import BENCHMARKS

    for bench in sorted(BENCHMARKS):
        spec = JobSpec.edge(bench, 1, scale=1, sampling=SAMPLING)
        run = SampledRun(spec)
        intervals = []
        addr, prepared = run.addr, {}
        while not intervals or not intervals[-1].finished:
            intervals.append(interpret(run.interp, addr, 4096, prepared))
            addr = intervals[-1].nexts[-1]
        blob = _blob(_trace(intervals, bench=bench))
        decoded = _decoded(blob)
        assert _blob(decoded) == blob, bench
        assert all(_same_interval(got, want) for got, want in
                   zip(decoded.intervals, intervals, strict=True)), bench
        landed = SampledRun(spec)
        for interval in decoded.intervals:
            land_stores(landed.mem, interval)
        assert landed.mem._pages == run.mem._pages, bench


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------

class TestTraceKey:
    def test_composition_axes_do_not_change_the_key(self):
        """Every composition of one (program, scale, schedule) shares a
        trace: ncores and the ideal-handshake ablation are invisible to
        the interpreter."""
        base = trace_key(JobSpec.edge("conv", 2, scale=2,
                                      sampling=SAMPLING))
        assert base is not None
        for spec in (
            JobSpec.edge("conv", 16, scale=2, sampling=SAMPLING),
            JobSpec.edge("conv", 32, scale=2, sampling=SAMPLING,
                         ideal_handshake=True),
            JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING,
                         overrides={"lsq_size": 16}),
            JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING,
                         verify=False),
        ):
            assert trace_key(spec) == base

    def test_program_and_schedule_axes_change_the_key(self):
        base = trace_key(JobSpec.edge("conv", 2, scale=2,
                                      sampling=SAMPLING))
        for spec in (
            JobSpec.edge("gzip", 2, scale=2, sampling=SAMPLING),
            JobSpec.edge("conv", 2, scale=3, sampling=SAMPLING),
            JobSpec.edge("conv", 2, scale=2,
                         sampling=dict(SAMPLING, ff_blocks=161)),
        ):
            assert trace_key(spec) != base

    def test_ineligible_specs_have_no_key(self):
        assert trace_key(JobSpec.edge("conv", 2)) is None       # no sampling
        assert trace_key(JobSpec.edge("conv", 2, trips=True,
                                      sampling=SAMPLING)) is None
        assert trace_group(JobSpec.edge("conv", 2)) is None

    def test_schema_version_salts_the_key(self, monkeypatch):
        spec = JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING)
        base = trace_key(spec)
        import repro.sample.trace as trace_mod

        monkeypatch.setattr(trace_mod, "TRACE_SCHEMA", TRACE_SCHEMA + 1)
        assert trace_key(spec) != base


# ----------------------------------------------------------------------
# Store hygiene
# ----------------------------------------------------------------------

class TestStoreHygiene:
    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        store = FFTraceStore(tmp_path / "t")
        key = "ab" * 32
        store.store(key, _trace([]))
        assert store.load(key) is not None

        path = store.path_for(key)
        path.write_bytes(b"not gzip at all")
        assert store.load(key) is None
        path.write_bytes(gzip.compress(b'{"truncated'))
        assert store.load(key) is None

    def test_schema_bump_reads_as_miss(self, tmp_path):
        """A blob written under another schema version must miss (the
        store salt is the schema), not decode wrongly."""
        key = "cd" * 32
        old = FFTraceStore(tmp_path / "t")
        old.salt = TRACE_SCHEMA + 1
        old.store(key, _trace([]))
        assert FFTraceStore(tmp_path / "t").load(key) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = FFTraceStore(tmp_path / "t")
        store.store("ef" * 32, _trace([]))
        moved = store.path_for("01" * 32)
        moved.parent.mkdir(parents=True, exist_ok=True)
        store.path_for("ef" * 32).rename(moved)
        assert store.load("01" * 32) is None


# ----------------------------------------------------------------------
# Cross-composition differential (the tentpole gate)
# ----------------------------------------------------------------------

DIFF_BENCHMARKS = ("conv", "gzip", "equake")     # hand / spec-int / spec-fp
DIFF_COMPOSITIONS = ((2, False), (8, False), (32, True))


def _diff_specs():
    return [JobSpec.edge(bench, ncores=n, scale=2, sampling=SAMPLING,
                         ideal_handshake=ideal)
            for bench in DIFF_BENCHMARKS
            for n, ideal in DIFF_COMPOSITIONS]


@pytest.mark.slow
def test_cross_composition_replay_is_bit_identical(tmp_path):
    """3 benchmarks x 3 compositions: stored records from the shared
    trace store must equal per-job fast-forward byte for byte."""
    perjob = ResultStore(tmp_path / "perjob")
    configure_ff_trace(enabled=False)
    for spec in _diff_specs():
        perjob.store(spec, execute_spec(spec))

    clear_cache()
    shared = ResultStore(tmp_path / "shared")
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces2")
    for spec in _diff_specs():
        shared.store(spec, execute_spec(spec))

    for spec in _diff_specs():
        a = shared.path_for(shared.key(spec)).read_bytes()
        b = perjob.path_for(perjob.key(spec)).read_bytes()
        assert a == b, f"records diverge for {spec.label()}"
    # One trace per benchmark was recorded.
    assert _blob_count(trace_root()) == len(DIFF_BENCHMARKS)


def test_recorder_caches_the_trace_it_would_decode():
    """``RecordSession.finish`` keeps the intervals it recorded instead
    of decoding the blob it just wrote: the cached trace must equal
    what the store reads back from that blob field for field."""
    import repro.sample.trace as trace_mod

    dense = {"ff_blocks": 48, "window_blocks": 16, "warmup_blocks": 4}
    for bench in ("conv", "gzip"):      # gzip stores, conv forwards
        spec = JobSpec.edge(bench, 4, scale=2, sampling=dense)
        execute_spec(spec)
        store = FFTraceStore(trace_root())
        cached = trace_mod._PARSED[store.root, trace_key(spec)]
        decoded = store.load(trace_key(spec))
        for name in ("bench", "scale", "sampling", "program"):
            assert getattr(cached, name) == getattr(decoded, name)
            assert type(getattr(cached, name)) is type(getattr(decoded, name))
        assert len(cached.intervals) == len(decoded.intervals) >= 2
        assert any(iv.store_addrs for iv in cached.intervals)
        for got, want in zip(cached.intervals, decoded.intervals):
            assert _same_interval(got, want)


DENSE = {"ff_blocks": 48, "window_blocks": 16, "warmup_blocks": 4}


def _recorded(spec):
    """Record ``spec``'s trace; returns its key and the in-memory trace
    the recorder kept."""
    import repro.sample.trace as trace_mod

    execute_spec(spec)
    key = trace_key(spec)
    return key, trace_mod._PARSED[FFTraceStore(trace_root()).root, key]


def _replay(key, trace, spec):
    """``spec`` run on ``trace``, every interval replayed."""
    from repro.sample.engine import SampledRun

    session = ReplaySession(key, trace, spec)
    result = SampledRun(spec, trace=session).run()
    assert not session.live and session.replayed == len(trace.intervals)
    return result.to_dict()


def test_decoded_trace_replays_like_the_recorded_one(tmp_path):
    """The trace the store reads back from the recorder's blob has the
    recorded trace's columns and replays to its result, which is the
    live one; writing the recorded trace again gives the same bytes."""
    from repro.sample.engine import SampledRun

    key, recorded = _recorded(JobSpec.edge("gzip", 4, scale=2,
                                           sampling=DENSE))
    store = FFTraceStore(trace_root())
    decoded = store.load(key)
    assert len(decoded.intervals) == len(recorded.intervals) >= 2
    for got, want in zip(decoded.intervals, recorded.intervals):
        assert _same_interval(got, want)

    again = FFTraceStore(tmp_path / "again").store(key, recorded)
    assert again.read_bytes() == store.path_for(key).read_bytes()

    spec = JobSpec.edge("gzip", 16, scale=2, sampling=DENSE)
    live = SampledRun(spec).run().to_dict()
    assert _replay(key, recorded, spec) == _replay(key, decoded, spec) == live


def test_one_trace_replays_at_two_line_sizes():
    """The D-cache op stream is derived per line size and kept: one trace
    replayed with 64 B lines, then 32 B ones (``overrides``), matches
    live interpretation at both sizes.  The interval that ends the
    program is never warmed, so it derives none."""
    from repro.sample.engine import SampledRun

    key, trace = _recorded(JobSpec.edge("conv", 2, scale=2, sampling=DENSE))
    for line_size in (64, 32):
        spec = JobSpec.edge("conv", 4, scale=2, sampling=DENSE,
                            overrides={"line_size": line_size})
        assert _replay(key, trace, spec) == SampledRun(spec).run().to_dict()
    assert [set(iv._dcache_ops) for iv in trace.intervals] \
        == [{64, 32}] * (len(trace.intervals) - 1) + [set()]


def test_the_interval_that_ends_the_program_is_not_warmed(monkeypatch):
    """``ShadowUarch.warm`` runs once per fast-forward interval except
    the one that ends the program, recording and replaying alike: no
    window follows it.  Its blocks count as
    ``sample.warm_tail_skipped_blocks``, and its loop fixed-point skips
    as none (not the previous interval's again)."""
    from repro.sample.shadow import ShadowUarch

    warmed, skipped = [], []
    real = ShadowUarch.warm

    def warm(self, interval, *args):
        warmed.append(interval)
        ghist = real(self, interval, *args)
        skipped.append(self.skipped)
        return ghist

    monkeypatch.setattr(ShadowUarch, "warm", warm)
    obs = obs_lib.configure(metrics=True)
    key, trace = _recorded(JobSpec.edge("conv", 4, scale=2, sampling=DENSE))
    intervals = trace.intervals
    assert len(intervals) >= 3 and intervals[-1].finished
    assert warmed == intervals[:-1]
    assert skipped[-1][0] > 0          # a repeat would show in the sums
    counter = obs.metrics.counter
    assert counter("sample.warm_tail_skipped_blocks", bench="conv") \
        == len(intervals[-1]) > 0
    for at, name in enumerate(("pred", "icache")):
        assert counter(f"sample.warm_{name}_skipped_blocks", bench="conv") \
            == sum(counts[at] for counts in skipped)

    warmed.clear()
    _replay(key, trace, JobSpec.edge("conv", 16, scale=2, sampling=DENSE))
    assert warmed == intervals[:-1]


def retained_bytes_per_block(spec, root, replay=None) -> float:
    """What a recorded trace keeps alive, in ``tracemalloc`` bytes per
    fast-forward block: traced memory with the recorder's trace cached,
    less traced memory once it is dropped.  With ``replay``, a spec of
    the same trace, that spec replays it once before the count, so the
    columns its warm-up derives count too.  First runs with tracing off
    build and compile the program, so neither side counts that."""
    import gc
    import tracemalloc

    import repro.sample.trace as trace_mod
    from repro.sample.engine import SampledRun

    store = FFTraceStore(root)
    for warm in (spec, replay):
        if warm is not None:
            SampledRun(warm).run()
    tracemalloc.start()
    try:
        session = trace_mod.open_trace_session(spec, store)
        run = SampledRun(spec, trace=session)
        run.run()
        session.finish(run)
        if replay is not None:
            _replay(session.key, trace_mod._PARSED[store.root, session.key],
                    replay)
        del run, session
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        trace = trace_mod._PARSED.pop((store.root, trace_key(spec)))
        blocks = trace.blocks()
        del trace
        gc.collect()
        return (with_trace - tracemalloc.get_traced_memory()[0]) / blocks
    finally:
        tracemalloc.stop()


def _bytes_spec(bench, **kwargs):
    """Intervals of 300 blocks: every one but the last is warmed, so
    the derived D-cache op stream counts (the interval that ends the
    program is never warmed, and derives none)."""
    return JobSpec.edge(bench, 4, scale=4,
                        sampling={"ff_blocks": 300, "window_blocks": 16,
                                  "warmup_blocks": 4}, **kwargs)


@pytest.mark.parametrize("bench, bound", [
    ("conv", 130),      # ~101 B: seven 8-byte load addresses a block
    ("gzip", 140),      # ~133 B: and two 17-byte stores a block
])
def test_recorded_trace_bytes_per_block(tmp_path, bench, bound):
    assert retained_bytes_per_block(_bytes_spec(bench), tmp_path / "t") \
        <= bound


@pytest.mark.parametrize("bench, bound", [
    ("conv", 145),      # ~111 B
    ("gzip", 175),      # ~165 B
])
def test_replayed_trace_bytes_per_block(tmp_path, bench, bound):
    """One replay at a second line size adds that size's D-cache op
    stream, and nothing else that grows with the trace."""
    replay = _bytes_spec(bench, overrides={"line_size": 32})
    assert retained_bytes_per_block(_bytes_spec(bench), tmp_path / "t",
                                    replay) <= bound


class TestUnwritableStore:
    """A trace that cannot be persisted is lost sharing, not a lost
    result: the run returns, the failure is counted, and this process
    still replays from memory."""

    SPECS = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
             for n in (2, 4)]

    def _check(self, reference):
        obs = obs_lib.configure(metrics=True)
        ring = obs.bus.attach(RingBufferSink(
            kinds=("trace.write_failed", "trace.record", "trace.replay")))
        clear_cache()
        assert [execute_spec(spec) for spec in self.SPECS] == reference
        (failed,) = ring.of_kind("trace.write_failed")
        assert failed["bench"] == "conv" and failed["key"] == trace_key(
            self.SPECS[0])
        assert ring.of_kind("trace.record") == []
        assert obs.metrics.counter("sample.trace_write_failures",
                                   bench="conv") == 1
        (replay,) = ring.of_kind("trace.replay")    # from memory
        assert not replay["fell_back"]

    def _reference(self, tmp_path):
        reference = [execute_spec(spec) for spec in self.SPECS]
        reset_ff_trace()
        return reference

    def test_root_under_a_regular_file(self, tmp_path):
        reference = self._reference(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        configure_ff_trace(enabled=True, cache_dir=blocker / "traces")
        self._check(reference)

    def test_disk_full(self, tmp_path, monkeypatch):
        import errno

        import repro.exec.store as store_mod

        reference = self._reference(tmp_path)
        configure_ff_trace(enabled=True, cache_dir=tmp_path / "full")

        def no_space(path, data):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(store_mod, "atomic_write", no_space)
        self._check(reference)
        assert _blob_count(trace_root()) == 0


class TestRepointedStore:
    """The in-memory trace cache is per store root: pointing the
    process at another trace directory must consult — and fill — that
    directory, in whichever order the directories are visited."""

    SPEC = JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING)
    GROUP = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
             for n in (2, 4)]

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_each_root_gets_its_own_blob(self, tmp_path, order):
        roots = [tmp_path / name for name in order]
        results = []
        for root in roots:
            configure_ff_trace(enabled=True, cache_dir=root)
            clear_cache()
            recorders, __ = prewarm_partition(self.GROUP)
            assert recorders == self.GROUP[:1]      # empty store: not traced
            results.append(execute_spec(self.SPEC))
            assert _blob_count(trace_root()) == 1
            assert prewarm_partition(self.GROUP)[0] == []
        assert results[0] == results[1]
        # Back at the first root, its own cached trace still serves.
        configure_ff_trace(enabled=True, cache_dir=roots[0])
        obs = obs_lib.configure(metrics=True)
        clear_cache()
        assert execute_spec(self.SPEC) == results[0]
        tag = "ff160/w24/wu8"
        assert obs.metrics.counter("sample.trace_replays",
                                   bench="conv", schedule=tag) == 1


def test_mismatching_trace_falls_back_to_live_run(tmp_path):
    """A trace whose interval boundaries do not line up is abandoned
    mid-run and the result still comes out identical — the fallback
    guarantee that makes replay safe to enable by default."""
    # A dense schedule guarantees several fast-forward intervals even
    # on the small scale, so the tamper lands mid-run.
    dense = {"ff_blocks": 48, "window_blocks": 16, "warmup_blocks": 4}
    spec = JobSpec.edge("conv", 4, scale=2, sampling=dense)
    reference = execute_spec(spec)
    key = trace_key(spec)
    trace = FFTraceStore(trace_root()).load(key)
    assert trace is not None and len(trace.intervals) >= 2

    # Corrupt the second interval's start address on disk (and drop the
    # in-process parse) so replay only notices once it is under way.
    trace.intervals[1].start += 64
    FFTraceStore(trace_root()).store(key, trace)
    import repro.sample.trace as trace_mod

    trace_mod._PARSED.clear()

    obs = obs_lib.configure(metrics=True)
    ring = obs.bus.attach(RingBufferSink(
        kinds=("trace.mismatch", "trace.replay")))
    clear_cache()
    result = execute_spec(spec)
    assert result == reference

    assert len(ring.of_kind("trace.mismatch")) == 1
    replays = ring.of_kind("trace.replay")
    assert len(replays) == 1 and replays[0]["fell_back"]


def test_record_then_replay_events_and_metrics(tmp_path):
    """The first run of a group records; the second replays every
    interval without interpreting (sample.ff never fires)."""
    obs = obs_lib.configure(metrics=True)
    ring = obs.bus.attach(RingBufferSink(
        kinds=("trace.record", "trace.replay", "trace.mismatch",
               "sample.ff", "sample.ff_replayed")))

    spec_a = JobSpec.edge("conv", 4, scale=2, sampling=SAMPLING)
    result_a = execute_spec(spec_a)
    clear_cache()
    spec_b = JobSpec.edge("conv", 16, scale=2, sampling=SAMPLING)
    execute_spec(spec_b)

    records = ring.of_kind("trace.record")
    assert len(records) == 1
    assert records[0]["bench"] == "conv"
    assert records[0]["intervals"] >= 1
    assert records[0]["bytes"] > 0

    lives = ring.of_kind("sample.ff")
    replayed = ring.of_kind("sample.ff_replayed")
    assert lives and all(e["bench"] == "conv" for e in lives)
    assert replayed and len(replayed) == records[0]["intervals"]
    assert not ring.of_kind("trace.mismatch")
    replays = ring.of_kind("trace.replay")
    assert len(replays) == 1 and not replays[0]["fell_back"]

    # Replaying run B re-used run A's trajectory: same committed blocks.
    clear_cache()
    result_b2 = execute_spec(JobSpec.edge("conv", 4, scale=2,
                                          sampling=SAMPLING))
    assert result_b2 == result_a


def test_disabled_tracing_records_nothing(tmp_path):
    configure_ff_trace(enabled=False)
    spec = JobSpec.edge("conv", 4, scale=2, sampling=SAMPLING)
    execute_spec(spec)
    assert _blob_count(tmp_path / "traces") == 0


# ----------------------------------------------------------------------
# Prewarm partitioning (the executor's honest-work planner)
# ----------------------------------------------------------------------

def _header(path) -> dict:
    """A stored blob's header line."""
    with gzip.open(path) as blob:
        return json.loads(blob.readline())


def _edit_blob(path, edit) -> None:
    """Rewrite a stored blob as ``edit(header, body)`` returns its body,
    with the header as ``edit`` left it."""
    head, __, body = gzip.decompress(path.read_bytes()).partition(b"\n")
    header = json.loads(head)
    body = edit(header, body)
    path.write_bytes(gzip.compress(
        json.dumps(header, separators=(",", ":")).encode() + b"\n" + body))


def _swap_lengths(header, body):
    """One more exit, one fewer instruction count: the body's size
    still matches the header, its columns do not."""
    lengths = header["intervals"][0]["lengths"]
    lengths[1] += 1
    lengths[4] -= 1
    return body


def _schema1_blob(path) -> None:
    """The previous schema's layout: one gzip JSON record."""
    path.write_bytes(gzip.compress(json.dumps(
        {"schema": 1, "key": path.name.split(".")[0],
         "payload": {"schema": 1, "intervals": []}}).encode()))


#: Damage done to a recorded blob on disk, each a miss on read.
DAMAGE = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:40]),
    "stale-schema": lambda path: _edit_blob(path, lambda header, body: (
        header.update(schema=TRACE_SCHEMA + 1), body)[1]),
    "wrong-key": lambda path: _edit_blob(path, lambda header, body: (
        header.update(key="0" * 64), body)[1]),
    "truncated-body": lambda path: _edit_blob(
        path, lambda header, body: body[:-1]),
    "lengths-disagree": lambda path: _edit_blob(path, _swap_lengths),
    "trailing-bytes": lambda path: _edit_blob(
        path, lambda header, body: body + bytes(8)),
    "schema-1-json": _schema1_blob,
}



class TestPrewarmPartition:
    def test_one_recorder_per_cold_group(self):
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4, 8)]
        specs += [JobSpec.edge("gzip", n, scale=2, sampling=SAMPLING)
                  for n in (2, 4)]
        specs.append(JobSpec.edge("conv", 8, scale=2))  # unsampled
        recorders, rest = prewarm_partition(specs)
        assert [s.bench for s in recorders] == ["conv", "gzip"]
        assert len(rest) == len(specs) - 2
        assert set(map(id, recorders)).isdisjoint(map(id, rest))

    def test_singleton_groups_are_not_recorders(self):
        specs = [JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING)]
        recorders, rest = prewarm_partition(specs)
        assert recorders == [] and rest == specs

    def test_already_recorded_groups_pass_through(self):
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4)]
        execute_spec(specs[0])          # records the group's trace
        recorders, rest = prewarm_partition(specs)
        assert recorders == [] and rest == specs

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_blob_gets_exactly_one_recorder(self, damage):
        """A damaged blob is a miss for ``load``, ``contains`` and the
        partition alike, so its group gets one recorder, every member's
        result is the undamaged one, and the recorder heals the blob.

        Regression: ``contains`` was a bare ``is_file()``, so a blob
        that ``load`` rejects still read as "traced" — the group got no
        recorder and every member re-interpreted the whole trajectory
        (N records racing to write, zero replays)."""
        import repro.sample.trace as trace_mod

        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4, 8)]
        reference = [execute_spec(spec) for spec in specs]

        store = FFTraceStore(trace_root())
        key = trace_key(specs[0])
        DAMAGE[damage](store.path_for(key))
        trace_mod._PARSED.clear()
        clear_cache()
        assert store.load(key) is None

        recorders, rest = prewarm_partition(specs)
        assert recorders == specs[:1] and rest == specs[1:]

        obs = obs_lib.configure(metrics=True)
        assert [execute_spec(spec) for spec in recorders + rest] == reference
        tag = trace_mod.schedule_tag(SAMPLING)
        assert obs.metrics.counter("sample.trace_records",
                                   bench="conv", schedule=tag) == 1
        assert obs.metrics.counter("sample.trace_replays",
                                   bench="conv", schedule=tag) == len(specs) - 1
        assert store.load(key) is not None          # healed by the recorder

    @pytest.mark.parametrize("cap, reads", [(4, ["conv", "gzip"]),
                                            (1, ["conv", "gzip", "gzip"])])
    def test_prewarm_then_replay_parses_each_trace_once(self, monkeypatch,
                                                        cap, reads):
        """What the partition loads to decide "traced" is what the
        in-process replay starts from.  With more groups than the
        parsed cache holds, the first groups stay parsed (they replay
        first) and only the overflow is read again."""
        import repro.sample.trace as trace_mod

        groups = [[JobSpec.edge(bench, n, scale=2, sampling=SAMPLING)
                   for n in (2, 4)] for bench in ("conv", "gzip")]
        for group in groups:
            execute_spec(group[0])      # records the group's trace
        trace_mod._PARSED.clear()       # as in a new process
        clear_cache()
        monkeypatch.setattr(trace_mod, "_PARSED_CAP", cap)
        decoded = []
        original = trace_mod.decode_trace
        monkeypatch.setattr(trace_mod, "decode_trace", lambda *args: (
            trace := original(*args), decoded.append(trace.bench))[0])

        recorders, rest = prewarm_partition(groups[0] + groups[1])
        assert recorders == [] and decoded == ["conv", "gzip"]
        for spec in rest:
            execute_spec(spec)
        assert decoded == reads

    def test_undecodable_payload_gets_a_recorder(self):
        """A blob whose header echoes the schema and the key but whose
        columns do not decode is a miss here, as it is for the replay
        and for ``load``."""
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4)]
        execute_spec(specs[0])
        store = FFTraceStore(trace_root())
        key = trace_key(specs[0])
        path = store.path_for(key)
        _edit_blob(path, lambda header, body: (
            header["intervals"][0].pop("lengths"), body)[1])
        assert _header(path)["key"] == key
        reset_ff_trace()
        configure_ff_trace(enabled=True, cache_dir=store.root)
        assert store.load(key) is None
        assert prewarm_partition(specs) == (specs[:1], specs[1:])

    def test_disabled_tracing_passes_through(self):
        configure_ff_trace(enabled=False)
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4)]
        assert prewarm_partition(specs) == ([], specs)
