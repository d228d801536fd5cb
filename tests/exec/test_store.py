"""The record store: atomic writes, corruption tolerance, salt
invalidation — ``ResultStore`` specifics first, then the one contract
every store class (``ResultStore``, ``FFTraceStore``) and every
``atomic_write`` caller shares."""

import dataclasses
import gzip
import json
import os

import pytest

from repro.exec import JobSpec, ResultStore
from repro.exec.store import atomic_write
from repro.sample.trace import FFInterval, FFTrace, FFTraceStore


SPEC = JobSpec.edge("conv", ncores=4)
PAYLOAD = {"kind": "edge", "result": {"cycles": 123}}


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(SPEC) is None
        store.store(SPEC, PAYLOAD)
        assert store.load(SPEC) == PAYLOAD
        assert store.hits == 1
        assert len(list(tmp_path.glob("??/*.json"))) == 1

    def test_layout_is_content_addressed(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        key = store.key(SPEC)
        assert path == tmp_path / key[:2] / f"{key}.json"
        record = json.loads(path.read_text())
        assert record["key"] == key
        assert record["spec"]["bench"] == "conv"

    @pytest.mark.parametrize("root", ["{tmp}", "{tmp}/a//b/", "rel", "./rel/"])
    def test_reads_back_what_it_writes_from_any_spelling_of_root(
            self, tmp_path, monkeypatch, root):
        """The read path is a formatted string, the write path a
        ``pathlib`` join: both name the same file whatever the root's
        spelling (doubled or trailing separators, relative)."""
        monkeypatch.chdir(tmp_path)
        store = ResultStore(root.format(tmp=tmp_path))
        path = store.store(SPEC, PAYLOAD)
        assert path == store.path_for(store.key(SPEC))
        assert ResultStore(root.format(tmp=tmp_path)).load(SPEC) == PAYLOAD

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in (1, 2, 4):
            store.store(JobSpec.edge("conv", ncores=n), PAYLOAD)
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(list(tmp_path.glob("??/*.json"))) == 3


class TestCorruptionTolerance:
    def _record_path(self, store):
        store.store(SPEC, PAYLOAD)
        return store.path_for(store.key(SPEC))

    def test_truncated_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._record_path(store)
        # Simulate a crash mid-write that somehow survived: truncate the
        # record at half length.
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert store.load(SPEC) is None
        assert store.hits == 0

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._record_path(store)
        path.write_bytes(b"\x00\xff\x00garbage")
        assert store.load(SPEC) is None

    def test_wrong_json_shape_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._record_path(store)
        path.write_text(json.dumps([1, 2, 3]))
        assert store.load(SPEC) is None

    def test_rewrite_heals_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._record_path(store)
        path.write_text("{not json")
        assert store.load(SPEC) is None
        store.store(SPEC, PAYLOAD)
        assert store.load(SPEC) == PAYLOAD


class TestContains:
    """What a store contains is what ``load`` serves: there is no
    separate existence probe, so a record that fails validation is not
    contained (a bare existence check once reported a damaged trace
    blob as present)."""

    def test_contains_matches_load_on_valid_record(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(SPEC) is None
        store.store(SPEC, PAYLOAD)
        assert store.load(SPEC) == PAYLOAD

    def test_corrupt_record_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        path.write_text("{not json")
        assert store.load(SPEC) is None

    def test_wrong_schema_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        record = json.loads(path.read_text())
        record["schema"] = 999
        path.write_text(json.dumps(record))
        assert store.load(SPEC) is None

    def test_wrong_key_echo_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        record = json.loads(path.read_text())
        record["key"] = "0" * 64
        path.write_text(json.dumps(record))
        assert store.load(SPEC) is None

    def test_missing_payload_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        record = json.loads(path.read_text())
        del record["payload"]
        path.write_text(json.dumps(record))
        assert store.load(SPEC) is None


class TestAdvisoryLock:
    def test_lock_excludes_across_processes(self, tmp_path):
        """A child holding the store lock blocks the parent's acquire
        until released (flock is per-open-file, so the contention has
        to cross a process boundary to be observable)."""
        import multiprocessing
        import time

        from repro.exec import advisory_lock

        lock_path = tmp_path / ".lock"
        ctx = multiprocessing.get_context()
        acquired = ctx.Event()
        release = ctx.Event()
        child = ctx.Process(target=_hold_lock,
                            args=(str(lock_path), acquired, release))
        child.start()
        try:
            assert acquired.wait(10)
            started = time.monotonic()
            release_after = 0.3
            _release_later(release, release_after)
            with advisory_lock(lock_path):
                waited = time.monotonic() - started
            assert waited >= release_after * 0.5
        finally:
            release.set()
            child.join(10)

    def test_lock_is_reentrant_across_calls(self, tmp_path):
        from repro.exec import advisory_lock

        with advisory_lock(tmp_path / ".lock"):
            pass
        with advisory_lock(tmp_path / ".lock"):
            pass


def _hold_lock(path, acquired, release):
    from repro.exec import advisory_lock

    with advisory_lock(path):
        acquired.set()
        release.wait(30)


def _release_later(event, delay):
    import threading

    threading.Timer(delay, event.set).start()


class TestInvalidation:
    def test_salt_change_invalidates(self, tmp_path):
        old = ResultStore(tmp_path, salt=1)
        old.store(SPEC, PAYLOAD)
        new = ResultStore(tmp_path, salt=2)
        assert new.load(SPEC) is None        # different content address
        new.store(SPEC, PAYLOAD)
        assert new.load(SPEC) == PAYLOAD
        assert old.load(SPEC) == PAYLOAD     # old records untouched

    def test_schema_field_checked(self, tmp_path):
        # A record whose path matches but whose embedded schema does not
        # (e.g. hand-edited) is a miss, not an error.
        store = ResultStore(tmp_path)
        path = store.store(SPEC, PAYLOAD)
        record = json.loads(path.read_text())
        record["schema"] = 999
        path.write_text(json.dumps(record))
        assert store.load(SPEC) is None


# ----------------------------------------------------------------------
# One contract for every store class
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _Kind:
    """How to talk to one store class: its identity type (a spec for
    the result store, a ready-made content key for the trace store), its
    payload type and its on-disk codec — the only things the classes
    differ in."""

    name: str
    make: object                 # root -> store
    ident: object                # what load/store take
    payload: object = dataclasses.field(default_factory=lambda: PAYLOAD)

    def key(self, store):
        return store.key(self.ident) if hasattr(store, "key") else self.ident

    def same(self, got, want) -> bool:
        return got == want

    def read(self, path):
        return json.loads(path.read_bytes())

    def write(self, path, record):
        path.write_bytes(json.dumps(record).encode("utf-8"))


def _trace_payload():
    """A one-interval trace with a load, an int and an fp store."""
    interval = FFInterval(0, finished=True)
    interval.add_reg(3, -7)
    for name, value in (("addrs", 64), ("exits", 1), ("nexts", 0),
                        ("branch_ops", 0), ("insts", 5), ("loads", 1),
                        ("load_ends", 1), ("store_ends", 2)):
        getattr(interval, name).append(value)
    interval.load_addrs.append(4096)
    interval.add_store(8, 4, -2, 0)
    interval.add_store(16, 8, 0.25, 1)
    return FFTrace("conv", 1, {"ff_blocks": 8}, "fp", [interval])


class _TraceKind(_Kind):
    """The trace store: a JSON header line (the record's fields), then
    the column bytes, which stand in for its ``payload``."""

    def same(self, got, want) -> bool:
        fields = FFTrace.__slots__[:-1]
        columns = [name for name in FFInterval.__slots__ if name[0] != "_"]
        return [getattr(got, name) for name in fields] \
            == [getattr(want, name) for name in fields] and repr(
            [[getattr(iv, name) for name in columns] for iv in got.intervals]
        ) == repr([[getattr(iv, name) for name in columns]
                   for iv in want.intervals])

    def read(self, path):
        head, __, body = gzip.decompress(path.read_bytes()).partition(b"\n")
        record = json.loads(head)
        if isinstance(record, dict):
            record["payload"] = body
        return record

    def write(self, path, record):
        body = record.pop("payload", b"") if isinstance(record, dict) else b""
        path.write_bytes(gzip.compress(
            json.dumps(record).encode("utf-8") + b"\n" + body))


KINDS = [
    _Kind("ResultStore", ResultStore, SPEC),
    _TraceKind("FFTraceStore", FFTraceStore, "cd" * 32,
               payload=_trace_payload()),
]


def _truncate(kind, path):
    path.write_bytes(path.read_bytes()[:-12])


def _garbage(kind, path):
    path.write_bytes(b"\x00\xff\x00garbage")


def _bad_deflate(kind, path):
    """A valid gzip header over an invalid deflate stream: the one
    damage that surfaces as ``zlib.error`` (not an ``OSError``) from a
    gzip store; plain garbage for a JSON one."""
    path.write_bytes(path.read_bytes()[:10] + b"\xff" * 32)


def _edited(**changes):
    def damage(kind, path):
        record = kind.read(path)
        for field, value in changes.items():
            if value is None:
                del record[field]
            else:
                record[field] = value
        kind.write(path, record)
    return damage


DAMAGE = {
    "truncated": _truncate,
    "garbage": _garbage,
    "bad-deflate": _bad_deflate,
    "non-dict-json": lambda kind, path: kind.write(path, [1, 2, 3]),
    "wrong-schema": _edited(schema=999),
    "wrong-key-echo": _edited(key="0" * 64),
    "missing-payload": _edited(payload=None),
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
class TestRecordContract:
    def test_roundtrip_layout_and_counters(self, kind, tmp_path):
        store = kind.make(tmp_path)
        assert store.load(kind.ident) is None
        path = store.store(kind.ident, kind.payload)
        key = kind.key(store)
        assert path == tmp_path / key[:2] / f"{key}{store.SUFFIX}"
        record = kind.read(path)
        assert (record["schema"], record["key"]) == (store.salt, key)
        assert "payload" in record
        assert kind.same(store.load(kind.ident), kind.payload)
        assert store.hits == 1
        assert sorted(tmp_path.rglob("*")) == [path.parent, path]

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_damaged_record_misses_in_load_and_contains(
            self, kind, damage, tmp_path):
        """A damaged record is one miss for ``load`` (the only way a
        store is asked what it holds), and a rewrite heals it."""
        store = kind.make(tmp_path)
        path = store.store(kind.ident, kind.payload)
        damage(kind, path)
        assert store.load(kind.ident) is None
        assert store.hits == 0 and list(tmp_path.glob("??/*")) == [path]
        store.store(kind.ident, kind.payload)
        assert kind.same(store.load(kind.ident), kind.payload)

    def test_bytes_are_deterministic(self, kind, tmp_path):
        first = kind.make(tmp_path / "a").store(kind.ident, kind.payload)
        second = kind.make(tmp_path / "b").store(kind.ident, kind.payload)
        assert first.read_bytes() == second.read_bytes()


# ----------------------------------------------------------------------
# One atomic writer
# ----------------------------------------------------------------------

def _write_result(root, tag):
    ResultStore(root).store(SPEC, {"tag": tag})
    return lambda: ResultStore(root).load(SPEC)["tag"]


def _write_blob(root, tag):
    FFTraceStore(root).store("ab" * 32, FFTrace("conv", tag, {}, "fp", []))
    return lambda: FFTraceStore(root).load("ab" * 32).scale


WRITERS = {"store": _write_result, "blob": _write_blob}


class TestAtomicWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.bin"
        atomic_write(path, b"one")
        atomic_write(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_fsyncs_before_the_rename(self, tmp_path, monkeypatch):
        """Durability order: the bytes are on disk before the name
        points at them (every store write inherits this)."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            calls.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            calls.append("replace"), real_replace(src, dst))[1])
        atomic_write(tmp_path / "file.bin", b"data")
        assert calls == ["fsync", "replace"]

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
    def test_failed_rename_keeps_the_previous_record(
            self, write, tmp_path, monkeypatch):
        """An injected ``os.replace`` failure surfaces to the caller,
        leaves the previous record readable, and leaves no temp file."""
        read = write(tmp_path, 1)
        assert read() == 1

        def refuse(src, dst):
            raise OSError("injected: disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            with pytest.raises(OSError, match="injected"):
                write(tmp_path, 2)
        assert read() == 1
        assert list(tmp_path.rglob("*.tmp")) == []
        assert write(tmp_path, 3)() != 1           # and writes work again
