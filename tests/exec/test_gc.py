"""Cache garbage collection and the gzip blob store."""

import gzip
import json
import os

import pytest

import repro.obs as obs_lib
from repro.exec.gc import gc_cache, parse_size
from repro.obs import RingBufferSink
from repro.sample.trace import FFTrace, FFTraceStore


@pytest.fixture(autouse=True)
def _obs_reset():
    yield
    obs_lib.reset()


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0),
        ("123456", 123456),
        ("1K", 1 << 10),
        ("512m", 512 << 20),
        ("2G", 2 << 30),
        (" 10K ", 10 << 10),
    ])
    def test_accepted(self, text, expected):
        assert parse_size(text) == expected

    def test_passthrough(self):
        assert parse_size(None) is None
        assert parse_size(42) == 42

    @pytest.mark.parametrize("text", ["lots", "", "K", "1.5G", "-1", "-2M"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


def _populate(root, ages_days, now):
    """One result record and one trace blob per age, oldest first;
    returns paths in creation order."""
    paths = []
    for i, age in enumerate(ages_days):
        result = root / f"{i:02x}" / f"{i:02x}{'0' * 6}.json"
        result.parent.mkdir(parents=True, exist_ok=True)
        result.write_text(json.dumps({"payload": i}))
        trace = root / "traces" / f"{i:02x}" / f"{i:02x}{'f' * 6}.json.gz"
        trace.parent.mkdir(parents=True, exist_ok=True)
        trace.write_bytes(gzip.compress(b"{}"))
        stamp = now - age * 86400
        for path in (result, trace):
            os.utime(path, (stamp, stamp))
            paths.append(path)
    return paths


class TestGcCache:
    NOW = 1_700_000_000.0

    def test_no_bounds_only_reports(self, tmp_path):
        paths = _populate(tmp_path, (10, 0), now=self.NOW)
        report = gc_cache(tmp_path, now=self.NOW)
        assert report["scanned"] == 4
        assert report["removed"] == 0
        assert report["kept"] == 4
        assert report["scanned_bytes"] == sum(p.stat().st_size
                                              for p in paths)
        assert all(p.exists() for p in paths)

    def test_age_bound_prunes_old_records_and_traces(self, tmp_path):
        paths = _populate(tmp_path, (10, 5, 0), now=self.NOW)
        report = gc_cache(tmp_path, max_age_days=7, now=self.NOW)
        assert report["removed"] == 2          # the 10-day result + trace
        assert sorted(report["removed_paths"]) == sorted(
            str(p) for p in paths[:2])
        assert not any(p.exists() for p in paths[:2])
        assert all(p.exists() for p in paths[2:])

    def test_size_budget_keeps_newest(self, tmp_path):
        paths = _populate(tmp_path, (10, 5, 0), now=self.NOW)
        newest = paths[4:]
        budget = sum(p.stat().st_size for p in newest)
        report = gc_cache(tmp_path, max_bytes=budget, now=self.NOW)
        assert report["kept"] == 2
        assert report["kept_bytes"] == budget
        assert all(p.exists() for p in newest)
        assert not any(p.exists() for p in paths[:4])

    def test_size_budget_never_keeps_an_older_record(self, tmp_path):
        """A record that overruns the budget takes every older record
        with it, even one small enough to fit what is left."""
        paths = []
        for i, (size, age) in enumerate(((10, 0), (100, 1), (5, 2))):
            path = tmp_path / f"{i:02x}" / f"{i:02x}{'0' * 6}.json"
            path.parent.mkdir()
            path.write_bytes(b"x" * size)
            stamp = self.NOW - age * 86400
            os.utime(path, (stamp, stamp))
            paths.append(path)
        report = gc_cache(tmp_path, max_bytes=20, now=self.NOW)
        assert report["kept"] == 1 and report["kept_bytes"] == 10
        assert paths[0].exists()
        assert not paths[1].exists() and not paths[2].exists()

    def test_dry_run_plans_without_deleting(self, tmp_path):
        paths = _populate(tmp_path, (10, 0), now=self.NOW)
        report = gc_cache(tmp_path, max_age_days=1, dry_run=True,
                          now=self.NOW)
        assert report["dry_run"] is True
        assert report["removed"] == 2
        assert len(report["removed_paths"]) == 2
        assert all(p.exists() for p in paths)

    def test_sidecars_are_exempt(self, tmp_path):
        _populate(tmp_path, (10,), now=self.NOW)
        for name in ("durations.json", ".lock"):
            side = tmp_path / name
            side.write_text("{}")
            os.utime(side, (self.NOW - 30 * 86400,) * 2)
        report = gc_cache(tmp_path, max_age_days=0.5, now=self.NOW)
        assert report["scanned"] == 2          # records only
        assert (tmp_path / "durations.json").exists()
        assert (tmp_path / ".lock").exists()

    def test_missing_root_is_empty_report(self, tmp_path):
        report = gc_cache(tmp_path / "absent", max_age_days=1)
        assert report["scanned"] == 0 and report["removed"] == 0

    def test_emits_event_and_metrics(self, tmp_path):
        _populate(tmp_path, (10, 0), now=self.NOW)
        obs = obs_lib.configure(metrics=True)
        ring = obs.bus.attach(RingBufferSink(kinds=("cache.gc",)))
        report = gc_cache(tmp_path, max_age_days=1, now=self.NOW)
        events = ring.of_kind("cache.gc")
        assert len(events) == 1
        assert events[0]["removed"] == report["removed"] == 2
        assert events[0]["bytes_freed"] == report["removed_bytes"]
        assert obs.metrics.counter("exec.gc_scanned") == 4
        assert obs.metrics.counter("exec.gc_removed", dry_run="false") == 2


class TestBlobStore:
    """The store layout, miss rules and maintenance, through the gzip
    blob store the fast-forward traces live in."""

    KEY = "ab" * 32

    @staticmethod
    def _trace(scale):
        return FFTrace("conv", scale, {"ff_blocks": 8}, "fp", [])

    def test_roundtrip(self, tmp_path):
        store = FFTraceStore(tmp_path)
        path = store.store(self.KEY, self._trace(3))
        assert path == store.path_for(self.KEY)
        assert store.load(self.KEY).scale == 3
        assert store.hits == 1
        assert list(tmp_path.glob("??/*")) == [path]

    def test_bytes_are_deterministic(self, tmp_path):
        """mtime=0: identical content produces identical bytes, so
        concurrent writers of one content key can never disagree."""
        a = FFTraceStore(tmp_path / "a")
        b = FFTraceStore(tmp_path / "b")
        a.store(self.KEY, self._trace(1))
        b.store(self.KEY, self._trace(1))
        assert a.path_for(self.KEY).read_bytes() \
            == b.path_for(self.KEY).read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = FFTraceStore(tmp_path)
        store.store(self.KEY, self._trace(1))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_corruption_and_salt_misses(self, tmp_path):
        store = FFTraceStore(tmp_path)
        store.store(self.KEY, self._trace(1))
        other = FFTraceStore(tmp_path)
        other.salt += 1
        assert other.load(self.KEY) is None
        store.path_for(self.KEY).write_bytes(b"not gzip")
        assert store.load(self.KEY) is None
        store.store(self.KEY, self._trace(2))        # rewrite heals
        assert store.load(self.KEY).scale == 2
