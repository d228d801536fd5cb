"""Content-addressed on-disk record stores.

One store layout, one codec per concrete store.  A :class:`BlobStore`
keeps records under ``<root>/<key[:2]>/<key><SUFFIX>`` where the caller
supplies the key (already a content hash); a record echoes the store's
schema and the key, and one that does not is a miss.  The codec is the
subclass's.  :class:`ResultStore` writes plain JSON
(``{"schema": salt, "key": key, "spec": ..., "payload": ...}``), keyed by
:func:`repro.exec.spec.spec_hash` of a job spec (salted with the
store's schema version) and echoing the spec in the record.  The
fast-forward trace store (:class:`repro.sample.trace.FFTraceStore`)
writes a JSON header line and raw column bytes, gzip level 1.

Writes go through :func:`atomic_write`, the only temp-file + fsync +
``os.replace`` sequence in the package tree, so a crash mid-write can
never leave a record that parses.  Reads are corruption-tolerant: a
truncated, unparsable, wrong-shape, wrong-schema or wrong-key record is
a cache *miss*, never an error.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import time
from typing import Optional, Union

from repro.exec.spec import SCHEMA_VERSION, JobSpec, spec_hash

try:                                    # POSIX advisory locking
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None


@contextlib.contextmanager
def advisory_lock(path: Union[str, pathlib.Path]):
    """Exclusive advisory file lock (``flock``) on ``path``.

    Serialises read-modify-write sections across *processes* — the
    store's record writes are individually atomic already, but a
    multi-step sequence (:func:`gc_cache`'s scan-then-prune) run by
    concurrent CLI invocations pointed at one cache directory needs a
    mutual-exclusion primitive.  Advisory only: readers that never take
    the lock are unaffected.  On platforms without ``fcntl`` the lock degrades to a
    no-op (single-writer behaviour is then the caller's problem, which
    matches the pre-lock state of the world).
    """
    if fcntl is None:                   # pragma: no cover - non-POSIX
        yield
        return
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write(path: Union[str, pathlib.Path], data) -> None:
    """Durably replace ``path`` with ``data``, all or nothing.

    ``data`` is the bytes, or a function that writes them to the open
    temp file (a codec streaming its record).  The bytes go to a temp
    file in the target directory (same filesystem, so the rename is
    atomic), are flushed and fsynced, and only then renamed over
    ``path``: a reader sees the old content or the new, and a killed
    writer can truncate the temp file but never ``path`` itself.  The
    temp file is removed on any failure.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


#: What a store's ``_read`` returns for a record that does not read.
MISS = object()


class BlobStore:
    """Content-keyed record store; see the module docstring for the
    layout and the durability contract.  A subclass supplies the codec:
    its :meth:`_read` and ``store``."""

    SUFFIX = ".json.gz"

    def __init__(self, root: Union[str, pathlib.Path], salt: int = 0) -> None:
        self.root = pathlib.Path(root)
        self.salt = salt
        self.hits = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def load(self, key: str):
        """The stored payload for ``key``, or ``None`` on any miss —
        including a corrupt, truncated, or schema-mismatched record."""
        payload = self._read(key)
        if payload is MISS:
            return None
        self.hits += 1
        return payload

    def _put(self, key: str, data) -> pathlib.Path:
        """:func:`atomic_write` ``data`` (bytes or a writer) as the
        record under ``key``."""
        path = self.path_for(key)
        atomic_write(path, data)
        return path


class ResultStore(BlobStore):
    """Durable result cache: a :class:`BlobStore` of plain-JSON records
    keyed by the content address of the job spec."""

    SUFFIX = ".json"

    def __init__(self, root: Union[str, pathlib.Path],
                 salt: int = SCHEMA_VERSION) -> None:
        super().__init__(root, salt)

    def key(self, spec: JobSpec) -> str:
        return spec_hash(spec, salt=self.salt)

    def _read(self, key: str):
        """The payload stored under ``key`` if its record reads, parses
        and echoes this store's schema and the key; else :data:`MISS`."""
        try:
            record = json.loads(self.path_for(key).read_bytes())
        except (OSError, ValueError):
            return MISS
        if (not isinstance(record, dict) or record.get("schema") != self.salt
                or record.get("key") != key or "payload" not in record):
            return MISS
        return record["payload"]

    def load(self, spec: JobSpec) -> Optional[dict]:
        return super().load(self.key(spec))

    def store(self, spec: JobSpec, payload: dict) -> pathlib.Path:
        key = self.key(spec)
        return self._put(key, json.dumps(
            {"schema": self.salt, "key": key, "spec": spec.to_dict(),
             "payload": payload}).encode("utf-8"))


# ----------------------------------------------------------------------
# Cache garbage collection (results + traces)
# ----------------------------------------------------------------------

#: Prunable record classes under one cache root: result records at the
#: top level, fast-forward traces under ``traces/``.  Anything else
#: under the root (the ``.lock`` file) is never touched.
_GC_CLASSES = (
    ("result", f"??/*{ResultStore.SUFFIX}"),
    ("trace", f"traces/??/*{BlobStore.SUFFIX}"),
)


def parse_size(text: Union[str, int, None]) -> Optional[int]:
    """Parse a byte budget like ``500M``/``2G``/``123456`` (K/M/G are
    binary multiples); ``None`` passes through."""
    if text is None or isinstance(text, int):
        return text
    raw = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    factor = units.get(raw[-1:].upper(), 1)
    digits = raw[:-1] if factor != 1 else raw
    try:
        value = int(digits)
    except ValueError:
        raise ValueError(f"unparsable size {text!r} (expected e.g. "
                         f"500M, 2G, or a byte count)") from None
    if value < 0:
        raise ValueError(f"size must be >= 0, got {text!r}")
    return value * factor


def gc_cache(root: Union[str, pathlib.Path],
             max_bytes: Optional[int] = None,
             max_age_days: Optional[float] = None,
             dry_run: bool = False,
             now: Optional[float] = None) -> dict:
    """Size/age-bounded pruning of one cache directory.

    Two independent bounds, both optional: records older than
    ``max_age_days`` go first, then the newest records are kept until
    the next one would overrun ``max_bytes``; it and every older record
    are removed.  With neither bound this only reports the footprint.
    ``dry_run`` computes the same plan without deleting anything.

    Runs under the store's advisory lock so concurrent CLI invocations
    can't race the scan; individual deletions tolerate records that
    vanish mid-flight (another gc, or a writer replacing a temp file).
    Emits a ``cache.gc`` event plus ``exec.gc_scanned`` /
    ``exec.gc_removed`` / ``exec.gc_bytes_freed`` metrics.
    """
    import repro.obs as obs_lib

    root = pathlib.Path(root)
    report = {
        "root": str(root), "dry_run": dry_run,
        "scanned": 0, "scanned_bytes": 0,
        "removed": 0, "removed_bytes": 0,
        "kept": 0, "kept_bytes": 0,
        "removed_paths": [],
    }
    if not root.is_dir():
        return report
    now = time.time() if now is None else now

    with advisory_lock(root / ".lock"):
        entries = []                      # (mtime, size, path, class)
        for kind, pattern in _GC_CLASSES:
            for path in root.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path, kind))
        report["scanned"] = len(entries)
        report["scanned_bytes"] = sum(size for __, size, __p, __k in entries)

        doomed = []
        survivors = sorted(entries, reverse=True)   # newest first
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            doomed = [e for e in survivors if e[0] < cutoff]
            survivors = [e for e in survivors if e[0] >= cutoff]
        if max_bytes is not None:
            # Keep a newest-first prefix: the first record that does not
            # fit goes, and every older one with it.
            budget = max_bytes
            kept = 0
            for __mtime, size, __path, __kind in survivors:
                if size > budget:
                    break
                budget -= size
                kept += 1
            doomed += survivors[kept:]
            survivors = survivors[:kept]

        for __mtime, size, path, kind in doomed:
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            report["removed"] += 1
            report["removed_bytes"] += size
            report["removed_paths"].append(str(path))
        report["kept"] = len(survivors)
        report["kept_bytes"] = sum(size for __, size, __p, __k in survivors)

    obs = obs_lib.current()
    if obs.active:
        obs.emit("cache.gc", root=str(root), dry_run=dry_run,
                 scanned=report["scanned"], removed=report["removed"],
                 bytes_freed=report["removed_bytes"],
                 bytes_kept=report["kept_bytes"])
        obs.metrics.inc("exec.gc_scanned", report["scanned"])
        if report["removed"]:
            obs.metrics.inc("exec.gc_removed", report["removed"],
                            dry_run=str(dry_run).lower())
            obs.metrics.inc("exec.gc_bytes_freed", report["removed_bytes"],
                            dry_run=str(dry_run).lower())
    return report
