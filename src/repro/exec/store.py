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
from typing import Optional, Union

from repro.exec.spec import SCHEMA_VERSION, JobSpec, spec_hash


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
    import tempfile     # writers only: a warm replay never loads it

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

    def load(self, spec: JobSpec,
             key: Optional[str] = None) -> Optional[dict]:
        """The payload stored for ``spec``, or ``None`` on any miss.  A
        caller that already holds the spec's hash passes it as ``key``
        and saves hashing again; a key under another salt reads as a
        miss, since every record echoes its schema and key."""
        return super().load(key or self.key(spec))

    def store(self, spec: JobSpec, payload: dict) -> pathlib.Path:
        key = self.key(spec)
        return self._put(key, json.dumps(
            {"schema": self.salt, "key": key, "spec": spec.to_dict(),
             "payload": payload}).encode("utf-8"))
