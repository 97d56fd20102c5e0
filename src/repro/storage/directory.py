"""The directory backend: the flat file store every directory tier shares.

One ``<key>.json`` file per entry holding ``json.dumps(value)``, written
atomically via ``mkstemp`` + ``os.replace`` — the format of every flat
cache directory written so far (``--cache-dir`` is another spelling of
``dir:``).  Failure is contained twice over:

* **Per entry** — a corrupt or truncated file (a machine crash mid-write
  on a non-atomic filesystem, a disk-full half-write) reads as a miss, is
  counted in ``read_errors`` and is unlinked so it cannot keep failing.
* **Per process** — ``max_consecutive_errors`` failed *writes* in a row
  trip a circuit breaker: the store stops touching the disk for the rest
  of the process (every ``get`` a miss, every ``put`` a no-op), so a dead
  or read-only volume costs a bounded number of syscalls instead of two
  per job forever.  ``tripped`` is exposed in :meth:`stats`.

:class:`~repro.storage.sharded.ShardedDirectoryBackend` reuses all of
this and overrides only the layout and the entry format, through five
hooks: ``_path``, ``_encode``, ``_decode``, ``_write`` and ``_entries``.

Single-writer worldview: concurrent writers from *different processes*
do not corrupt entries (the rename is atomic) but share no eviction or
accounting; for many-writer shared storage use the sharded backend, for
real eviction/TTL/hit statistics use
:class:`repro.storage.sqlite.SqliteBackend` (decision guide in
``docs/storage.md``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

from ..runtime.faults import storage_fault
from .base import EntryInfo, StorageBackend, check_storable

__all__ = ["DirectoryBackend"]


class DirectoryBackend(StorageBackend):
    """A flat directory of JSON entries (see module docstring)."""

    scheme = "dir"

    def __init__(self, directory: str | os.PathLike,
                 max_consecutive_errors: int = 5):
        if max_consecutive_errors < 1:
            raise ValueError("max_consecutive_errors must be >= 1")
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_consecutive_errors = max_consecutive_errors
        # The base lock guards the accounting and this breaker state only;
        # file I/O stays outside it, because reads and atomic-replace
        # writes are independently safe.
        self.consecutive_errors = 0
        self._tripped = False

    # -- layout and format (the subclass hooks) ------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _encode(self, key: str, value: Any) -> str:
        return json.dumps(value)

    def _decode(self, key: str, text: str) -> Any:
        """The stored value; raises on a corrupt entry."""
        return json.loads(text)

    def _write(self, path: Path, text: str) -> None:
        """Atomically replace *path*: readers see the old entry or the new
        one, and a failed write leaves no temp file behind."""
        tmp: str | None = None
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise

    def _entries(self) -> Iterator[tuple[str, Path, os.stat_result]]:
        """``(key, path, stat)`` of every stored entry, in key order."""
        try:
            paths = sorted(self.directory.glob("*.json"))
        except OSError:
            return
        for path in paths:
            try:
                yield path.stem, path, path.stat()
            except OSError:
                continue

    # -- the write circuit breaker -------------------------------------------

    def _record_write_error(self) -> None:
        with self._lock:
            self.write_errors += 1
            self.consecutive_errors += 1
            if self.consecutive_errors >= self.max_consecutive_errors:
                self._tripped = True

    @property
    def tripped(self) -> bool:
        return self._tripped

    # -- data plane ----------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        if self._tripped:
            with self._lock:
                self.misses += 1
            return default
        mode = storage_fault("get")
        if mode == "eio":
            # A transient read failure: counted, but the entry is left in
            # place — only corrupt entries are evicted.
            self._note_injected("get")
            self._count_read_error()
            return default
        if mode == "busy":
            self._note_injected("busy")  # contention absorbed; read proceeds
        path = self._path(key)
        try:
            with open(path) as fh:
                value = self._decode(key, fh.read())
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return default
        except (OSError, ValueError, TypeError, KeyError):
            # The entry exists but is corrupt: a miss, plus eviction so it
            # cannot keep failing.
            self._count_read_error()
            try:
                os.unlink(path)
            except OSError:
                pass
            return default
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Best-effort write: a failed put is counted, never raised.

        Serialization errors (a non-JSON-able value) count like I/O errors
        — a cache write must never abort an otherwise-successful
        evaluation.
        """
        check_storable(value)
        if self._tripped:
            return
        mode = storage_fault("put")
        if mode == "eio":
            self._note_injected("put")
            self._record_write_error()
            return
        if mode == "busy":
            self._note_injected("busy")
        try:
            text = self._encode(key, value)
            if mode == "torn":
                # The rename lands but the payload is a truncated prefix
                # (a crash mid-write on a non-atomic filesystem); the next
                # read or verify() flags it corrupt and evicts.
                self._note_injected("torn")
                text = text[:max(1, len(text) // 2)]
            self._write(self._path(key), text)
        except (OSError, TypeError, ValueError):
            self._record_write_error()
        else:
            with self._lock:
                self.consecutive_errors = 0

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except OSError:
            return False
        return True

    # -- control plane -------------------------------------------------------

    def scan(self) -> Iterator[EntryInfo]:
        for key, _path, st in self._entries():
            yield EntryInfo(key=key, size=st.st_size, created=st.st_mtime,
                            last_used=st.st_mtime)

    def stats(self) -> dict[str, Any]:
        entries = sum(1 for _ in self._entries())
        return {"backend": self.scheme, "entries": entries,
                **self._accounting()}

    def verify(self) -> list[str]:
        """Corrupt keys: entries whose payload does not decode.

        Flat entries carry no embedded digest (the format predates the
        storage layer), so verification is structural; the digest-checked
        formats are the sqlite and sharded backends.
        """
        corrupt: list[str] = []
        for key, path, _st in self._entries():
            try:
                with open(path) as fh:
                    self._decode(key, fh.read())
            except (OSError, ValueError, TypeError, KeyError):
                corrupt.append(key)
        return corrupt

    def evict_older_than(self, seconds: float) -> int:
        cutoff = time.time() - seconds
        evicted = 0
        for _key, path, st in list(self._entries()):
            if st.st_mtime < cutoff:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                evicted += 1
        return evicted
