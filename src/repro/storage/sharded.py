"""The sharded directory backend: many writer processes, one tier.

The flat :class:`~repro.storage.directory.DirectoryBackend` is safe for
one writer; on shared storage with many batch/serve processes it piles
every entry (and every temp file) into one directory.  This subclass
keeps the flat store's read path, atomic put, write circuit breaker and
accounting, and changes only the layout and the entry format:

* **Fingerprint-prefix shards** — the keyspace is split into ``shards``
  subdirectories (``int(key[:8], 16) % shards``); each write is still an
  atomic ``mkstemp`` + ``os.replace`` in the destination shard, so a
  writer hard-killed mid-put leaves at most a stray ``*.tmp`` file, never
  a corrupt entry.
* **Advisory lock per shard** — writers take ``flock`` on the shard's
  ``.lock`` file for the duration of a put, so concurrent writers to the
  same shard serialize instead of racing temp-file churn (platforms
  without ``fcntl`` degrade to lock-free atomic renames, which are still
  torn-read safe).
* **Self-verifying envelope** — entries are stored as
  ``{"k": key, "d": digest, "v": value}``; a read checks the embedded
  key (so an entry copied or renamed under the wrong name is a corrupt
  miss, counted and evicted), while :meth:`verify` additionally re-hashes
  every value against ``d`` to catch bit rot.  The hot read path skips
  the re-hash on purpose: torn writes cannot exist under atomic renames,
  and re-hashing every warm hit would double its JSON cost (the bench
  gates warm hits at ≤25% over the flat dir backend).

The shard count is pinned in a ``_shards.json`` marker at the root so
every process slicing the tree agrees on the layout; opening an existing
tier with a conflicting explicit ``shards=`` is an error rather than a
silent re-hash.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..serving.fingerprint import digest
from .directory import DirectoryBackend

__all__ = ["ShardedDirectoryBackend"]

_META_NAME = "_shards.json"
_DEFAULT_SHARDS = 16


class ShardedDirectoryBackend(DirectoryBackend):
    """Fingerprint-prefix shards with locked atomic writes (see module doc)."""

    scheme = "shard"

    def __init__(self, directory: str | os.PathLike,
                 shards: int | None = None,
                 max_consecutive_errors: int = 5):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(directory, max_consecutive_errors)
        self.shards = self._pin_shard_count(shards)
        width = max(2, len(f"{self.shards - 1:x}"))
        # Shard directories are addressed on every get/put; precompute
        # the Path objects instead of re-formatting hex names per call.
        self._shard_dirs = [
            self.directory / f"{i:0{width}x}" for i in range(self.shards)]

    # -- layout --------------------------------------------------------------

    def _pin_shard_count(self, requested: int | None) -> int:
        """Agree on the shard count with every other process on this tree.

        The first opener writes ``_shards.json`` (atomically, so a racing
        pair converges on whichever rename lands); later openers inherit
        it, and an *explicit* conflicting request is an error — silently
        re-hashing a populated tree would orphan every entry.
        """
        meta_path = self.directory / _META_NAME
        for _attempt in range(2):
            try:
                with open(meta_path) as fh:
                    pinned = int(json.load(fh)["shards"])
            except FileNotFoundError:
                pinned = None
            except (OSError, ValueError, TypeError, KeyError) as exc:
                raise ValueError(
                    f"unreadable shard marker {meta_path}: {exc}") from exc
            if pinned is not None:
                if requested is not None and requested != pinned:
                    raise ValueError(
                        f"{self.directory} is sharded {pinned} ways; "
                        f"refusing to open it with shards={requested}")
                return pinned
            count = requested if requested is not None else _DEFAULT_SHARDS
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump({"shards": count}, fh)
            os.replace(tmp, meta_path)
            # Loop once more to read back whichever writer won the race.
        raise ValueError(f"could not pin shard count under {self.directory}")

    def _shard_index(self, key: str) -> int:
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            # Keys are fingerprint hex in practice; anything else still
            # deserves a stable home.
            prefix = zlib.crc32(key.encode("utf-8"))
        return prefix % self.shards

    def _shard_dir(self, key: str) -> Path:
        return self._shard_dirs[self._shard_index(key)]

    def _path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.json"

    @contextmanager
    def _shard_lock(self, shard_dir: Path) -> Iterator[None]:
        """Advisory exclusive lock on one shard (no-op where unavailable)."""
        if fcntl is None:
            yield
            return
        try:
            fh = open(shard_dir / ".lock", "a")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX)
            except OSError:
                pass
            yield
        finally:
            try:
                fcntl.flock(fh, fcntl.LOCK_UN)
            except OSError:
                pass
            fh.close()

    def _write(self, path: Path, text: str) -> None:
        # No parents=True: a vanished root is a write error, not a fresh
        # tree without its _shards.json marker.
        path.parent.mkdir(exist_ok=True)
        with self._shard_lock(path.parent):
            super()._write(path, text)

    def _entries(self) -> Iterator[tuple[str, Path, os.stat_result]]:
        try:
            shard_dirs = sorted(
                p for p in self.directory.iterdir() if p.is_dir())
        except OSError:
            return
        found: list[tuple[str, Path]] = []
        for shard_dir in shard_dirs:
            try:
                found.extend((p.stem, p) for p in shard_dir.glob("*.json"))
            except OSError:
                continue
        for key, path in sorted(found):
            try:
                yield key, path, path.stat()
            except OSError:
                continue

    # -- entry format --------------------------------------------------------

    def _encode(self, key: str, value: Any) -> str:
        return json.dumps(
            {"k": key, "d": digest(json.dumps(value)), "v": value})

    def _decode(self, key: str, text: str) -> Any:
        # Key check only on the hot path; the digest re-hash is verify()'s
        # job (see the module doc for why).
        entry = json.loads(text)
        if entry["k"] != key or "d" not in entry:
            raise ValueError(f"not the entry for {key!r}")
        return entry["v"]

    # -- control plane -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {**super().stats(), "shards": self.shards}

    def verify(self) -> list[str]:
        """Corrupt keys: bad JSON, key/digest mismatch, or misfiled shard."""
        corrupt: list[str] = []
        for key, path, _st in self._entries():
            try:
                with open(path) as fh:
                    entry = json.load(fh)
                ok = (entry["k"] == key
                      and digest(json.dumps(entry["v"])) == entry["d"]
                      and path.parent == self._shard_dir(key))
            except (OSError, ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                corrupt.append(key)
        return corrupt
