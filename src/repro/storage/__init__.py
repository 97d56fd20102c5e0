"""Pluggable shared cache/result backends for the serving stack.

One protocol (:class:`~repro.storage.base.StorageBackend`), three
implementations selected by URI via :func:`~repro.storage.base.open_backend`:

* ``dir:PATH`` — :class:`~repro.storage.directory.DirectoryBackend`, the
  flat single-writer file store (``--cache-dir PATH`` is another
  spelling of it).
* ``sqlite:PATH?max_bytes=N&ttl=S`` —
  :class:`~repro.storage.sqlite.SqliteBackend`, one WAL-mode file with
  real LRU/TTL eviction and persisted hit statistics.
* ``shard:PATH?shards=N`` —
  :class:`~repro.storage.sharded.ShardedDirectoryBackend`, the same file
  store split into fingerprint-prefix shards with advisory locks for many
  writers on shared storage.

The base class owns the hit/miss/error accounting all three report.
``REPRO_CACHE_BACKEND`` supplies the process default.  Decision guide in
``docs/storage.md``.
"""

from .base import (
    ENV_BACKEND,
    EntryInfo,
    StorageBackend,
    StorageError,
    UnstorableValue,
    backend_exists,
    check_storable,
    default_backend_uri,
    open_backend,
    parse_backend_uri,
)
from .directory import DirectoryBackend
from .sharded import ShardedDirectoryBackend
from .sqlite import SqliteBackend

__all__ = [
    "ENV_BACKEND",
    "DirectoryBackend",
    "EntryInfo",
    "ShardedDirectoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "StorageError",
    "UnstorableValue",
    "backend_exists",
    "check_storable",
    "default_backend_uri",
    "open_backend",
    "parse_backend_uri",
]
