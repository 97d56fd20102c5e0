"""The sqlite backend: one file, concurrent readers, real eviction.

A single database file holds every entry plus persistent accounting, so
many processes (batch runs, serve workers, the ``repro cache`` CLI) can
share one cache tier:

* **WAL mode** — readers never block the writer and vice versa; an
  entry is either fully visible or absent, never torn (a process
  hard-killed mid-``put`` rolls back with the transaction).
* **Busy handling** — the connection carries a busy timeout *and* every
  statement runs under an explicit retry loop on ``SQLITE_BUSY`` /
  ``database is locked``, so bursts of concurrent writers degrade to
  short waits, not errors.
* **Real eviction** — a ``max_bytes`` budget is enforced at write time
  by dropping least-recently-used entries; an optional ``ttl`` makes
  stale entries read as misses and reclaims them in place.
* **Hit statistics** — per-entry hit counters and the aggregate
  hit/miss/put/eviction totals are persisted *in the database*
  (batched: counters accumulate in memory and flush every
  ``flush_every`` operations and at close, so the read path stays one
  ``SELECT``).  The aggregates are monotone across processes — the
  operator's view of whether a shared tier is earning its keep.

Values are verified on read: each row stores the SHA-256 digest of its
payload, so bit rot or a tampered row reads as a miss (counted in
``read_errors``) and is evicted.  ``repro cache verify`` re-hashes every
row through :meth:`SqliteBackend.verify`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Callable, Iterator

from ..runtime.faults import storage_fault
from ..serving.fingerprint import digest
from .base import EntryInfo, StorageBackend, check_storable

__all__ = ["SqliteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key       TEXT PRIMARY KEY,
    value     TEXT NOT NULL,
    digest    TEXT NOT NULL,
    size      INTEGER NOT NULL,
    created   REAL NOT NULL,
    last_used REAL NOT NULL,
    hits      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS entries_last_used ON entries(last_used);
CREATE TABLE IF NOT EXISTS stats (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

#: Aggregate counters persisted in the ``stats`` table.
_LIFETIME_KEYS = ("hits", "misses", "puts", "evictions", "expired")


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class SqliteBackend(StorageBackend):
    """A shared answer-cache tier in one sqlite file (see module doc)."""

    scheme = "sqlite"

    def __init__(self, path: str | os.PathLike,
                 max_bytes: int | None = None,
                 ttl: float | None = None,
                 busy_timeout: float = 5.0,
                 flush_every: int = 64,
                 retries: int = 5,
                 clock: Callable[[], float] = time.time):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        # The base lock also serializes the one connection: the daemon's
        # request threads and the batch driver share a backend, and sqlite
        # connections are not concurrency-safe objects even when the
        # database is.
        super().__init__()
        self.path = str(path)
        self.max_bytes = max_bytes
        self.ttl = ttl
        self.retries = max(1, retries)
        self.flush_every = max(1, flush_every)
        self._clock = clock
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=busy_timeout, check_same_thread=False,
            isolation_level=None)  # autocommit; writes use BEGIN IMMEDIATE
        self._retry(lambda: self._conn.executescript(_SCHEMA))
        self._retry(lambda: self._conn.execute(
            "PRAGMA journal_mode=WAL"))
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._closed = False

        # Session accounting beyond the base counters (flushed into the
        # stats table in batches).
        self.expired = 0
        self.evictions = 0
        self._pending_hits: dict[str, int] = {}
        self._pending_stats: dict[str, int] = {}
        self._unflushed_ops = 0

    # -- busy retry ----------------------------------------------------------

    def _retry(self, fn: Callable[[], Any]) -> Any:
        """Run *fn* with exponential backoff on ``SQLITE_BUSY``.

        The connection's busy timeout already blocks inside sqlite; this
        loop catches the residual case (a writer holding the lock past
        the timeout) so a contended burst degrades to waiting instead of
        an exception on the cache path.
        """
        delay = 0.01
        for attempt in range(self.retries):
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                if not _is_busy(exc) or attempt == self.retries - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 0.25)

    # -- batched accounting --------------------------------------------------

    def _bump(self, name: str, by: int = 1) -> None:
        self._pending_stats[name] = self._pending_stats.get(name, 0) + by

    def _note_op(self) -> None:
        self._unflushed_ops += 1
        if self._unflushed_ops >= self.flush_every:
            self._flush_locked()

    def _flush_locked(self) -> None:
        """Persist pending per-entry hits and aggregate stats (lock held)."""
        if not self._pending_hits and not self._pending_stats:
            self._unflushed_ops = 0
            return
        hits = self._pending_hits
        stats = self._pending_stats
        now = self._clock()

        def write() -> None:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for key, count in hits.items():
                    self._conn.execute(
                        "UPDATE entries SET hits = hits + ?, last_used = ? "
                        "WHERE key = ?", (count, now, key))
                for name, count in stats.items():
                    self._conn.execute(
                        "INSERT INTO stats(name, value) VALUES(?, ?) "
                        "ON CONFLICT(name) DO UPDATE SET "
                        "value = value + excluded.value", (name, count))
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

        try:
            self._retry(write)
        except sqlite3.Error:
            self.write_errors += 1
            return  # keep the pending deltas; the next flush retries them
        self._pending_hits = {}
        self._pending_stats = {}
        self._unflushed_ops = 0

    # -- data plane ----------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            if self._closed:
                return default
            mode = storage_fault("get")
            if mode == "eio":
                # A transient read failure — counted like a real
                # sqlite3.Error on the SELECT; the row stays.
                self._note_injected("get")
                return self._read_failed(default)
            injected_busy = {"left": 1 if mode == "busy" else 0}
            if mode == "busy":
                self._note_injected("busy")

            def query():
                if injected_busy["left"]:
                    injected_busy["left"] -= 1
                    raise sqlite3.OperationalError(
                        "database is locked (injected)")
                return self._conn.execute(
                    "SELECT value, digest, created FROM entries "
                    "WHERE key = ?", (key,)).fetchone()

            try:
                row = self._retry(query)
            except sqlite3.Error:
                return self._read_failed(default)
            if row is None:
                self.misses += 1
                self._bump("misses")
                self._note_op()
                return default
            value_text, stored_digest, created = row
            if self.ttl is not None and self._clock() - created > self.ttl:
                self.expired += 1
                self.misses += 1
                self._bump("misses")
                self._bump("expired")
                self._delete_quietly(key)
                self._note_op()
                return default
            try:
                value = json.loads(value_text)
                ok = digest(value_text) == stored_digest
            except ValueError:
                ok = False
            if not ok:
                # Corrupt row (bit rot, tampering): a miss, plus eviction
                # so it cannot keep failing.
                self._delete_quietly(key)
                return self._read_failed(default)
            self.hits += 1
            self._bump("hits")
            self._pending_hits[key] = self._pending_hits.get(key, 0) + 1
            self._note_op()
            return value

    def _read_failed(self, default: Any) -> Any:
        """A failed or corrupt read (lock held): a read error and a miss,
        in the session and the lifetime counts alike."""
        self._count_read_error()
        self._bump("misses")
        self._note_op()
        return default

    def put(self, key: str, value: Any) -> None:
        check_storable(value)
        try:
            value_text = json.dumps(value)
        except (TypeError, ValueError):
            with self._lock:
                self.write_errors += 1
            return
        value_digest = digest(value_text)
        size = len(value_text)
        with self._lock:
            if self._closed:
                return
            mode = storage_fault("put")
            if mode == "eio":
                # The write fails as with a real sqlite3.Error: counted,
                # nothing stored.
                self._note_injected("put")
                self.write_errors += 1
                return
            if mode == "torn":
                # The transaction "lands" carrying a truncated payload
                # against the full-text digest — what bit rot or a torn
                # page looks like; the next read (or verify) detects the
                # mismatch and evicts.
                self._note_injected("torn")
                value_text = value_text[:max(1, len(value_text) // 2)]
                size = len(value_text)
            injected_busy = {"left": 1 if mode == "busy" else 0}
            if mode == "busy":
                self._note_injected("busy")
            now = self._clock()

            def write() -> None:
                if injected_busy["left"]:
                    injected_busy["left"] -= 1
                    raise sqlite3.OperationalError(
                        "database is locked (injected)")
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    self._conn.execute(
                        "INSERT INTO entries"
                        "(key, value, digest, size, created, last_used, hits)"
                        " VALUES(?, ?, ?, ?, ?, ?, 0) "
                        "ON CONFLICT(key) DO UPDATE SET "
                        "value = excluded.value, digest = excluded.digest, "
                        "size = excluded.size, created = excluded.created, "
                        "last_used = excluded.last_used",
                        (key, value_text, value_digest, size, now, now))
                    self._evict_over_budget(key)
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
                self._conn.execute("COMMIT")

            try:
                self._retry(write)
            except sqlite3.Error:
                self.write_errors += 1
                return
            self._bump("puts")
            self._note_op()

    def _evict_over_budget(self, fresh_key: str) -> None:
        """LRU eviction inside the put transaction (lock held).

        The just-written entry is never its own victim: a value larger
        than the whole budget stays (and will be the first LRU victim of
        the *next* put) rather than leaving the cache thrashing empty.
        """
        if self.max_bytes is None:
            return
        (total,) = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()
        while total > self.max_bytes:
            row = self._conn.execute(
                "SELECT key, size FROM entries WHERE key != ? "
                "ORDER BY last_used ASC, key ASC LIMIT 1",
                (fresh_key,)).fetchone()
            if row is None:
                break
            victim, victim_size = row
            self._conn.execute("DELETE FROM entries WHERE key = ?", (victim,))
            total -= victim_size
            self.evictions += 1
            self._bump("evictions")

    def _delete_quietly(self, key: str) -> None:
        try:
            self._retry(lambda: self._conn.execute(
                "DELETE FROM entries WHERE key = ?", (key,)))
        except sqlite3.Error:
            self.write_errors += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            if self._closed:
                return False
            try:
                cursor = self._retry(lambda: self._conn.execute(
                    "DELETE FROM entries WHERE key = ?", (key,)))
            except sqlite3.Error:
                self.write_errors += 1
                return False
            return cursor.rowcount > 0

    # -- control plane -------------------------------------------------------

    def scan(self) -> Iterator[EntryInfo]:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            rows = self._retry(lambda: self._conn.execute(
                "SELECT key, size, created, last_used, hits FROM entries "
                "ORDER BY key").fetchall())
        for key, size, created, last_used, hits in rows:
            yield EntryInfo(key=key, size=size, created=created,
                            last_used=last_used, hits=hits)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            if self._closed:
                entries, total_bytes, lifetime = 0, 0, {}
            else:
                self._flush_locked()
                entries, total_bytes = self._retry(
                    lambda: self._conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(size), 0) "
                        "FROM entries").fetchone())
                lifetime = dict(self._retry(lambda: self._conn.execute(
                    "SELECT name, value FROM stats").fetchall()))
            return {
                "backend": self.scheme,
                "path": self.path,
                "entries": entries,
                "total_bytes": total_bytes,
                "max_bytes": self.max_bytes,
                "ttl": self.ttl,
                "expired": self.expired,
                "evictions": self.evictions,
                **self._accounting(),
                "lifetime": {name: lifetime.get(name, 0)
                             for name in _LIFETIME_KEYS},
            }

    def verify(self) -> list[str]:
        corrupt: list[str] = []
        with self._lock:
            if self._closed:
                return corrupt
            self._flush_locked()
            rows = self._retry(lambda: self._conn.execute(
                "SELECT key, value, digest FROM entries "
                "ORDER BY key").fetchall())
        for key, value_text, stored_digest in rows:
            try:
                json.loads(value_text)
                ok = digest(value_text) == stored_digest
            except ValueError:
                ok = False
            if not ok:
                corrupt.append(key)
        return corrupt

    def evict_older_than(self, seconds: float) -> int:
        with self._lock:
            if self._closed:
                return 0
            self._flush_locked()
            cutoff = self._clock() - seconds
            try:
                cursor = self._retry(lambda: self._conn.execute(
                    "DELETE FROM entries WHERE last_used < ?", (cutoff,)))
            except sqlite3.Error:
                self.write_errors += 1
                return 0
            evicted = cursor.rowcount
            if evicted > 0:
                self.evictions += evicted
                self._bump("evictions", evicted)
                self._flush_locked()
            return evicted

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._flush_locked()
            finally:
                self._closed = True
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass

    def __repr__(self) -> str:
        return f"<SqliteBackend {self.path}>"
