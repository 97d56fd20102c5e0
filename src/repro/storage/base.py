"""The storage backend contract shared by every answer-cache tier.

A *backend* is a durable key/value store for definitive OMQ evaluation
results, keyed by the content-addressed fingerprints of
:mod:`repro.serving.fingerprint` (a key *is* the identity of the
(plan, instance) pair it answers).  The paper's dichotomy is what makes
this tier worth having: coNP-band evaluations are the expensive traffic
the serving stack sheds first under load, so a shared hit on one is worth
orders of magnitude more than recomputation — the same cost asymmetry
that drives materialization trade-offs for guarded TGDs.

Contract (every backend, every method):

* **get/put/delete are best-effort and never raise** on I/O trouble — a
  broken cache volume must degrade a batch to cache-miss speed, never
  abort it.  Failures are counted in :meth:`StorageBackend.stats`.
* **Store only definitive results.**  An ``UNKNOWN`` verdict is a budget
  artifact, and a bound-relative answer (SAT's "no countermodel over
  dom(D) + k nulls") depends on a bound the key leaves out; neither is a
  fact about the OMQ, and caching one would hand it to every later
  caller.  :meth:`StorageBackend.put` raises :class:`UnstorableValue` on
  such a result dict (:func:`check_storable`) — loudly, because a caller
  that tries is a bug, not an I/O accident.
* **Atomic entries.**  Readers never observe a torn write: directory
  backends write via ``mkstemp`` + ``os.replace``, the sqlite backend via
  transactions.  A corrupt entry (machine crash, bit rot) behaves as a
  miss, is counted, and is evicted so it cannot keep failing.
* **close() is idempotent** and flushes any buffered accounting.

Backends are selected by URI (``dir:PATH``, ``sqlite:PATH``,
``shard:PATH?shards=N``) via :func:`open_backend`; a bare path means
``dir:``.  The ``REPRO_CACHE_BACKEND`` environment variable supplies a
process-wide default (:func:`default_backend_uri`).  See
``docs/storage.md`` for the decision guide.
"""

from __future__ import annotations

import abc
import os
import re
import threading
from dataclasses import dataclass
from typing import Any, Iterator
from urllib.parse import parse_qsl

__all__ = [
    "EntryInfo", "StorageBackend", "StorageError", "UnstorableValue",
    "backend_exists", "check_storable", "default_backend_uri",
    "open_backend", "parse_backend_uri",
]

#: The environment variable naming the default shared cache backend.
ENV_BACKEND = "REPRO_CACHE_BACKEND"

_SCHEMES = ("dir", "sqlite", "shard")

#: Query arguments each scheme understands; anything else is a typo and
#: is rejected by :func:`parse_backend_uri` (a misspelled ``ttl`` must
#: not silently disable the eviction policy).
_KNOWN_ARGS: dict[str, tuple[str, ...]] = {
    "dir": (),
    "sqlite": ("max_bytes", "ttl"),
    "shard": ("shards",),
}
# What counts as "looks like a URI scheme" for the bare-path fallback:
# a short lowercase word before the colon.  Anything longer or mixed
# (an absolute path, a Windows drive, a path with a colon in it) is
# treated as a plain directory path.
_SCHEME_RE = re.compile(r"[a-z][a-z0-9+.-]{1,15}")


class StorageError(ValueError):
    """A backend cannot be constructed (bad URI, unusable path).

    A :class:`ValueError` subclass: a malformed URI is bad input, and
    callers validating inputs with ``except ValueError`` must see it.
    """


class UnstorableValue(ValueError):
    """A caller tried to store a non-definitive result."""


def check_storable(value: Any) -> None:
    """Enforce the definitive-only contract on a result value.

    Raises :class:`UnstorableValue` when *value* is a result dict whose
    verdict is ``unknown`` or whose ``outcome`` is not definitive.
    Anything else passes — backends store plain JSON-able values and do
    not interpret them further.
    """
    if not isinstance(value, dict):
        return
    if value.get("verdict") == "unknown":
        raise UnstorableValue(
            "refusing to cache a non-definitive (UNKNOWN) result: "
            "it is a budget artifact, not a fact about the OMQ")
    outcome = value.get("outcome")
    if isinstance(outcome, dict) and outcome.get("definitive") is False:
        raise UnstorableValue(
            "refusing to cache a bound-relative (non-definitive) result: "
            "its key holds no bound, so it is not a fact about the OMQ")


@dataclass(frozen=True)
class EntryInfo:
    """One stored entry as reported by :meth:`StorageBackend.scan`.

    ``hits`` is ``None`` for backends that do not track per-entry hit
    counts (the directory backends); ``last_used`` falls back to the
    write time where reads do not touch metadata.
    """

    key: str
    size: int
    created: float
    last_used: float
    hits: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "key": self.key, "size": self.size,
            "created": round(self.created, 3),
            "last_used": round(self.last_used, 3),
        }
        if self.hits is not None:
            out["hits"] = self.hits
        return out


class StorageBackend(abc.ABC):
    """Abstract base for shared answer-cache backends (see module doc).

    The base owns the accounting every backend reports: ``hits``,
    ``misses``, ``read_errors``, ``write_errors`` and the ``injected``
    fault counts, all guarded by one reentrant lock (the sqlite backend
    also serializes its connection under it and counts while holding it).
    """

    #: The URI scheme this backend answers to (``dir``/``sqlite``/``shard``).
    scheme: str = "?"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.read_errors = 0
        self.write_errors = 0
        # Injected-fault accounting (REPRO_FAULTS storage: schedules).
        self.injected: dict[str, int] = {}

    def _note_injected(self, mode: str) -> None:
        with self._lock:
            self.injected[mode] = self.injected.get(mode, 0) + 1

    def _count_read_error(self) -> None:
        """A failed read or a corrupt entry: a read error and a miss."""
        with self._lock:
            self.read_errors += 1
            self.misses += 1

    def _accounting(self) -> dict[str, Any]:
        """The shared :meth:`stats` fields (``injected`` only when set)."""
        with self._lock:
            out: dict[str, Any] = {
                "hits": self.hits,
                "misses": self.misses,
                "read_errors": self.read_errors,
                "write_errors": self.write_errors,
                "tripped": self.tripped,
            }
            if self.injected:
                out["injected"] = dict(self.injected)
            return out

    # -- the data plane ------------------------------------------------------

    @abc.abstractmethod
    def get(self, key: str, default: Any = None) -> Any:
        """The stored value, or *default* on a miss (or any failure)."""

    @abc.abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Store *value* (best-effort; raises only :class:`UnstorableValue`)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove one entry; True when it existed."""

    # -- the control plane ---------------------------------------------------

    @abc.abstractmethod
    def scan(self) -> Iterator[EntryInfo]:
        """Iterate over the stored entries (metadata only, key order)."""

    @abc.abstractmethod
    def stats(self) -> dict[str, Any]:
        """Accounting: hits/misses/errors plus backend-specific fields.

        Always contains ``backend`` (the scheme), ``entries``, ``hits``,
        ``misses`` and ``tripped`` so callers can report uniformly.
        """

    @abc.abstractmethod
    def verify(self) -> list[str]:
        """Re-check every entry against its content digest.

        Returns the keys of corrupt entries (unparseable payloads, digest
        mismatches, entries filed under the wrong key).  Never mutates the
        store — eviction is the read path's job.
        """

    @abc.abstractmethod
    def evict_older_than(self, seconds: float) -> int:
        """Drop entries not used for *seconds*; returns how many."""

    def close(self) -> None:
        """Flush buffered accounting and release handles (idempotent)."""

    # -- conveniences --------------------------------------------------------

    @property
    def tripped(self) -> bool:
        """True when a write circuit breaker has disabled the backend."""
        return False

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.scheme}>"


# -- URI resolution ----------------------------------------------------------


def parse_backend_uri(uri: str) -> tuple[str, str, dict[str, str]]:
    """Split a backend URI into ``(scheme, path, query-args)``.

    ``dir:PATH``, ``sqlite:PATH`` and ``shard:PATH?shards=N`` are the
    recognized forms; a bare path (no scheme prefix) is a directory
    backend, so every existing ``--cache-dir`` value is a valid URI.
    Something that *looks* like a scheme but is not one — ``redis:x``,
    ``sqllite:c.db`` — is an error, not a directory named after the
    typo.  Query arguments are validated here too: an unknown argument
    (``sqlite:c.db?ttl_seconds=60``) raises a :class:`StorageError`
    (a ``ValueError``) naming the offending argument instead of silently
    dropping the eviction policy it was meant to configure.
    """
    scheme, sep, rest = uri.partition(":")
    if not sep or not _SCHEME_RE.fullmatch(scheme):
        scheme, rest = "dir", uri
    elif scheme not in _SCHEMES:
        raise StorageError(
            f"storage URI {uri!r}: unknown scheme {scheme!r} "
            f"(expected one of {', '.join(_SCHEMES)}, or a bare path)")
    path, qsep, query = rest.partition("?")
    if not path:
        raise StorageError(f"storage URI {uri!r} has an empty path")
    args = dict(parse_qsl(query, keep_blank_values=True)) if qsep else {}
    known = _KNOWN_ARGS[scheme]
    unknown = sorted(set(args) - set(known))
    if unknown:
        import difflib

        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, known, n=1)
            hints.append(f"{name!r}" + (f" (did you mean {close[0]!r}?)"
                                        if close else ""))
        accepted = (f"accepted for {scheme}: {', '.join(known)}"
                    if known else f"{scheme}: takes no arguments")
        raise StorageError(
            f"storage URI {uri!r}: unknown argument(s) "
            f"{', '.join(hints)} — {accepted}")
    return scheme, path, args


def _int_arg(uri: str, args: dict[str, str], name: str,
             default: int | None) -> int | None:
    raw = args.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise StorageError(f"storage URI {uri!r}: {name} must be an integer")


def _float_arg(uri: str, args: dict[str, str], name: str,
               default: float | None) -> float | None:
    raw = args.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise StorageError(f"storage URI {uri!r}: {name} must be a number")


def open_backend(uri: str) -> StorageBackend:
    """Construct the backend a URI names (see :func:`parse_backend_uri`).

    Recognized query arguments: ``sqlite:PATH?max_bytes=N&ttl=S`` (size
    budget in bytes, time-to-live in seconds) and ``shard:PATH?shards=N``.
    Unknown arguments are an error — a typo must not silently change the
    eviction policy.
    """
    scheme, path, args = parse_backend_uri(uri)
    try:
        if scheme == "sqlite":
            from .sqlite import SqliteBackend

            backend: StorageBackend = SqliteBackend(
                path,
                max_bytes=_int_arg(uri, args, "max_bytes", None),
                ttl=_float_arg(uri, args, "ttl", None),
            )
        elif scheme == "shard":
            from .sharded import ShardedDirectoryBackend

            # None defers to the tree's pinned shard count (or 16 fresh).
            shards = _int_arg(uri, args, "shards", None)
            backend = ShardedDirectoryBackend(path, shards=shards)
        else:
            from .directory import DirectoryBackend

            backend = DirectoryBackend(path)
    except (OSError, ValueError) as exc:
        raise StorageError(f"storage URI {uri!r}: {exc}") from exc
    return backend


def backend_exists(uri: str) -> bool:
    """True when the store a URI names already exists on disk.

    Purely an ``os.path.exists`` on the parsed path — no backend is
    constructed, so asking does not *create* the store (every backend's
    constructor does, which is exactly what read-only commands like
    ``repro cache stats`` must avoid on a mistyped path).  Raises
    :class:`StorageError` on a malformed URI, like everything else here.
    """
    _scheme, path, _args = parse_backend_uri(uri)
    return os.path.exists(path)


def default_backend_uri() -> str | None:
    """The process-wide default backend URI (``REPRO_CACHE_BACKEND``)."""
    uri = os.environ.get(ENV_BACKEND, "").strip()
    return uri or None
