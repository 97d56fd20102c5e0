"""Content-addressed caches for the serving layer.

Three layers, all keyed by the stable fingerprints of
:mod:`repro.serving.fingerprint`:

* :class:`LRUCache` — a bounded in-memory map with hit/miss accounting;
  the building block for everything below.
* the **conversion cache** — memoizes
  :func:`repro.semantics.rules.convert_ontology` per ontology fingerprint.
  Every fresh :class:`~repro.semantics.certain.CertainEngine` used to
  reconvert the ontology from scratch; with the cache, engines over the
  same ontology share one conversion (including the "not convertible"
  verdict, which is the expensive discovery for SAT-only ontologies).
* :class:`AnswerCache` — the LRU in front of an optional durable tier, a
  :class:`repro.storage.base.StorageBackend` (``dir:`` or ``sqlite:``),
  so repeated CLI invocations and worker processes hit warm
  certain-answer results.

Cached values are plain JSON-able dictionaries of definitive results
only: never an ``UNKNOWN`` outcome, so a budget-starved run can be
retried with a bigger budget and a warm plan, and never a bound-relative
answer, whose bound the key leaves out.  :func:`answer_key` is the one key
format, and :meth:`AnswerCache.lookup` / :meth:`AnswerCache.store` the one
place that rule is applied, for a plan's evaluation and a batch job alike.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from ..logic.ontology import Ontology
from ..obs import current_tracer
from ..semantics.rules import DisjunctiveRule, convert_ontology
from .fingerprint import combine, fingerprint_ontology

if TYPE_CHECKING:
    from ..storage.base import StorageBackend

_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction and accounting.

    Thread-safe: the process-global plan and conversion caches built on
    top of it are hit from engine internals (which may run on caller
    threads) as well as the batch driver, so every operation — including
    the read-modify-write recency bump in :meth:`get` — takes the lock.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._data: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }


def answer_key(omq_fingerprint: str, instance_fingerprint: str) -> str:
    """The answer cache's key for the certain answers of the OMQ with
    fingerprint *omq_fingerprint* (:func:`~repro.serving.fingerprint.
    fingerprint_omq`) over the instance with *instance_fingerprint*."""
    return combine(omq_fingerprint, instance_fingerprint)


def _definitive(outcome: dict[str, Any] | None) -> bool:
    """Whether an answer holds outright, not only up to a search bound
    (a SAT search over dom(D) plus a few nulls) that cache keys omit."""
    return (outcome or {}).get("definitive") is not False


class AnswerCache:
    """An LRU for certain-answer results, optionally backed by a durable tier.

    Keys are composite fingerprints (plan × instance × question); values
    are the JSON-able result dictionaries of
    :meth:`repro.serving.plan.CompiledOMQ.evaluate`.

    *backend* is the durable tier, any
    :class:`repro.storage.base.StorageBackend` (None: memory only).
    Durable-tier traffic is traced as ``storage.get`` / ``storage.put``
    spans on the ambient tracer — memory hits stay span-free, so the
    disabled-tracer overhead gate is untouched.
    """

    def __init__(self, maxsize: int = 1024,
                 backend: "StorageBackend | None" = None):
        self.memory = LRUCache(maxsize)
        self.backend = backend
        # The two layers are individually thread-safe; this lock makes
        # the *composite* get (memory miss -> durable read -> memory
        # promote) and put atomic, so the daemon's request threads never
        # interleave a promotion with an eviction of the same key.
        self._lock = threading.RLock()

    @staticmethod
    def key(*fingerprints: str) -> str:
        return combine(*fingerprints)

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            value = self.memory.get(key)
            if value is not None:
                return value
            if self.backend is not None:
                with current_tracer().span(
                        "storage.get", backend=self.backend.scheme) as span:
                    value = self.backend.get(key)
                    span.set(hit=value is not None)
                if value is not None:
                    self.memory.put(key, value)
            return value

    def put(self, key: str, value: dict[str, Any]) -> None:
        with self._lock:
            self.memory.put(key, value)
            if self.backend is not None:
                with current_tracer().span(
                        "storage.put", backend=self.backend.scheme):
                    self.backend.put(key, value)

    def lookup(self, key: str) -> dict[str, Any] | None:
        """The stored answer under *key* if it is definitive.  A durable
        store written by an older version may hold a bound-relative
        answer: that one reads as a miss, to be recomputed, never served."""
        hit = self.get(key)
        if hit is not None and _definitive(hit.get("outcome")):
            return hit
        return None

    def store(self, key: str, verdict: str,
              answers: "tuple[tuple[str, ...], ...]",
              outcome: dict[str, Any] | None) -> None:
        """Cache an evaluation's result under *key*, if it is definitive:
        neither ``UNKNOWN`` nor bound-relative."""
        if verdict != "unknown" and _definitive(outcome):
            self.put(key, {"verdict": verdict,
                           "answers": [list(a) for a in answers],
                           "outcome": outcome})

    def stats(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {"memory": self.memory.stats()}
            if self.backend is not None:
                out["backend"] = self.backend.stats()
            return out


# -- the conversion cache ----------------------------------------------------

# "not convertible" (convert_ontology -> None) is a cacheable verdict too;
# wrap values so None never collides with a cache miss.
_conversion_cache = LRUCache(maxsize=128)


def convert_ontology_cached(
    onto: Ontology,
) -> "list[DisjunctiveRule] | None":
    """Memoized :func:`repro.semantics.rules.convert_ontology`.

    Keyed by the ontology's content fingerprint, so structurally equal
    ontologies constructed independently share one conversion.  The
    returned list is a fresh shallow copy — callers may extend it without
    poisoning the cache (the rules themselves are immutable).
    """
    key = fingerprint_ontology(onto)
    hit = _conversion_cache.get(key)
    if hit is not None:
        rules = hit[0]
        return None if rules is None else list(rules)
    rules = convert_ontology(onto)
    _conversion_cache.put(key, (tuple(rules) if rules is not None else None,))
    return rules


def conversion_cache_stats() -> dict[str, int | float]:
    return _conversion_cache.stats()


def clear_caches() -> None:
    """Reset the process-wide caches (tests and cold-start benchmarks)."""
    _conversion_cache.clear()
    from . import plan as _plan  # late import: plan imports this module

    _plan.clear_plan_cache()
