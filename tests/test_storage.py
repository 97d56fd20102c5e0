"""The storage subsystem: backend contract, URI resolution, and the
wiring through AnswerCache / compile_omq / evaluate_batch / ReproServer.

Concurrency (multi-process hammering, kill-mid-put) lives in
``test_storage_concurrency.py``; verdict-equality across backends in
``test_storage_property.py``.
"""

import json
import os
import sqlite3
import time

import pytest

from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.obs import Tracer
from repro.serving import AnswerCache, Job, clear_caches, evaluate_batch
from repro.serving.plan import compile_omq
from repro.storage import (
    DirectoryBackend,
    SqliteBackend,
    StorageError,
    UnstorableValue,
    backend_exists,
    check_storable,
    default_backend_uri,
    open_backend,
    parse_backend_uri,
)
from repro.storage.directory import MAX_CONSECUTIVE_ERRORS

KEY = "ab" * 8  # 16 hex chars, like a real fingerprint
KEY2 = "cd" * 8
VALUE = {"verdict": "yes", "answers": [["a"]]}

BACKENDS = ["dir", "sqlite"]


def make_backend(kind, tmp_path):
    if kind == "dir":
        return DirectoryBackend(tmp_path / "d")
    return SqliteBackend(tmp_path / "c.db")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


# -- URI resolution ----------------------------------------------------------


class TestUri:
    def test_schemes(self):
        assert parse_backend_uri("dir:/tmp/x") == ("dir", "/tmp/x", {})
        assert parse_backend_uri("sqlite:c.db?ttl=5") == (
            "sqlite", "c.db", {"ttl": "5"})

    def test_bare_path_means_dir(self):
        # Every historical --cache-dir value is a valid URI.
        assert parse_backend_uri("/var/cache/repro") == (
            "dir", "/var/cache/repro", {})
        # Including relative paths with no scheme-looking prefix.
        assert parse_backend_uri("caches/warm")[0] == "dir"

    def test_empty_path_rejected(self):
        with pytest.raises(StorageError):
            parse_backend_uri("sqlite:")

    def test_unknown_scheme_rejected_not_treated_as_path(self):
        # A typo'd scheme must not silently become a directory named
        # after the typo.
        for bad in ("redis:nope", "sqllite:c.db", "postgres:db"):
            with pytest.raises(StorageError, match="unknown scheme"):
                parse_backend_uri(bad)
        # But genuinely path-looking strings still pass through.
        assert parse_backend_uri("C:\\cache")[0] == "dir"
        assert parse_backend_uri("/data/a:b/cache-with-very-long:colon")[0] \
            == "dir"

    def test_removed_shard_scheme_is_refused(self, tmp_path):
        # The sharded directory store is gone; its URIs are refused like
        # any unknown scheme, before anything is created.
        with pytest.raises(StorageError) as exc:
            open_backend(f"shard:{tmp_path}/s?shards=4")
        assert ("unknown scheme 'shard' (expected one of dir, sqlite, "
                "or a bare path)") in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_open_backend_dispatch(self, tmp_path):
        for uri, cls in ((f"dir:{tmp_path}/d", DirectoryBackend),
                         (f"sqlite:{tmp_path}/c.db", SqliteBackend)):
            with open_backend(uri) as backend:
                assert isinstance(backend, cls)

    def test_unknown_query_arg_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="bogus"):
            open_backend(f"sqlite:{tmp_path}/c.db?bogus=1")

    def test_bad_numeric_arg_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="max_bytes must be") as exc:
            open_backend(f"sqlite:{tmp_path}/c.db?max_bytes=many")
        assert str(exc.value).count("storage URI") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unknown_arg_error_names_arg_and_accepted_set(self):
        with pytest.raises(StorageError) as exc:
            parse_backend_uri("sqlite:c.db?ttl=5&bogus=1")
        msg = str(exc.value)
        assert "'bogus'" in msg
        assert "max_bytes" in msg and "ttl" in msg  # the accepted set

    def test_unknown_arg_gets_a_spelling_hint(self):
        with pytest.raises(StorageError, match="did you mean 'max_bytes'"):
            parse_backend_uri("sqlite:c.db?max_byte=4")

    def test_dir_takes_no_arguments(self):
        with pytest.raises(StorageError, match="takes no arguments"):
            parse_backend_uri("dir:/tmp/x?ttl=5")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        assert default_backend_uri() is None
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite:/tmp/x.db")
        assert default_backend_uri() == "sqlite:/tmp/x.db"


class TestBackendExists:
    """``backend_exists``: a read-only question that must never create
    the store it asks about (ISSUE 10, satellite 2)."""

    URIS = {"dir": "dir:{p}/d", "sqlite": "sqlite:{p}/c.db"}

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_false_before_creation_no_side_effect(self, kind, tmp_path):
        uri = self.URIS[kind].format(p=tmp_path)
        assert backend_exists(uri) is False
        assert list(tmp_path.iterdir()) == []  # asking created nothing

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_true_after_creation(self, kind, tmp_path):
        uri = self.URIS[kind].format(p=tmp_path)
        with open_backend(uri) as backend:
            backend.put(KEY, VALUE)
        assert backend_exists(uri) is True

    def test_bad_uri_still_raises(self):
        with pytest.raises(StorageError):
            backend_exists("redis:nope")


# -- the backend contract, over both implementations ------------------------


@pytest.mark.parametrize("kind", BACKENDS)
class TestContract:
    def test_round_trip_and_miss(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            assert backend.get(KEY) is None
            backend.put(KEY, VALUE)
            assert backend.get(KEY) == VALUE

    def test_never_store_unknown(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            with pytest.raises(UnstorableValue):
                backend.put(KEY, {"verdict": "unknown", "reason": "starved"})
            assert backend.get(KEY) is None

    def test_delete(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            backend.put(KEY, VALUE)
            assert backend.delete(KEY) is True
            assert backend.delete(KEY) is False
            assert backend.get(KEY) is None

    def test_scan_and_stats(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            backend.put(KEY, VALUE)
            backend.put(KEY2, {"verdict": "no"})
            infos = list(backend.scan())
            assert [i.key for i in infos] == sorted([KEY, KEY2])
            assert all(i.size > 0 for i in infos)
            backend.get(KEY)
            backend.get("ef" * 8)  # miss
            stats = backend.stats()
            assert stats["backend"] == backend.scheme
            assert stats["entries"] == 2
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["tripped"] is False

    def test_verify_clean(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            backend.put(KEY, VALUE)
            assert backend.verify() == []

    def test_evict_older_than(self, kind, tmp_path):
        with make_backend(kind, tmp_path) as backend:
            backend.put(KEY, VALUE)
            assert backend.evict_older_than(3600) == 0
            assert backend.evict_older_than(0) == 1
            assert backend.get(KEY) is None

    def test_close_is_idempotent(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put(KEY, VALUE)
        backend.close()
        backend.close()

    def test_accounting_under_concurrent_gets(self, kind, tmp_path):
        # The base class's counters are shared by every thread on one
        # backend: each get counts once, as a hit or a miss, and a lost
        # update would break the totals.
        import sys
        import threading

        threads_n, gets = 8, 200
        with make_backend(kind, tmp_path) as backend:
            backend.put(KEY, VALUE)

            def reader():
                for i in range(gets):
                    backend.get(KEY if i % 2 else KEY2)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader)
                           for _ in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            stats = backend.stats()
            assert stats["hits"] == stats["misses"] == threads_n * gets // 2


def test_check_storable_passes_definitive_and_plain_values():
    check_storable({"verdict": "yes"})
    check_storable({"verdict": "no"})
    check_storable([1, 2, 3])
    check_storable("text")
    with pytest.raises(UnstorableValue):
        check_storable({"verdict": "unknown"})
    check_storable({"verdict": "ok", "outcome": {"definitive": True}})
    check_storable({"verdict": "ok", "outcome": None})
    # A bound-relative answer: its key holds no bound.
    with pytest.raises(UnstorableValue, match="bound-relative"):
        check_storable({"verdict": "ok", "answers": [["a"]],
                        "outcome": {"definitive": False}})


# -- DirectoryBackend: the flat cache-directory format -----------------------


class TestDirectoryBackend:
    def test_byte_compatible_with_disk_cache(self, tmp_path):
        # The flat format every cache directory has been written in:
        # <key>.json holding json.dumps(value).  Existing directories read
        # back, and new entries are written byte for byte the same way.
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / f"{KEY}.json").write_text(json.dumps(VALUE))
        backend = DirectoryBackend(tmp_path / "d")
        assert backend.get(KEY) == VALUE
        backend.put(KEY2, {"verdict": "no"})
        assert ((tmp_path / "d" / f"{KEY2}.json").read_text()
                == json.dumps({"verdict": "no"}))

    def test_corrupt_entry_evicted_and_counted(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "d")
        backend.put(KEY, VALUE)
        (tmp_path / "d" / f"{KEY}.json").write_text("{not json")
        assert backend.get(KEY) is None
        assert backend.stats()["read_errors"] == 1
        assert not (tmp_path / "d" / f"{KEY}.json").exists()

    def test_verify_flags_unparseable_entry(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "d")
        backend.put(KEY, VALUE)
        (tmp_path / "d" / f"{KEY2}.json").write_text("{truncated")
        assert backend.verify() == [KEY2]

    def test_circuit_breaker_surfaces_as_tripped(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "d")
        for _ in range(MAX_CONSECUTIVE_ERRORS - 1):
            backend.put(KEY, {"verdict": "yes", "v": object()})  # unwritable
        assert backend.tripped is False
        backend.put(KEY, {"verdict": "yes", "v": object()})
        assert backend.tripped is True
        assert backend.stats()["tripped"] is True

    def test_breaker_trips_after_consecutive_write_failures(
            self, tmp_path, monkeypatch):
        backend = DirectoryBackend(tmp_path / "d")

        def boom(*a, **k):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        for _ in range(MAX_CONSECUTIVE_ERRORS - 1):
            backend.put(KEY, VALUE)
        assert backend.tripped is False
        backend.put(KEY2, VALUE)
        assert backend.tripped is True
        monkeypatch.undo()
        backend.put(KEY, VALUE)  # no-op once tripped
        assert backend.get(KEY) is None
        assert backend.stats()["write_errors"] == MAX_CONSECUTIVE_ERRORS
        assert list(backend.scan()) == []


# -- SqliteBackend -----------------------------------------------------------


class TestSqliteBackend:
    def test_ttl_expiry_reads_as_miss_and_reclaims(self, tmp_path):
        now = [1000.0]
        backend = SqliteBackend(tmp_path / "c.db", ttl=10,
                                clock=lambda: now[0])
        backend.put(KEY, VALUE)
        assert backend.get(KEY) == VALUE
        now[0] += 11
        assert backend.get(KEY) is None
        stats = backend.stats()
        assert stats["expired"] == 1
        assert stats["entries"] == 0  # reclaimed in place
        backend.close()

    def test_lru_eviction_under_size_budget(self, tmp_path):
        now = [0.0]
        backend = SqliteBackend(tmp_path / "c.db", max_bytes=400,
                                clock=lambda: now[0])
        keys = [f"{i:02d}" * 8 for i in range(8)]
        for key in keys:
            now[0] += 1
            backend.put(key, {"verdict": "yes", "pad": "x" * 50})
        stats = backend.stats()
        assert stats["total_bytes"] <= 400
        assert stats["evictions"] > 0
        # The most recently written key survives; the oldest went first.
        assert backend.get(keys[-1]) is not None
        assert backend.get(keys[0]) is None
        backend.close()

    def test_per_entry_hit_counters_persisted(self, tmp_path):
        backend = SqliteBackend(tmp_path / "c.db")
        backend.put(KEY, VALUE)
        for _ in range(3):
            backend.get(KEY)
        (info,) = backend.scan()  # scan flushes the batched counters
        assert info.hits == 3
        backend.close()

    def test_lifetime_stats_survive_reopen(self, tmp_path):
        backend = SqliteBackend(tmp_path / "c.db")
        backend.put(KEY, VALUE)
        backend.get(KEY)
        backend.get(KEY2)  # miss
        backend.close()
        backend = SqliteBackend(tmp_path / "c.db")
        lifetime = backend.stats()["lifetime"]
        assert lifetime == {"hits": 1, "misses": 1, "puts": 1,
                            "evictions": 0, "expired": 0}
        backend.close()

    def test_verify_detects_tampered_row(self, tmp_path):
        backend = SqliteBackend(tmp_path / "c.db")
        backend.put(KEY, VALUE)
        backend.put(KEY2, {"verdict": "no"})
        backend.close()
        conn = sqlite3.connect(tmp_path / "c.db")
        conn.execute("UPDATE entries SET value = ? WHERE key = ?",
                     (json.dumps({"verdict": "no"}), KEY))
        conn.commit()
        conn.close()
        backend = SqliteBackend(tmp_path / "c.db")
        assert backend.verify() == [KEY]
        # The read path treats the same mismatch as a corrupt miss + evict.
        assert backend.get(KEY) is None
        assert backend.stats()["read_errors"] == 1
        assert backend.get(KEY2) == {"verdict": "no"}
        backend.close()

    def test_rejects_bad_budgets(self, tmp_path):
        with pytest.raises(ValueError):
            SqliteBackend(tmp_path / "c.db", max_bytes=0)
        with pytest.raises(ValueError):
            SqliteBackend(tmp_path / "c.db", ttl=-1)


# -- AnswerCache integration -------------------------------------------------


class TestAnswerCacheBackend:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_backend_behind_answer_cache(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        cache = AnswerCache(maxsize=2, backend=backend)
        assert cache.backend is backend
        cache.put(KEY, VALUE)
        # A fresh memory tier over the same backend still hits durably.
        warm = AnswerCache(backend=backend)
        assert warm.get(KEY) == VALUE
        backend.close()

    def test_storage_spans_traced(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "d")
        cache = AnswerCache(backend=backend)
        tracer = Tracer()
        with tracer.activate():
            cache.put(KEY, VALUE)      # storage.put
            cache.get(KEY)             # memory hit: no storage span
            AnswerCache(backend=backend).get(KEY)   # storage.get (hit)
            AnswerCache(backend=backend).get(KEY2)  # storage.get (miss)
        names = [s["name"] for s in tracer.to_dicts()]
        assert names.count("storage.put") == 1
        assert names.count("storage.get") == 2
        gets = [s for s in tracer.to_dicts() if s["name"] == "storage.get"]
        assert [s["attrs"]["hit"] for s in gets] == [True, False]
        assert all(s["attrs"]["backend"] == "dir" for s in gets)

    def test_memory_only_cache_traces_nothing(self):
        cache = AnswerCache()
        tracer = Tracer()
        with tracer.activate():
            cache.put(KEY, VALUE)
            cache.get(KEY)
        assert tracer.to_dicts() == []


# -- compile_omq / evaluate_batch / server wiring ----------------------------


ONTO = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))")

JOBS = [Job(query="q(x) <- Hand(x)", facts=("Hand(h)", "Arm(a)"), job_id="a"),
        Job(query="q(y) <- Digit(y)", facts=("Hand(h)",), job_id="b")]


class TestServingWiring:
    def test_compile_omq_accepts_backend_uri(self, tmp_path):
        # A plan takes its answer cache per evaluate call; a backend URI
        # becomes a cache through open_backend, and its owner closes it.
        plan = compile_omq(ONTO, "q(x) <- Hand(x)")
        data = make_instance("Hand(h)", "Arm(a)")
        uri = f"sqlite:{tmp_path}/c.db"
        with open_backend(uri) as backend:
            assert backend.scheme == "sqlite"
            cold = plan.evaluate(data, cache=AnswerCache(backend=backend))
        with open_backend(uri) as backend:
            hit = plan.evaluate(data, cache=AnswerCache(backend=backend))
        assert not cold.cache_hit and hit.cache_hit
        assert hit.answers == cold.answers == (("h",),)

    @pytest.mark.parametrize("uri_kind", BACKENDS)
    def test_evaluate_batch_cache_backend(self, uri_kind, tmp_path):
        uri = {"dir": f"dir:{tmp_path}/d",
               "sqlite": f"sqlite:{tmp_path}/c.db"}[uri_kind]
        cold = evaluate_batch(ONTO, JOBS, cache_backend=uri)
        assert cold.stats["cache"]["hits"] == 0
        assert cold.stats["cache"]["backend"]["backend"] == uri_kind
        assert cold.stats["cache"]["tripped"] is False
        clear_caches()
        warm = evaluate_batch(ONTO, JOBS, cache_backend=uri)
        assert warm.stats["cache"]["hits"] == len(JOBS)
        assert warm.signatures() == cold.signatures()

    def test_tripped_flag_propagates_and_logs_once(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "d")
        (tmp_path / "d").rmdir()  # a dead cache volume: writes fail
        for _ in range(MAX_CONSECUTIVE_ERRORS):
            backend.put(KEY, VALUE)
        assert backend.tripped
        cache = AnswerCache(backend=backend)
        tracer = Tracer()
        report = evaluate_batch(ONTO, JOBS, answer_cache=cache,
                                tracer=tracer)
        assert report.stats["cache"]["tripped"] is True
        breaker = [s for s in tracer.to_dicts()
                   if s["name"] == "storage.breaker"]
        assert len(breaker) == 1
        assert breaker[0]["attrs"]["tripped"] is True

    def test_untripped_batch_has_no_breaker_span(self, tmp_path):
        tracer = Tracer()
        report = evaluate_batch(ONTO, JOBS,
                                cache_backend=f"dir:{tmp_path}/d",
                                tracer=tracer)
        assert report.stats["cache"]["tripped"] is False
        assert not [s for s in tracer.to_dicts()
                    if s["name"] == "storage.breaker"]

    def test_sqlite_lifetime_stats_in_report(self, tmp_path):
        uri = f"sqlite:{tmp_path}/c.db"
        evaluate_batch(ONTO, JOBS, cache_backend=uri)
        clear_caches()
        evaluate_batch(ONTO, JOBS, cache_backend=uri)
        # The report holds the handle's session accounting; the tier's
        # lifetime totals are the backend's stats.
        with open_backend(uri) as backend:
            lifetime = backend.stats()["lifetime"]
        assert lifetime["puts"] == len(JOBS)
        assert lifetime["hits"] >= len(JOBS)


class TestServerWiring:
    def test_server_cache_backend_and_metrics(self, tmp_path):
        from repro.server import ReproServer

        server = ReproServer(cache_backend=f"sqlite:{tmp_path}/c.db")
        assert server.answer_cache.backend.scheme == "sqlite"
        server.answer_cache.put(KEY, VALUE)
        server.answer_cache.get(KEY2)  # durable miss
        text = server.render_metrics()
        assert "repro_storage_entries 1" in text
        assert "repro_storage_misses 1" in text
        assert "repro_storage_tripped 0" in text
        assert "repro_storage_lifetime_puts 1" in text
        server.answer_cache.backend.close()

    def test_server_without_backend_has_no_storage_gauges(self):
        from repro.server import ReproServer

        server = ReproServer()
        assert "repro_storage_" not in server.render_metrics()
