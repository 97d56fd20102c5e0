"""LRU / disk caches and the memoized ontology->rules conversion."""

import json

import pytest

from repro.logic.ontology import ontology
from repro.semantics.rules import render_rules
from repro.serving import (
    AnswerCache, LRUCache, clear_caches, conversion_cache_stats,
    convert_ontology_cached,
)
from repro.serving import cache as cache_mod
from repro.storage import DirectoryBackend, ShardedDirectoryBackend

HORN = "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))"
DISJ = "forall x (x = x -> (Coin(x) -> Heads(x) | Tails(x)))"


class TestLRUCache:
    def test_get_put_and_hit_accounting(self):
        c = LRUCache(maxsize=4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        stats = c.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_eviction_is_least_recently_used(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh "a"; "b" is now the LRU entry
        c.put("c", 3)
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.stats()["evictions"] == 1

    def test_put_existing_key_updates_in_place(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("a", 2)
        assert c.get("a") == 2
        assert c.stats()["size"] == 1

    def test_clear_resets_contents_and_counters(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert c.get("a") is None
        assert c.stats()["hits"] == 0 and c.stats()["size"] == 0


class TestDiskCache:
    """The file store contract on the flat ``dir:`` layout;
    :class:`TestShardedDiskCache` reruns every test on ``shard:``, which
    shares the implementation."""

    make = DirectoryBackend

    def test_round_trip(self, tmp_path):
        d = self.make(tmp_path / "cache")
        assert d.get("k1") is None
        d.put("k1", {"answers": [["h"]], "verdict": "ok"})
        assert d.get("k1") == {"answers": [["h"]], "verdict": "ok"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        d = self.make(tmp_path / "cache")
        d.put("k1", {"x": 1})
        d._path("k1").write_text("{not json", encoding="utf-8")
        assert d.get("k1") is None

    def test_entries_are_valid_json_files(self, tmp_path):
        d = self.make(tmp_path / "cache")
        d.put("k1", [1, 2, 3])
        [entry] = d.scan()
        text = d._path(entry.key).read_text(encoding="utf-8")
        json.loads(text)  # raises unless the file is one JSON document
        assert d._decode(entry.key, text) == [1, 2, 3]

    def test_corrupt_entry_is_counted_and_evicted(self, tmp_path):
        d = self.make(tmp_path / "cache")
        d.put("k1", {"x": 1})
        path = d._path("k1")
        path.write_text('{"x": 1, "trunc', encoding="utf-8")  # torn write
        assert d.get("k1") is None
        assert d.read_errors == 1 and d.misses == 1
        assert not path.exists()  # evicted so it cannot keep failing
        # The slot is clean again: a rewrite round-trips.
        d.put("k1", {"x": 2})
        assert d.get("k1") == {"x": 2}
        assert d.stats()["read_errors"] == 1

    def test_plain_miss_is_not_a_read_error(self, tmp_path):
        d = self.make(tmp_path / "cache")
        assert d.get("absent") is None
        assert d.misses == 1 and d.read_errors == 0

    def test_write_failures_trip_the_circuit_breaker(self, tmp_path):
        d = self.make(tmp_path / "cache", max_consecutive_errors=3)
        unserializable = object()
        for _ in range(3):
            d.put("k", unserializable)  # TypeError inside json.dumps
        assert d.write_errors == 3
        assert d.tripped and d.stats()["tripped"] is True
        # Tripped: the disk is never touched again this process.
        d.put("k2", {"ok": 1})
        assert list(d.scan()) == []
        assert d.get("k2") is None  # every get is a miss

    def test_successful_write_resets_the_error_streak(self, tmp_path):
        d = self.make(tmp_path / "cache", max_consecutive_errors=2)
        d.put("bad", object())
        d.put("good", {"ok": 1})  # streak broken
        d.put("bad", object())
        assert d.write_errors == 2 and not d.tripped

    def test_max_consecutive_errors_validated(self, tmp_path):
        with pytest.raises(ValueError):
            self.make(tmp_path / "cache", max_consecutive_errors=0)


class TestShardedDiskCache(TestDiskCache):
    make = ShardedDirectoryBackend


class TestAnswerCache:
    def test_key_is_order_sensitive_composite(self):
        assert AnswerCache.key("a", "b") != AnswerCache.key("b", "a")
        assert AnswerCache.key("a", "b") == AnswerCache.key("a", "b")

    def test_memory_layer(self):
        c = AnswerCache(maxsize=8)
        k = AnswerCache.key("omq", "inst")
        assert c.get(k) is None
        c.put(k, {"verdict": "ok"})
        assert c.get(k) == {"verdict": "ok"}

    def test_disk_layer_backfills_memory(self, tmp_path):
        warm = AnswerCache(maxsize=8, backend=DirectoryBackend(tmp_path / "c"))
        k = AnswerCache.key("omq", "inst")
        warm.put(k, {"verdict": "ok"})
        # A fresh in-memory cache over the same directory sees the entry.
        cold = AnswerCache(maxsize=8,
                           backend=DirectoryBackend(tmp_path / "c"))
        assert cold.get(k) == {"verdict": "ok"}
        # ...and it is now resident in memory too.
        assert cold.memory.get(k) is not None


class TestConversionCache:
    def test_memoizes_per_ontology_content(self, monkeypatch):
        clear_caches()
        calls = []
        real = cache_mod.convert_ontology

        def counting(onto):
            calls.append(onto)
            return real(onto)

        monkeypatch.setattr(cache_mod, "convert_ontology", counting)
        a = ontology(HORN, name="first")
        b = ontology(HORN, name="second")  # same content, different name
        r1 = convert_ontology_cached(a)
        r2 = convert_ontology_cached(b)
        assert len(calls) == 1
        assert render_rules(r1) == render_rules(r2)
        stats = conversion_cache_stats()
        assert stats["hits"] >= 1

    def test_returns_fresh_list_copies(self):
        clear_caches()
        onto = ontology(DISJ)
        r1 = convert_ontology_cached(onto)
        r1.append("sentinel")
        r2 = convert_ontology_cached(onto)
        assert "sentinel" not in r2

    def test_none_verdict_is_cached(self, monkeypatch):
        clear_caches()
        # a universal quantifier in a positive disjunct cannot become a head
        onto = ontology(
            "forall x (x = x -> (A(x) | forall y (R(x,y) -> B(y))))")
        calls = []
        real = cache_mod.convert_ontology

        def counting(o):
            calls.append(o)
            return real(o)

        monkeypatch.setattr(cache_mod, "convert_ontology", counting)
        first = convert_ontology_cached(onto)
        second = convert_ontology_cached(onto)
        assert len(calls) == 1
        assert first is None and second is None

    def test_matches_direct_conversion(self):
        clear_caches()
        onto = ontology(HORN + "\n" + DISJ)
        cached = convert_ontology_cached(onto)
        direct = cache_mod.convert_ontology(onto)
        assert render_rules(cached) == render_rules(direct)
