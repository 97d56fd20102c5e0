"""The ``storage:`` fault surface (ISSUE 10): deterministic EIO, torn
writes and transient contention injected at ``StorageBackend.get``/``put``
across all three backends, plus concurrent put-vs-eviction races run
*under* an injected fault schedule.

The faults come from the same ``REPRO_FAULTS`` plan as the solver
checkpoints, so these tests drive the process-wide plan through the
environment — exactly the path a chaos episode or a pool worker uses.
"""

import json
import threading

import pytest

import repro.runtime.faults as faults
from repro.runtime.faults import parse_faults
from repro.serving.fingerprint import digest
from repro.storage import (
    DirectoryBackend, ShardedDirectoryBackend, SqliteBackend,
)

VALUE = {"verdict": "yes", "answers": [["a"]], "pad": "x" * 64}

BACKENDS = ["dir", "sqlite", "shard"]


def make_backend(kind, tmp_path):
    if kind == "dir":
        return DirectoryBackend(tmp_path / "d")
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "c.db")
    return ShardedDirectoryBackend(tmp_path / "s", shards=4)


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    """Every test starts fault-free with a fresh plan cache (plans carry
    hit counters, so a cached plan would leak state between tests)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(faults, "_cache", None)
    yield


def set_faults(monkeypatch, text):
    monkeypatch.setenv("REPRO_FAULTS", text)
    monkeypatch.setattr(faults, "_cache", None)


def clear_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(faults, "_cache", None)


class TestParsing:
    def test_storage_sites(self):
        plan = parse_faults("storage:get:0.5,storage:torn:@2")
        assert set(plan.storage) == {"get", "torn"}

    def test_unknown_storage_site_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("storage:flub:0.5")

    def test_kill_storage_limited_to_ops(self):
        plan = parse_faults("kill:storage:put:@2")
        assert "storage:put" in plan.kills
        with pytest.raises(ValueError):
            parse_faults("kill:storage:torn:@2")

    def test_composes_with_solver_sites(self):
        plan = parse_faults("deadline:@1,storage:get,kill:chase_truncate:@3")
        assert plan.storage and plan.kills and plan.specs


@pytest.mark.parametrize("kind", BACKENDS)
class TestInjectedModes:
    def test_get_eio_returns_default_entry_survives(
            self, kind, tmp_path, monkeypatch):
        key = digest("k1")
        with make_backend(kind, tmp_path) as backend:
            backend.put(key, VALUE)
            set_faults(monkeypatch, "storage:get:@1")
            assert backend.get(key, "missing") == "missing"
            assert backend.injected.get("get") == 1
            # Only the read failed; the entry is intact afterwards.
            clear_faults(monkeypatch)
            assert backend.get(key) == VALUE

    def test_failed_read_counts_as_a_miss(
            self, kind, tmp_path, monkeypatch):
        # Every get is a hit or a miss, an injected EIO included.
        key = digest("k8")
        with make_backend(kind, tmp_path) as backend:
            backend.put(key, VALUE)
            set_faults(monkeypatch, "storage:get:@2")
            for _ in range(4):
                backend.get(key)
            backend.get(digest("absent"))
            stats = backend.stats()
            assert stats["injected"] == {"get": 1}
            assert (stats["hits"], stats["misses"]) == (3, 2)
            if kind == "sqlite":
                assert stats["lifetime"]["misses"] == 2

    def test_put_eio_drops_the_write(self, kind, tmp_path, monkeypatch):
        key = digest("k2")
        with make_backend(kind, tmp_path) as backend:
            set_faults(monkeypatch, "storage:put:@1")
            backend.put(key, VALUE)
            assert backend.injected.get("put") == 1
            clear_faults(monkeypatch)
            assert backend.get(key) is None

    def test_torn_write_lands_corrupt_and_heals(
            self, kind, tmp_path, monkeypatch):
        key = digest("k3")
        with make_backend(kind, tmp_path) as backend:
            set_faults(monkeypatch, "storage:torn:@1")
            backend.put(key, VALUE)
            assert backend.injected.get("torn") == 1
            clear_faults(monkeypatch)
            # The corruption is visible to verify(), the read path treats
            # it as a miss and evicts, after which verify() is clean.
            assert key in backend.verify()
            assert backend.get(key) is None
            assert backend.verify() == []

    def test_busy_is_absorbed(self, kind, tmp_path, monkeypatch):
        key = digest("k4")
        with make_backend(kind, tmp_path) as backend:
            set_faults(monkeypatch, "storage:busy")
            backend.put(key, VALUE)
            assert backend.get(key) == VALUE
            assert backend.injected.get("busy", 0) >= 2

    def test_eio_shadows_busy(self, kind, tmp_path, monkeypatch):
        key = digest("k5")
        with make_backend(kind, tmp_path) as backend:
            backend.put(key, VALUE)
            set_faults(monkeypatch, "storage:get,storage:busy")
            assert backend.get(key) is None
            # The stronger effect won; the backend notes only the mode it
            # actually applied.
            assert backend.injected == {"get": 1}

    def test_kill_on_put(self, kind, tmp_path, monkeypatch):
        killed = []

        def fake_kill(site):
            killed.append(site)
            raise RuntimeError("killed")

        monkeypatch.setattr(faults, "hard_kill", fake_kill)
        with make_backend(kind, tmp_path) as backend:
            set_faults(monkeypatch, "kill:storage:put:@2")
            backend.put(digest("k6"), VALUE)
            with pytest.raises(RuntimeError):
                backend.put(digest("k7"), VALUE)
        assert killed == ["storage:put"]


@pytest.mark.parametrize("kind", ["sqlite", "shard"])
class TestConcurrentEvictionUnderFaults:
    """Satellite 4: concurrent puts racing eviction while the fault plan
    injects contention and torn writes.  The backend must never raise,
    and once the schedule is lifted a read pass heals every survivor."""

    def test_put_vs_evict_race(self, kind, tmp_path, monkeypatch):
        set_faults(monkeypatch, "storage:busy:0.3,storage:torn:0.25")
        keys = [digest(f"race-{i}") for i in range(24)]
        errors = []
        stop = threading.Event()

        with make_backend(kind, tmp_path) as backend:
            def writer(seed):
                try:
                    for i in range(40):
                        backend.put(keys[(seed * 7 + i) % len(keys)], VALUE)
                        backend.get(keys[(seed + i) % len(keys)])
                except Exception as exc:  # noqa: BLE001 — the assertion
                    errors.append(exc)

            def evictor():
                try:
                    while not stop.is_set():
                        backend.evict_older_than(0.0)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(s,))
                       for s in range(3)]
            ev = threading.Thread(target=evictor)
            for t in threads:
                t.start()
            ev.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            ev.join(timeout=60)
            assert not errors, errors
            assert backend.injected.get("torn", 0) > 0
            assert backend.injected.get("busy", 0) > 0

            # Lift the schedule; a read pass over every key evicts any
            # surviving torn entry, after which the store verifies clean.
            clear_faults(monkeypatch)
            for key in keys:
                value = backend.get(key)
                assert value is None or value == VALUE
            assert backend.verify() == []
            stats = backend.stats()
            assert stats["entries"] == len(list(backend.scan()))

    def test_injected_counts_surface_in_stats(
            self, kind, tmp_path, monkeypatch):
        with make_backend(kind, tmp_path) as backend:
            set_faults(monkeypatch, "storage:put:@1")
            backend.put(digest("s1"), VALUE)
            stats = backend.stats()
            assert stats.get("injected", {}).get("put") == 1
            assert json.dumps(stats)  # stats stay JSON-serializable
