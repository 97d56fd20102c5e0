"""Multi-process contention over shared storage backends (ISSUE 8,
satellite 2).

N worker processes hammer one SqliteBackend / one ShardedDirectoryBackend
with mixed gets and puts; afterwards every surviving entry must verify
clean, sqlite's lifetime hit statistics must be monotone and consistent,
and a ``kill:``-faulted writer dying mid-put must not leave torn entries
behind.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.faults import KILL_EXIT_CODE
from repro.serving.fingerprint import digest
from repro.storage import (
    DirectoryBackend, ShardedDirectoryBackend, SqliteBackend,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

N_PROCS = 4
OPS_PER_PROC = 60

# Each worker performs a deterministic mix of puts and gets over a key
# space shared by all workers, so writes genuinely collide.
HAMMER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.serving.fingerprint import digest
from repro.storage import open_backend

uri, seed, ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
hits = 0
with open_backend(uri) as backend:
    for i in range(ops):
        key = digest("shared-%d" % ((seed * 7 + i) % 17))
        if (seed + i) % 3 == 0:
            backend.put(key, {{"verdict": "yes", "writer": seed, "op": i,
                               "pad": "x" * 64}})
        else:
            value = backend.get(key)
            if value is not None:
                assert value["verdict"] == "yes", value
                hits += 1
print(hits)
"""


def _spawn(uri, seed, ops=OPS_PER_PROC, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.Popen(
        [sys.executable, "-c", HAMMER.format(src=SRC), uri, str(seed),
         str(ops)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=full_env)


def _hammer(uri, n_procs=N_PROCS):
    procs = [_spawn(uri, seed) for seed in range(n_procs)]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs.append(int(out.strip()))
    return outs


class TestSqliteContention:
    def test_no_torn_entries_and_monotone_hits(self, tmp_path):
        uri = f"sqlite:{tmp_path}/shared.db"
        # Pre-populate so readers hit from the start.
        with SqliteBackend(tmp_path / "shared.db") as backend:
            for i in range(17):
                backend.put(digest("shared-%d" % i),
                            {"verdict": "yes", "writer": -1, "op": -1,
                             "pad": "x" * 64})
        hits = _hammer(uri)
        assert sum(hits) > 0  # contended readers actually hit

        backend = SqliteBackend(tmp_path / "shared.db")
        assert backend.verify() == []
        stats = backend.stats()
        assert stats["entries"] == 17  # fixed key space, nothing torn/lost
        lifetime = backend.stats()["lifetime"]
        # Every worker's session hits were flushed into the shared DB.
        assert lifetime["hits"] >= sum(hits)
        assert lifetime["puts"] >= 17
        # Per-entry counters are non-negative and sum below the aggregate
        # (aggregate also counts entries later overwritten).
        per_entry = sum(info.hits or 0 for info in backend.scan())
        assert 0 < per_entry <= lifetime["hits"]
        backend.close()

    def test_hit_stats_monotone_across_rounds(self, tmp_path):
        uri = f"sqlite:{tmp_path}/shared.db"
        with SqliteBackend(tmp_path / "shared.db") as backend:
            for i in range(17):
                backend.put(digest("shared-%d" % i), {"verdict": "yes"})

        def lifetime_hits():
            with SqliteBackend(tmp_path / "shared.db") as b:
                return b.stats()["lifetime"]["hits"]

        before = lifetime_hits()
        first = sum(_hammer(uri, n_procs=2))
        mid = lifetime_hits()
        second = sum(_hammer(uri, n_procs=2))
        after = lifetime_hits()
        assert before <= mid <= after
        assert mid >= before + first
        assert after >= mid + second


class TestShardedContention:
    def test_no_torn_entries_across_writers(self, tmp_path):
        uri = f"shard:{tmp_path}/shared?shards=8"
        ShardedDirectoryBackend(tmp_path / "shared", shards=8).put(
            digest("shared-0"), {"verdict": "yes", "writer": -1, "op": -1,
                                 "pad": "x" * 64})
        hits = _hammer(uri)
        assert sum(hits) > 0

        backend = ShardedDirectoryBackend(tmp_path / "shared")
        assert backend.shards == 8  # pinned count inherited
        assert backend.verify() == []
        keys = {info.key for info in backend.scan()}
        assert keys <= {digest("shared-%d" % i) for i in range(17)}
        # Every surviving value is one writer's complete payload.
        for key in keys:
            value = backend.get(key)
            if value is not None:
                assert set(value) == {"verdict", "writer", "op", "pad"}


class TestKillMidPut:
    """A writer dying mid-put (``kill:`` fault -> os._exit) must not
    corrupt the shared store: atomic rename / sqlite transactions mean
    later readers see either the old value or nothing."""

    KILLER = """
import sys
sys.path.insert(0, {src!r})
import os
from repro.serving.fingerprint import digest
from repro.storage import open_backend

uri = sys.argv[1]
backend = open_backend(uri)
real_replace = os.replace


def dying_replace(src, dst):
    os._exit({exit_code})


backend.put(digest("survivor"), {{"verdict": "yes", "n": 1}})
os.replace = dying_replace
backend.put(digest("victim"), {{"verdict": "yes", "n": 2}})
print("unreachable")
"""

    @pytest.mark.parametrize("kind", ["sqlite", "shard", "dir"])
    def test_kill_mid_put_leaves_store_clean(self, kind, tmp_path):
        if kind == "sqlite":
            uri = f"sqlite:{tmp_path}/c.db"
            code = (
                "import sys; sys.path.insert(0, %r)\n"
                "import os\n"
                "from repro.serving.fingerprint import digest\n"
                "from repro.storage import SqliteBackend\n"
                "b = SqliteBackend(%r)\n"
                "b.put(digest('survivor'), {'verdict': 'yes', 'n': 1})\n"
                "b._conn.execute('BEGIN IMMEDIATE')\n"
                "b._conn.execute(\n"
                "    'INSERT INTO entries VALUES (?,?,?,?,?,?,?)',\n"
                "    (digest('victim'), 'TORN{', 'junk', 5, 0, 0, 0))\n"
                "os._exit(%d)\n"
            ) % (SRC, str(tmp_path / "c.db"), KILL_EXIT_CODE)
        else:
            uri = {"shard": f"shard:{tmp_path}/s?shards=4",
                   "dir": f"dir:{tmp_path}/d"}[kind]
            code = self.KILLER.format(src=SRC, exit_code=KILL_EXIT_CODE)

        proc = subprocess.run(
            [sys.executable, "-c", code] + ([] if kind == "sqlite" else [uri]),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == KILL_EXIT_CODE
        assert "unreachable" not in proc.stdout

        from repro.storage import open_backend

        with open_backend(uri) as backend:
            assert backend.verify() == []
            assert backend.get(digest("survivor")) == {"verdict": "yes",
                                                       "n": 1}
            assert backend.get(digest("victim")) is None

    def test_stray_tmp_files_are_invisible(self, tmp_path):
        # A crash can strand a mkstemp temp file; it must not read as an
        # entry, and verify/scan must ignore it.  Both directory flavours.
        for backend in (ShardedDirectoryBackend(tmp_path / "s", shards=4),
                        DirectoryBackend(tmp_path / "d")):
            key = digest("real")
            backend.put(key, {"verdict": "yes"})
            entry_dir = backend._path(key).parent
            (entry_dir / "tmp_abandoned.tmp").write_text('{"k": "torn')
            assert backend.verify() == []
            assert [i.key for i in backend.scan()] == [key]

    def test_sqlite_survives_hot_journal(self, tmp_path):
        # Simulate a crash that left WAL files behind: reopening must
        # recover and serve the committed entries.
        backend = SqliteBackend(tmp_path / "c.db")
        backend.put(digest("committed"), {"verdict": "yes"})
        backend._conn.execute("BEGIN IMMEDIATE")
        backend._conn.execute(
            "INSERT INTO entries VALUES (?,?,?,?,?,?,?)",
            (digest("uncommitted"), "{}", "junk", 2, 0, 0, 0))
        # Abandon without COMMIT (no close -> no flush/rollback either).
        del backend

        reopened = SqliteBackend(tmp_path / "c.db")
        assert reopened.get(digest("committed")) == {"verdict": "yes"}
        assert reopened.get(digest("uncommitted")) is None
        assert reopened.verify() == []
        reopened.close()


def test_sqlite_busy_timeout_is_set(tmp_path):
    backend = SqliteBackend(tmp_path / "c.db", busy_timeout=2.5)
    (timeout_ms,) = backend._conn.execute("PRAGMA busy_timeout").fetchone()
    assert timeout_ms == 2500
    (mode,) = backend._conn.execute("PRAGMA journal_mode").fetchone()
    assert mode == "wal"
    backend.close()


def test_sqlite_writer_retries_past_a_lock_holder(tmp_path):
    # One connection holds a write transaction briefly; the backend's
    # retry/busy-timeout loop must outlast it rather than raising.
    db = tmp_path / "c.db"
    backend = SqliteBackend(db)
    backend.put(digest("k0"), {"verdict": "yes"})

    blocker = sqlite3.connect(db, isolation_level=None,
                              check_same_thread=False)
    blocker.execute("PRAGMA busy_timeout=5000")
    blocker.execute("BEGIN IMMEDIATE")
    try:
        import threading

        def release():
            blocker.execute("COMMIT")

        timer = threading.Timer(0.3, release)
        timer.start()
        backend.put(digest("k1"), {"verdict": "yes"})  # must not raise
        timer.join()
    finally:
        blocker.close()
    assert backend.get(digest("k1")) == {"verdict": "yes"}
    backend.close()
