"""The chaos driver's cheap surface (ISSUE 10): seeded schedules,
profile validation, report shape, and the invariant checkers against
synthetic reports.  Full episodes run subprocesses and a daemon — those
live in the CI chaos smoke (``repro chaos run``), not the unit suite."""

import pytest

from repro.chaos import ChaosDriver, PROFILES, Violation
from repro.chaos.invariants import (
    check_backend_clean, check_job_accounting, check_no_unknown_cached,
    check_reports_comparable,
)
from repro.serving.fingerprint import digest
from repro.storage import SqliteBackend


def make_driver(tmp_path, seed=42, **kw):
    kw.setdefault("profile", "smoke")
    kw.setdefault("workdir", str(tmp_path / f"chaos-{seed}"))
    return ChaosDriver(seed=seed, **kw)


def report(jobs, **stats_override):
    """A synthetic BatchReport.to_dict payload with consistent stats."""
    statuses = [j["status"] for j in jobs]
    stats = {"jobs": len(jobs),
             "ok": statuses.count("ok"),
             "unknown": statuses.count("unknown"),
             "error": statuses.count("error"),
             "quarantined": statuses.count("quarantined")}
    stats.update(stats_override)
    return {"jobs": jobs, "stats": stats}


def job(job_id, index=0, status="ok", answers=(("a",),)):
    return {"index": index, "id": job_id, "query": "q(x) <- A(x)",
            "data": "<1 inline fact(s)>", "status": status,
            "verdict": "yes" if status == "ok" else None,
            "answers": [list(a) for a in answers]}


class TestDriverSurface:
    def test_profiles_are_closed_over_episodes(self):
        assert set(PROFILES) == {"smoke", "batch", "serve", "all"}
        for profile, episodes in PROFILES.items():
            assert episodes, profile
            assert set(episodes) <= set(ChaosDriver._EPISODES), profile
        assert PROFILES["all"] == PROFILES["batch"] + PROFILES["serve"]

    def test_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="profile"):
            make_driver(tmp_path, profile="hurricane")

    def test_too_few_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_driver(tmp_path, jobs=2)

    def test_schedule_is_a_pure_function_of_the_seed(self, tmp_path):
        a = make_driver(tmp_path / "a", seed=9)
        b = make_driver(tmp_path / "b", seed=9)
        c = make_driver(tmp_path / "c", seed=10)
        assert a.schedule == b.schedule
        assert a.schedule != c.schedule

    def test_workloads_are_seeded_per_family(self, tmp_path):
        driver = make_driver(tmp_path, seed=9)
        horn = driver.workload("horn")
        assert horn.family == "horn"
        assert driver.workload("horn").fingerprint == horn.fingerprint
        disj = driver.workload("disjunctive")
        assert disj.family == "disjunctive"
        assert disj.spec.inconsistency_rate > 0


class TestJobAccounting:
    def test_clean_report_passes(self):
        jobs = [job("a", 0), job("b", 1, status="unknown", answers=())]
        assert check_job_accounting(report(jobs), ["a", "b"]) == []

    def test_lost_job_flagged(self):
        out = check_job_accounting(report([job("a")]), ["a", "b"])
        assert any("lost" in v.detail and "b" in v.detail for v in out)

    def test_duplicate_job_flagged(self):
        jobs = [job("a", 0), job("a", 1)]
        out = check_job_accounting(report(jobs), ["a"])
        assert any("2 times" in v.detail for v in out)

    def test_unexpected_job_flagged(self):
        out = check_job_accounting(report([job("a"), job("z", 1)]), ["a"])
        assert any("unexpected" in v.detail for v in out)

    def test_non_terminal_status_flagged(self):
        out = check_job_accounting(
            report([job("a", status="running")]), ["a"])
        assert any("non-terminal" in v.detail for v in out)

    def test_stats_mismatch_flagged(self):
        out = check_job_accounting(report([job("a")], ok=2), ["a"])
        assert any("stats.ok=2" in v.detail for v in out)


class TestComparableEquality:
    def test_identical_reports_pass(self):
        a = report([job("a"), job("b", 1)])
        assert check_reports_comparable(a, a, "rerun") == []

    def test_volatile_fields_ignored(self):
        a = report([job("a")])
        b = report([dict(job("a"), latency=1.0, engine="sat")])
        assert check_reports_comparable(a, b, "rerun") == []

    def test_divergent_answers_named(self):
        a = report([job("a"), job("b", 1, answers=(("x",),))])
        b = report([job("a"), job("b", 1, answers=(("y",),))])
        out = check_reports_comparable(a, b, "resume")
        assert len(out) == 1
        assert "resume" in out[0].detail
        assert "'b'" in out[0].detail and "answers" in out[0].detail


class TestCacheInvariants:
    def test_missing_backend_is_clean(self, tmp_path):
        uri = f"sqlite:{tmp_path / 'nope.db'}"
        assert check_no_unknown_cached(uri) == []
        assert check_backend_clean(uri) == []
        assert not (tmp_path / "nope.db").exists()  # checks create nothing

    def test_unknown_entry_flagged(self, tmp_path):
        import json
        import sqlite3

        path = tmp_path / "c.db"
        with SqliteBackend(path) as backend:
            backend.put(digest("good"), {"verdict": "yes", "answers": []})
        # put() itself refuses non-definitive values (check_storable), so
        # plant the poisoned rows behind the guard's back — the scenario
        # the invariant exists to catch is exactly a write that dodged it.
        conn = sqlite3.connect(path)
        for name, value in (
                ("bad", {"verdict": "unknown", "answers": []}),
                ("bounded", {"verdict": "ok", "answers": [["a"]],
                             "outcome": {"definitive": False}})):
            text = json.dumps(value)
            conn.execute(
                "INSERT INTO entries"
                "(key, value, digest, size, created, last_used, hits) "
                "VALUES(?, ?, ?, ?, 0, 0, 0)",
                (digest(name), text, digest(text), len(text)))
        conn.commit()
        conn.close()
        out = check_no_unknown_cached(f"sqlite:{path}")
        assert len(out) == 2
        assert {v.invariant for v in out} == {"no-unknown-cached"}
        assert any("bound-relative" in v.detail for v in out)

    def test_clean_backend_verifies(self, tmp_path):
        path = tmp_path / "c.db"
        with SqliteBackend(path) as backend:
            backend.put(digest("good"), {"verdict": "yes", "answers": []})
        assert check_backend_clean(f"sqlite:{path}") == []


class TestViolation:
    def test_str_and_dict(self):
        v = Violation("job-accounting", "job 'a' lost")
        assert str(v) == "job-accounting: job 'a' lost"
        assert v.to_dict() == {"invariant": "job-accounting",
                               "detail": "job 'a' lost"}
