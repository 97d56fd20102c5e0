"""Integration coverage for batch resilience: retry-with-escalation,
poison-job quarantine under real worker deaths (SIGKILL and ``kill:``
faults), and crash-safe journal/--resume round trips."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.logic.ontology import ontology
from repro.obs import Tracer
from repro.resilience import RetryPolicy
from repro.runtime import KILL_EXIT_CODE, Budget, parse_faults
from repro.serving import (
    Job, clear_caches, comparable_report, evaluate_batch,
)
from repro.serving import batch as batch_mod

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))")

HAND_TEXT = (
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))\n")

POISON = 1  # index the killing workers key on


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def mixed_jobs(n: int = 4) -> list[Job]:
    """Index POISON chases into null creation; the others never do."""
    jobs = []
    for i in range(n):
        if i == POISON:
            jobs.append(Job(query="q(y) <- Digit(y)",
                            facts=("Hand(h)",), job_id="poison"))
        else:
            jobs.append(Job(query="q(x) <- Hand(x)",
                            facts=(f"Arm(a{i})",), job_id=f"innocent{i}"))
    return jobs


# Module-level so it pickles by reference into pool workers (the fork
# start method then resolves it against this already-imported module).
_REAL_RUN_JOB = batch_mod._run_job


def _sigkill_poison_run_job(payload):
    if payload[0] == POISON:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_RUN_JOB(payload)


class TestSerialRetry:
    def test_unknown_retried_under_escalated_budget(self, no_ambient_faults):
        # Attempt 1 starves on a split-sized budget; the retry's fresh
        # escalated allocation answers.  End to end, no monkeypatching.
        jobs = [Job(query="q(x) <- hasFinger(x,y) & Thumb(y)",
                    facts=("Hand(h1)", "Hand(h2)", "Hand(h3)"))]
        budget = Budget(nulls=2, chase_steps=2, conflicts=2, escalate=False)
        report = evaluate_batch(
            HAND, jobs, budget=budget,
            retry=RetryPolicy(max_attempts=4, escalation=16.0))
        r = report.results[0]
        assert r.status == "ok"
        assert [a["status"] for a in r.attempts] == ["unknown", "ok"]
        assert r.attempts[1]["escalation"] == 16.0
        assert report.stats["resilience"]["retries"] == 1

    def test_crash_on_first_attempt_then_success(self, monkeypatch):
        real = batch_mod._execute_job

        def flaky(index, job, onto, budget, options, cache):
            if index == POISON and options.get("attempt", 1) == 1:
                raise RuntimeError("transient poison")
            return real(index, job, onto, budget, options, cache)

        monkeypatch.setattr(batch_mod, "_execute_job", flaky)
        report = evaluate_batch(
            HAND, mixed_jobs(), retry=RetryPolicy(max_attempts=3))
        r = report.results[POISON]
        assert r.status == "ok"
        assert [a["status"] for a in r.attempts] == ["crash", "ok"]
        assert "RuntimeError: transient poison" in r.attempts[0]["reason"]
        assert report.ok

    def test_retries_go_out_at_once(self, monkeypatch):
        # Four jobs that each crash once: the retry wave runs without a
        # pause, so no attempt records a wait and the trace has no
        # backoff span.
        real = batch_mod._execute_job

        def crash_once(index, job, onto, budget, options, cache):
            if options.get("attempt", 1) == 1:
                raise RuntimeError("transient")
            return real(index, job, onto, budget, options, cache)

        monkeypatch.setattr(batch_mod, "_execute_job", crash_once)
        tracer = Tracer()
        report = evaluate_batch(HAND, mixed_jobs(4),
                                retry=RetryPolicy(max_attempts=2),
                                tracer=tracer)
        assert [r.status for r in report.results] == ["ok"] * 4
        for r in report.results:
            assert [a["status"] for a in r.attempts] == ["crash", "ok"]
            assert all("backoff" not in a for a in r.attempts)
        assert report.stats["resilience"]["retries"] == 4
        names = {span["name"] for span in tracer.to_dicts()}
        assert "batch.job" in names
        assert "supervisor.backoff" not in names

    def test_persistent_crasher_is_quarantined_batch_continues(
            self, monkeypatch):
        real = batch_mod._execute_job

        def poison(index, job, onto, budget, options, cache):
            if index == POISON:
                raise RuntimeError("always dies")
            return real(index, job, onto, budget, options, cache)

        monkeypatch.setattr(batch_mod, "_execute_job", poison)
        report = evaluate_batch(
            HAND, mixed_jobs(),
            retry=RetryPolicy(max_attempts=5, max_crashes=2))
        r = report.results[POISON]
        assert r.status == "quarantined" and r.verdict == "unknown"
        assert r.reason == ("quarantined after 2 worker crash(es): "
                            "RuntimeError: always dies")
        assert len(r.attempts) == 2
        innocents = [x for x in report.results if x.index != POISON]
        assert all(x.status == "ok" for x in innocents)
        assert report.stats["quarantined"] == 1
        assert report.stats["resilience"]["quarantined"] == 1
        assert "1 quarantined" in report.render_text()

    def test_without_retry_policy_crash_keeps_legacy_shape(
            self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("induced crash")

        monkeypatch.setattr(batch_mod, "_execute_job", boom)
        report = evaluate_batch(HAND, mixed_jobs(2))
        assert all(r.status == "unknown" for r in report.results)
        assert all(r.reason == "worker crashed: RuntimeError: induced crash"
                   for r in report.results)
        assert all(r.attempts == () for r in report.results)  # no history


class TestPoolWorkerDeath:
    def test_sigkilled_worker_is_retried_then_quarantined(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_run_job", _sigkill_poison_run_job)
        report = evaluate_batch(
            HAND, mixed_jobs(4), workers=2,
            retry=RetryPolicy(max_attempts=5, max_crashes=2))
        r = report.results[POISON]
        assert r.status == "quarantined"
        assert len(r.attempts) == 2
        assert all(a["status"] == "crash" for a in r.attempts)
        innocents = [x for x in report.results if x.index != POISON]
        assert all(x.status == "ok" for x in innocents)
        pool_stats = report.stats["resilience"]["pool"]
        assert pool_stats["pool_deaths"] >= 1
        assert pool_stats["cautious"] is True
        assert pool_stats["degraded"] is False  # innocents kept succeeding

    def test_kill_fault_poisons_exactly_the_chasing_job(
            self, no_ambient_faults):
        # kill:chase_truncate fires only on null-creating chase firings;
        # only the POISON job ever chases into nulls, so only its workers
        # die — deterministically, attempt after attempt, until quarantine.
        budget = Budget(faults=parse_faults("kill:chase_truncate:@1"))
        report = evaluate_batch(
            HAND, mixed_jobs(4), workers=2, budget=budget,
            retry=RetryPolicy(max_attempts=5, max_crashes=2))
        r = report.results[POISON]
        assert r.status == "quarantined"
        innocents = [x for x in report.results if x.index != POISON]
        assert all(x.status == "ok" for x in innocents)
        assert report.stats["resilience"]["pool"]["pool_deaths"] >= 2

    def test_quarantine_signatures_match_across_worker_counts(
            self, monkeypatch):
        real = batch_mod._execute_job

        def serial_poison(index, job, onto, budget, options, cache):
            if index == POISON:
                raise RuntimeError("always dies")
            return real(index, job, onto, budget, options, cache)

        policy = RetryPolicy(max_attempts=5, max_crashes=2)
        monkeypatch.setattr(batch_mod, "_execute_job", serial_poison)
        serial = evaluate_batch(HAND, mixed_jobs(4), workers=1, retry=policy)
        clear_caches()
        monkeypatch.setattr(batch_mod, "_run_job", _sigkill_poison_run_job)
        parallel = evaluate_batch(HAND, mixed_jobs(4), workers=2,
                                  retry=policy)
        assert serial.signatures() == parallel.signatures()
        assert serial.comparable_dict() == parallel.comparable_dict()


class TestJournalResume:
    def test_resume_skips_journaled_jobs_and_merges(self, tmp_path):
        jobs = mixed_jobs(5)
        ref = evaluate_batch(HAND, jobs, journal=tmp_path / "ref.jsonl")
        # Simulate a batch killed after 2 finished jobs: keep the schema
        # header, the batch header and the first two result lines.
        lines = (tmp_path / "ref.jsonl").read_text().splitlines(True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:4]))
        clear_caches()
        resumed = evaluate_batch(HAND, jobs, journal=partial, resume=True)
        assert resumed.comparable_dict() == ref.comparable_dict()
        assert sum(1 for r in resumed.results if r.resumed) == 2
        assert resumed.stats["resilience"]["resumed"] == 2
        assert "2 resumed from journal" in resumed.render_text()
        # The journal now holds the full batch: a second resume replays all.
        clear_caches()
        again = evaluate_batch(HAND, jobs, journal=partial, resume=True)
        assert all(r.resumed for r in again.results)
        assert again.comparable_dict() == ref.comparable_dict()

    def test_resume_tolerates_torn_tail(self, tmp_path):
        jobs = mixed_jobs(4)
        path = tmp_path / "j.jsonl"
        evaluate_batch(HAND, jobs, journal=path)
        lines = path.read_text().splitlines(True)
        # Keep the schema + batch headers + one full result, then a torn
        # half-record.
        path.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        clear_caches()
        resumed = evaluate_batch(HAND, jobs, journal=path, resume=True)
        assert sum(1 for r in resumed.results if r.resumed) == 1
        assert resumed.ok

    def test_resume_rejects_foreign_ontology(self, tmp_path):
        other = ontology("forall x (Cat(x) -> Animal(x))")
        path = tmp_path / "j.jsonl"
        evaluate_batch(HAND, mixed_jobs(2), journal=path)
        with pytest.raises(ValueError, match="different ontology"):
            evaluate_batch(other, mixed_jobs(2), journal=path, resume=True)

    def test_journal_keys_are_content_addressed(self, tmp_path):
        # Same index, different job content: the journaled result must not
        # be replayed for the changed job.
        path = tmp_path / "j.jsonl"
        evaluate_batch(HAND, mixed_jobs(3), journal=path)
        changed = mixed_jobs(3)
        changed[2] = Job(query="q() <- Thumb(y)", facts=("Hand(zz)",),
                         job_id="new")
        clear_caches()
        resumed = evaluate_batch(HAND, changed, journal=path, resume=True)
        assert [r.resumed for r in resumed.results] == [True, True, False]
        assert resumed.ok

    def test_fresh_journal_truncates_stale_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind":"header","ontology":"stale"}\n')
        report = evaluate_batch(HAND, mixed_jobs(2), journal=path)
        assert report.ok
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "journal-header"
        batch_header = json.loads(lines[1])
        assert batch_header["ontology"] != "stale"


def _write_cli_fixtures(tmp_path, n_jobs=6, poison_at=3):
    """An ontology file and a workload whose *poison_at* job makes three
    null-creating chase firings (so ``kill:chase_truncate:@3`` kills
    exactly that job's process) while every other job makes at most one."""
    onto_path = tmp_path / "hand.gf"
    onto_path.write_text(HAND_TEXT)
    entries = []
    for i in range(n_jobs):
        if i == poison_at:
            entries.append({"query": "q(y) <- Digit(y)", "id": "poison",
                            "facts": ["Hand(a)", "Hand(b)", "Hand(c)"]})
        else:
            entries.append({"query": "q(x) <- Hand(x)", "id": f"j{i}",
                            "facts": [f"Hand(h{i})"]})
    workload = tmp_path / "jobs.json"
    workload.write_text(json.dumps(entries))
    return onto_path, workload


def _run_cli(args, tmp_path, faults=None):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_BUDGET", None)
    env.pop("REPRO_TIMEOUT", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "batch", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)


class TestCrashResumeEndToEnd:
    """The acceptance scenario: a serial batch hard-killed mid-run by a
    ``kill:`` fault resumes from its journal and matches the fault-free
    run's comparable report."""

    def test_kill_fault_resume_round_trip(self, tmp_path):
        onto_path, workload = _write_cli_fixtures(tmp_path)
        budget = ["--budget", "nulls=600,chase_steps=600,conflicts=600"]
        common = [str(onto_path), "--workload", str(workload), *budget]

        reference = _run_cli([*common, "--format", "json"], tmp_path)
        assert reference.returncode == 0, reference.stderr
        ref_report = json.loads(reference.stdout)

        journal = tmp_path / "batch.jsonl"
        killed = _run_cli([*common, "--journal", str(journal)], tmp_path,
                          faults="kill:chase_truncate:@3")
        assert killed.returncode == KILL_EXIT_CODE
        assert "injected kill at fault site 'chase_truncate'" in killed.stderr
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        finished = [r for r in records if r.get("kind") == "result"]
        assert records[0]["kind"] == "journal-header"
        assert records[1]["kind"] == "header"
        assert 1 <= len(finished) < 6  # died mid-batch, progress persisted

        resumed = _run_cli(
            [*common, "--journal", str(journal), "--resume",
             "--format", "json"], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        res_report = json.loads(resumed.stdout)
        assert comparable_report(res_report) == comparable_report(ref_report)
        replayed = [j for j in res_report["jobs"] if j.get("resumed")]
        assert len(replayed) == len(finished)

    def test_resume_without_journal_is_an_input_error(self, tmp_path):
        onto_path, workload = _write_cli_fixtures(tmp_path, n_jobs=2,
                                                  poison_at=99)
        proc = _run_cli([str(onto_path), "--workload", str(workload),
                         "--resume"], tmp_path)
        assert proc.returncode == 2
        assert "--resume requires --journal" in proc.stderr

    def test_bad_retry_spec_is_an_input_error(self, tmp_path):
        onto_path, workload = _write_cli_fixtures(tmp_path, n_jobs=2,
                                                  poison_at=99)
        proc = _run_cli([str(onto_path), "--workload", str(workload),
                         "--retry", "lives=9"], tmp_path)
        assert proc.returncode == 2
        assert "unknown retry key" in proc.stderr
