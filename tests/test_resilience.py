"""Unit coverage for repro.resilience: retry policies, the crash-safe
journal, the retrying supervisor and the self-healing pool facade."""

import json

import pytest

from repro.resilience import (
    AttemptOutcome, Journal, JournalError, PoolSupervisor, RetryPolicy,
    Supervisor, Task, replay_journal,
)


class TestRetryPolicy:
    def test_defaults_validate(self):
        p = RetryPolicy()
        assert p.max_attempts == 3 and p.max_crashes == 3

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_crashes=0)
        with pytest.raises(ValueError):
            RetryPolicy(escalation=0)

    def test_none_policy_never_retries_never_quarantines(self):
        p = RetryPolicy.none()
        assert p.max_attempts == 1
        assert p.max_crashes > 10 ** 6  # quarantine can never fire

    def test_escalation_schedule(self):
        p = RetryPolicy(escalation=3.0)
        assert p.escalation_for(1) == 1.0
        assert p.escalation_for(2) == 3.0
        assert p.escalation_for(3) == 9.0

    def test_from_spec_round_trip(self):
        p = RetryPolicy.from_spec("attempts=5, escalation=4, crashes=2")
        assert p == RetryPolicy(max_attempts=5, escalation=4.0,
                                max_crashes=2)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="key=value"):
            RetryPolicy.from_spec("attempts")
        with pytest.raises(ValueError, match="unknown retry key"):
            RetryPolicy.from_spec("lives=9")
        with pytest.raises(ValueError, match="bad number"):
            RetryPolicy.from_spec("attempts=three")
        # Retries never wait, so no key sets a wait.
        for spec in ("backoff=0.05", "factor=2", "max_backoff=2",
                     "jitter=0.1", "seed=7"):
            with pytest.raises(ValueError, match=(
                    r"unknown retry key .*\(expected one of attempts, "
                    r"escalation, crashes\)")):
                RetryPolicy.from_spec(spec)


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"kind": "header", "n": 2})
            j.append({"kind": "result", "key": "a"})
        replay = replay_journal(path)
        assert [r["kind"] for r in replay.records] == ["header", "result"]
        assert not replay.corrupt_tail
        assert replay.valid_bytes == path.stat().st_size

    def test_missing_file_is_empty_replay(self, tmp_path):
        replay = replay_journal(tmp_path / "never.jsonl")
        assert replay.records == [] and not replay.corrupt_tail

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"ok": 1})
        # Simulate a crash mid-append: a partial second line, no newline.
        with open(path, "ab") as fh:
            fh.write(b'{"ok": 2, "tru')
        replay = replay_journal(path)
        assert [r["ok"] for r in replay.records] == [1]
        assert replay.corrupt_tail

    def test_unterminated_but_parseable_tail_is_torn(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"ok": 1}\n{"ok": 2}')  # no final newline
        replay = replay_journal(path)
        assert [r["ok"] for r in replay.records] == [1]
        assert replay.corrupt_tail

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"ok": 1}\ngarbage!!\n{"ok": 3}\n')
        with pytest.raises(JournalError, match="corrupt journal line"):
            replay_journal(path)

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"ok": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"half')
        with Journal(path, replay=True) as j:
            assert [r["ok"] for r in j.replayed] == [1]
            assert j.corrupt_tail_dropped
            j.append({"ok": 2})
        replay = replay_journal(path)
        assert [r["ok"] for r in replay.records] == [1, 2]
        assert not replay.corrupt_tail  # the torn bytes are gone for good

    def test_fresh_journal_truncates_previous_contents(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"stale": true}\n')
        with Journal(path) as j:
            j.append({"ok": 1})
        assert [r["ok"] for r in replay_journal(path).records] == [1]

    def test_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"a": 1})
        with Journal(path, replay=True) as j:
            j.append({"b": 2})
            s = j.stats()
        assert s["appended"] == 1 and s["replayed"] == 1
        assert s["corrupt_tail_dropped"] is False

    def test_records_are_single_sorted_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"b": 2, "a": 1})
        header, line = path.read_bytes().splitlines()
        assert header == b'{"kind":"journal-header","schema":1}'
        assert line == b'{"a":1,"b":2}'
        assert json.loads(line)

    def test_fresh_journal_is_versioned_and_header_is_invisible(
            self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"a": 1})
            assert j.records_written == 1  # the header never counts
        replay = replay_journal(path)
        assert replay.versioned
        # The header is consumed by replay, never surfaced as a record.
        assert replay.records == [{"a": 1}]
        with Journal(path, replay=True) as j:
            assert j.replayed == [{"a": 1}]

    def test_replay_rejects_newer_schema_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind":"journal-header","schema":999}\n'
                        '{"a":1}\n')
        with pytest.raises(JournalError,
                           match="schema version 999.*not.*supported"):
            replay_journal(path)
        path.write_text('{"kind":"journal-header"}\n')  # missing entirely
        with pytest.raises(JournalError, match="schema version None"):
            replay_journal(path)

    def test_legacy_headerless_journal_still_replays(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n')
        replay = replay_journal(path)
        assert not replay.versioned
        assert replay.records == [{"a": 1}, {"b": 2}]
        # Resuming never injects a header mid-file: the header must be
        # the first line, so the legacy file is appended to as-is.
        with Journal(path, replay=True) as j:
            assert len(j.replayed) == 2
            j.append({"c": 3})
        assert not replay_journal(path).versioned
        assert len(replay_journal(path).records) == 3

    def test_header_record_after_line_one_is_an_ordinary_record(
            self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.append({"kind": "journal-header", "schema": 1})
        # Only offset 0 is the file-format header; a caller record that
        # merely looks like one replays normally.
        assert replay_journal(path).records == [
            {"kind": "journal-header", "schema": 1}]


def wave_script(*outcomes_by_attempt):
    """An execute_wave whose attempt-k outcome for a key is scripted:
    outcomes_by_attempt[k-1] maps key -> (status, reason)."""
    def execute(tasks):
        outs = []
        for task in tasks:
            status, reason = outcomes_by_attempt[task.attempt - 1][task.key]
            outs.append(AttemptOutcome(task, status, result=f"r{task.key}",
                                       reason=reason))
        return outs
    return execute


class TestSupervisor:
    def test_ok_first_attempt_is_done(self):
        sup = Supervisor(RetryPolicy(), wave_script({"a": ("ok", "")}))
        finals = sup.run(["a"])
        assert finals["a"].disposition == "done"
        assert len(finals["a"].attempts) == 1
        assert sup.stats() == {"retries": 0, "crashes": 0, "quarantined": 0}

    def test_error_is_terminal_not_retried(self):
        sup = Supervisor(RetryPolicy(), wave_script({"a": ("error", "bad")}))
        finals = sup.run(["a"])
        assert finals["a"].disposition == "done"
        assert sup.retries == 0

    def test_unknown_retries_then_succeeds(self):
        sup = Supervisor(
            RetryPolicy(max_attempts=3),
            wave_script({"a": ("unknown", "starved")}, {"a": ("ok", "")}))
        finals = sup.run(["a"])
        assert finals["a"].disposition == "done"
        assert [a.status for a in finals["a"].attempts] == ["unknown", "ok"]
        assert finals["a"].attempts[1].escalation == 2.0  # default policy
        assert sup.retries == 1

    def test_unknown_exhausts_after_max_attempts(self):
        script = [{"a": ("unknown", "starved")}] * 2
        sup = Supervisor(RetryPolicy(max_attempts=2),
                         wave_script(*script))
        finals = sup.run(["a"])
        assert finals["a"].disposition == "exhausted"
        assert len(finals["a"].attempts) == 2

    def test_crashes_reach_quarantine(self):
        script = [{"a": ("crash", "sig")}] * 3
        sup = Supervisor(
            RetryPolicy(max_attempts=5, max_crashes=3),
            wave_script(*script))
        finals = sup.run(["a"])
        assert finals["a"].disposition == "quarantined"
        assert sup.crashes == 3 and sup.quarantined == 1

    def test_crash_without_quarantine_is_crashed(self):
        script = [{"a": ("crash", "sig")}] * 2
        sup = Supervisor(
            RetryPolicy(max_attempts=2, max_crashes=5),
            wave_script(*script))
        assert sup.run(["a"])["a"].disposition == "crashed"

    def test_no_retry_policy_crash_is_crashed_not_quarantined(self):
        sup = Supervisor(None, wave_script({"a": ("crash", "sig")}))
        assert sup.run(["a"])["a"].disposition == "crashed"

    def test_on_final_fires_per_job_as_decided(self):
        order = []
        script = [{"a": ("ok", ""), "b": ("unknown", "")},
                  {"b": ("ok", "")}]
        sup = Supervisor(
            RetryPolicy(max_attempts=2), wave_script(*script),
            on_final=lambda key, final: order.append(
                (key, final.disposition)))
        sup.run(["a", "b"])
        assert order == [("a", "done"), ("b", "done")]

    def test_mixed_batch_dispositions(self):
        script = [{"a": ("ok", ""), "b": ("crash", "x"), "c": ("error", "e")},
                  {"b": ("crash", "x")}]
        sup = Supervisor(
            RetryPolicy(max_attempts=3, max_crashes=2),
            wave_script(*script))
        finals = sup.run(["a", "b", "c"])
        assert finals["a"].disposition == "done"
        assert finals["b"].disposition == "quarantined"
        assert finals["c"].disposition == "done"


def _double(payload):
    return payload * 2


def _raise_on_odd(payload):
    if payload % 2:
        raise ValueError(f"odd {payload}")
    return payload * 2


class TestPoolSupervisor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PoolSupervisor(_double, 0)

    def test_runs_a_wave_through_real_processes(self):
        with PoolSupervisor(_double, 2) as pool:
            out = dict((k, (kind, v))
                       for k, kind, v in pool.run_wave([(0, 3), (1, 4)]))
        assert out == {0: ("result", 6), 1: ("result", 8)}
        assert pool.stats() == {"pool_deaths": 0, "rebuilds": 0,
                                "cautious": False, "degraded": False}

    def test_worker_exception_is_a_crash_not_a_pool_death(self):
        with PoolSupervisor(_raise_on_odd, 2) as pool:
            out = {k: (kind, v)
                   for k, kind, v in pool.run_wave([(0, 2), (1, 3)])}
        assert out[0] == ("result", 4)
        kind, exc = out[1]
        assert kind == "crash" and isinstance(exc, ValueError)
        assert pool.pool_deaths == 0 and not pool.cautious

    def test_degraded_mode_runs_in_driver(self):
        pool = PoolSupervisor(_raise_on_odd, 2, max_pool_deaths=1)
        pool.degraded = True  # as if the pool kept dying
        out = {k: (kind, type(v).__name__ if kind == "crash" else v)
               for k, kind, v in pool.run_wave([(0, 2), (1, 3)])}
        assert out == {0: ("result", 4), 1: ("crash", "ValueError")}
        assert pool._pool is None  # never built one

    def test_consecutive_deaths_reset_on_success(self):
        pool = PoolSupervisor(_double, 1, max_pool_deaths=2)
        pool._pool_died()
        assert pool.cautious and not pool.degraded
        assert pool.consecutive_deaths == 1
        out = pool.run_wave([(0, 5)])  # cautious single-job dispatch
        assert out == [(0, "result", 10)]
        assert pool.consecutive_deaths == 0
        pool.close()

    def test_death_threshold_degrades(self):
        pool = PoolSupervisor(_double, 1, max_pool_deaths=2)
        pool._pool_died()
        pool._pool_died()
        assert pool.degraded
        assert pool.stats()["pool_deaths"] == 2
