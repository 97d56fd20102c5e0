"""Batch evaluation: workload loading, determinism across worker counts,
budget splitting, and first-class failure (error / unknown / crash)."""

import json

import pytest

from repro.logic.ontology import ontology
from repro.runtime import Budget
from repro.serving import Job, clear_caches, evaluate_batch, load_workload
from repro.serving import batch as batch_mod

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))")

QUERIES = [
    "q(x) <- hasFinger(x,y) & Thumb(y)",
    "q(y) <- Digit(y)",
    "q() <- Thumb(y)",
    "q(x) <- Hand(x)",
]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def hand_workload(n: int = 20) -> list[Job]:
    """*n* jobs cycling through four queries over small distinct instances."""
    jobs = []
    for i in range(n):
        facts = ["Hand(h%d)" % (i % 3), "Arm(a)"]
        if i % 5 == 0:
            facts.append("Hand(extra)")
        jobs.append(Job(query=QUERIES[i % len(QUERIES)],
                        facts=tuple(facts), job_id=f"j{i}"))
    return jobs


class TestLoadWorkload:
    def test_loads_jobs_with_facts_and_data(self, tmp_path):
        (tmp_path / "db.facts").write_text("Hand(h)\n# comment\nArm(a)\n")
        workload = [
            {"query": "q(x) <- Hand(x)", "data": "db.facts"},
            {"query": "q() <- Thumb(y)", "facts": ["Hand(h)"], "id": "named"},
        ]
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(workload))
        jobs = load_workload(path)
        assert len(jobs) == 2
        assert jobs[0].data == str(tmp_path / "db.facts")  # resolved
        assert jobs[1].facts == ("Hand(h)",)
        assert jobs[1].job_id == "named"

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            load_workload(tmp_path / "nope.json")

    def test_invalid_json_raises_value_error(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_workload(path)

    def test_entry_needs_exactly_one_data_source(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(
            [{"query": "q() <- A(x)", "data": "d", "facts": ["A(a)"]}]))
        with pytest.raises(ValueError, match="exactly one"):
            load_workload(path)
        path.write_text(json.dumps([{"query": "q() <- A(x)"}]))
        with pytest.raises(ValueError, match="exactly one"):
            load_workload(path)

    def test_non_list_raises_value_error(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="non-empty JSON list"):
            load_workload(path)


class TestSerialBatch:
    def test_report_shape_and_stats(self):
        report = evaluate_batch(HAND, hand_workload(8))
        assert len(report.results) == 8
        assert report.ok
        s = report.stats
        assert s["jobs"] == 8 and s["ok"] == 8
        assert s["distinct_queries"] == 4
        assert s["cache"]["hits"] + s["cache"]["misses"] == 8
        assert s["latency"]["count"] == 8
        assert "wall_seconds" in s
        assert s["conversion_cache"]["misses"] >= 1

    def test_repeated_instances_hit_the_answer_cache(self, cacheable):
        jobs = [Job(query=QUERIES[0], facts=("Hand(h)",))] * 4
        report = evaluate_batch(HAND, jobs)
        # Every job after the first definitive answer is a hit.
        cached = False
        for result in report.results:
            assert result.cache_hit == cached
            cached = cached or cacheable(result.outcome)
        hits = sum(r.cache_hit for r in report.results)
        assert report.stats["cache"]["hits"] == hits
        assert [r.answers for r in report.results] == [(("h",),)] * 4

    def test_results_keep_job_order(self):
        report = evaluate_batch(HAND, hand_workload(12))
        assert [r.index for r in report.results] == list(range(12))
        assert [r.job_id for r in report.results] == [
            f"j{i}" for i in range(12)]

    def test_missing_data_file_is_an_error_job(self, tmp_path):
        jobs = [Job(query=QUERIES[0], facts=("Hand(h)",)),
                Job(query=QUERIES[0], data=str(tmp_path / "gone.facts"))]
        report = evaluate_batch(HAND, jobs)
        assert report.results[0].status == "ok"
        assert report.results[1].status == "error"
        assert report.results[1].reason.startswith("data:")
        assert not report.ok
        assert report.stats["error"] == 1

    def test_malformed_query_is_an_error_job(self):
        jobs = [Job(query="this is not a query", facts=("Hand(h)",))]
        report = evaluate_batch(HAND, jobs)
        assert report.results[0].status == "error"
        assert report.results[0].reason.startswith("query:")

    def test_empty_workload(self):
        report = evaluate_batch(HAND, [])
        assert report.results == [] and report.ok
        assert report.stats["jobs"] == 0

    def test_render_text_summary_line(self):
        report = evaluate_batch(HAND, hand_workload(4))
        text = report.render_text()
        assert "batch: 4 job(s), 4 ok / 0 unknown / 0 error" in text
        assert text.count("\n") == 4  # one line per job + summary


class TestOptionCheck:
    @pytest.mark.parametrize("options", [
        {"backend": "bogus"}, {"preflight": "no"}, {"chase_depth": "abc"},
        {"chase_depth": -1}, {"chase_depth": True}, {"sat_extra": -5},
        {"fastpath": "force"}, {"depth": 6},
    ])
    def test_malformed_option_raises_before_any_job(
            self, monkeypatch, tmp_path, options):
        ran = []
        monkeypatch.setattr(batch_mod, "_execute_job",
                            lambda *args: ran.append(args))
        journal = tmp_path / "batch.jsonl"
        with pytest.raises(ValueError):
            evaluate_batch(HAND, hand_workload(2), journal=str(journal),
                           **options)
        assert ran == [] and not journal.exists()


class TestParallelBatch:
    def test_jobs1_equals_jobs2_on_20_job_workload(self):
        jobs = hand_workload(20)
        serial = evaluate_batch(HAND, jobs, workers=1)
        clear_caches()
        parallel = evaluate_batch(HAND, jobs, workers=2)
        assert serial.signatures() == parallel.signatures()
        assert parallel.stats["workers"] == 2
        assert parallel.ok

    def test_worker_crash_becomes_unknown_result(self, monkeypatch):
        # fork start method propagates the monkeypatch into workers
        def boom(payload):
            raise RuntimeError("induced crash")

        monkeypatch.setattr(batch_mod, "_run_job", boom)
        jobs = hand_workload(3)
        report = evaluate_batch(HAND, jobs, workers=2)
        assert len(report.results) == 3
        assert all(r.status == "unknown" for r in report.results)
        assert all("worker crashed" in r.reason for r in report.results)
        assert not report.ok
        assert report.stats["unknown"] == 3

    def test_serial_crash_becomes_unknown_result(self, monkeypatch):
        # workers=1 honors the same contract as the pool: an unexpected
        # crash takes down only its own job, never the batch.
        def boom(*args, **kwargs):
            raise RuntimeError("induced crash")

        monkeypatch.setattr(batch_mod, "_execute_job", boom)
        jobs = hand_workload(3)
        report = evaluate_batch(HAND, jobs, workers=1)
        assert len(report.results) == 3
        assert all(r.status == "unknown" for r in report.results)
        assert all("worker crashed" in r.reason for r in report.results)
        assert not report.ok

    def test_ctrl_c_aborts_the_batch(self, monkeypatch):
        # KeyboardInterrupt must propagate out of the pool-draining loop,
        # not drain into per-job "worker crashed" results.
        def interrupted(data):
            raise KeyboardInterrupt

        monkeypatch.setattr(batch_mod, "_result_from_dict", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluate_batch(HAND, hand_workload(2), workers=2)


class TestBudgetedBatch:
    def test_budget_split_across_jobs(self):
        b = Budget(timeout=60, conflicts=90, escalate=True)
        parts = b.split(3)
        assert len(parts) == 3
        for part in parts:
            assert part.max_conflicts == 30
            assert part.escalate
            assert 0 < part.timeout <= 20.5
        with pytest.raises(ValueError):
            b.split(0)

    def test_split_floors_counters_at_one(self):
        parts = Budget(chase_steps=2).split(8)
        assert all(p.max_chase_steps == 1 for p in parts)

    def test_to_kwargs_round_trip(self):
        b = Budget(timeout=10, nulls=5, escalate=False)
        clone = Budget(**b.to_kwargs())
        assert clone.max_nulls == 5 and clone.escalate is False
        assert clone.timeout == pytest.approx(10, abs=1)

    def test_to_kwargs_carries_fault_plan(self, no_ambient_faults):
        from repro.runtime import FaultPlan, FaultSpec
        b = Budget(faults=FaultPlan([FaultSpec("deadline", at=2)]))
        clone = Budget(**b.to_kwargs())
        assert clone.faults is not None and clone.faults is not b.faults
        assert clone.faults.specs["deadline"].at == 2
        assert clone.faults.hits == {"deadline": 0}  # counters restart

    def test_serial_jobs_each_get_their_full_share(self, no_ambient_faults):
        # Child deadlines anchor when the job starts, so with workers=1
        # job k is not already expired by the time jobs 0..k-1 finish.
        jobs = hand_workload(6)
        report = evaluate_batch(HAND, jobs, workers=1,
                                budget=Budget(timeout=30, escalate=False))
        assert report.ok

    def test_programmatic_faults_survive_worker_boundary(
            self, no_ambient_faults):
        # A FaultPlan supplied in code (not via REPRO_FAULTS) must reach
        # pool workers, so --jobs 1 and --jobs N agree under injection.
        from repro.runtime import FaultPlan, FaultSpec
        jobs = hand_workload(4)

        def run(workers):
            clear_caches()
            budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]),
                            escalate=False)
            return evaluate_batch(HAND, jobs, workers=workers, budget=budget)

        serial, parallel = run(1), run(2)
        assert all(r.status == "unknown" for r in serial.results)
        assert serial.signatures() == parallel.signatures()

    def test_starved_batch_reports_unknown_not_wrong(self, no_ambient_faults):
        from repro.runtime import FaultPlan, FaultSpec
        jobs = hand_workload(4)
        budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]),
                        escalate=False)
        report = evaluate_batch(HAND, jobs, budget=budget)
        assert all(r.status == "unknown" for r in report.results)
        assert report.stats["unknown"] == 4
        assert not report.ok


class TestUnderFaultInjection:
    def test_workers_agree_under_chase_truncation(self, monkeypatch):
        import repro.runtime.faults as faults
        monkeypatch.setattr(faults, "_cache", None)
        monkeypatch.setenv("REPRO_FAULTS", "chase_truncate")
        jobs = hand_workload(6)
        serial = evaluate_batch(HAND, jobs, workers=1)
        clear_caches()
        parallel = evaluate_batch(HAND, jobs, workers=2)
        assert serial.signatures() == parallel.signatures()
        assert serial.ok and parallel.ok
