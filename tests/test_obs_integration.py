"""Integration tests: tracing through the engine stack, the batch process
boundary, the CLI surface and per-phase budget timings."""

import json

import pytest

from repro.cli import main
from repro.datalog.engine import evaluate as datalog_evaluate
from repro.datalog.program import Program, parse_rule
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.obs import Tracer, load_trace, summarize_spans
from repro.runtime import Budget
from repro.runtime.faults import parse_faults
from repro.semantics.certain import CertainEngine
from repro.serving import Job, clear_caches, evaluate_batch

DISJ_ONTO = ontology(
    "forall x (Patient(x) -> Person(x))\n"
    "forall x,y (TreatedBy(x,y) -> Clinician(y))\n"
    "forall x (Patient(x) -> exists y (TreatedBy(x,y)))\n"
    "forall x (Clinician(x) -> Doctor(x) | Nurse(x))\n"
    "forall x (Doctor(x) -> ~Nurse(x))",
    name="clinic")


def distinct_jobs():
    """All-distinct (query, instance) pairs: answer-cache hit patterns are
    then identical between a shared serial cache and per-worker caches,
    which is what makes 1-vs-N span parity exact."""
    return [
        Job(query="q() <- TreatedBy(x,y)", facts=("Patient(p1)",), job_id="a"),
        Job(query="q(x) <- Person(x)",
            facts=("Patient(p2)", "Patient(p3)"), job_id="b"),
        Job(query="q() <- Doctor(c1)", facts=("Clinician(c1)",), job_id="c"),
        Job(query="q(y) <- TreatedBy(x,y)",
            facts=("TreatedBy(p4,c2)",), job_id="d"),
    ]


# -- engine span coverage -----------------------------------------------------


def test_engine_run_produces_chase_and_ladder_spans(no_ambient_faults):
    tracer = Tracer()
    engine = CertainEngine(DISJ_ONTO)
    data = make_instance("Patient(p)")
    from repro.queries.cq import parse_cq
    with tracer.activate():
        assert engine.entails(data, parse_cq("q() <- TreatedBy(x,y)"), ())
    counts = tracer.counts()
    assert counts.get("certain.decide", 0) >= 1
    assert counts.get("rung.chase", 0) >= 1
    assert counts.get("chase", 0) >= 1


def test_sat_escalation_produces_sat_and_cdcl_spans(no_ambient_faults):
    # chase_truncate forces depth exhaustion, so the ladder escalates into
    # the SAT engine: the trace must show the whole path.
    tracer = Tracer()
    engine = CertainEngine(DISJ_ONTO)
    data = make_instance("Patient(p)")
    budget = Budget(faults=parse_faults("chase_truncate:1"))
    from repro.queries.cq import parse_cq
    with tracer.activate():
        engine.entails(data, parse_cq("q() <- TreatedBy(x,y)"), (),
                       budget=budget)
    counts = tracer.counts()
    assert counts.get("rung.sat", 0) >= 1
    assert counts.get("sat.search", 0) >= 1
    assert counts.get("cdcl.solve", 0) >= 1


def test_datalog_rounds_are_traced():
    program = Program(
        rules=(parse_rule("T(x,y) <- E(x,y)"),
               parse_rule("T(x,z) <- T(x,y) & E(y,z)"),
               parse_rule("Goal(x,y) <- T(x,y)")),
        goal="Goal")
    data = make_instance("E(a,b)", "E(b,c)", "E(c,d)")
    tracer = Tracer()
    with tracer.activate():
        datalog_evaluate(program, data)
    counts = tracer.counts()
    assert counts["datalog.evaluate"] == 1
    assert counts["datalog.round"] >= 3  # chain of length 3 + empty round
    spans = {d["name"]: d for d in tracer.to_dicts()}
    assert spans["datalog.round"]["parent_id"] == \
        spans["datalog.evaluate"]["span_id"]


def test_four_engine_coverage_in_one_merged_trace(no_ambient_faults):
    """A fault-starved batch trace merged with a Datalog run covers all
    four engines plus the ladder — the full observability surface."""
    clear_caches()
    tracer = Tracer()
    budget = Budget(faults=parse_faults("chase_truncate:1"))
    evaluate_batch(DISJ_ONTO, distinct_jobs(), budget=budget, tracer=tracer)
    program = Program(rules=(parse_rule("Goal(x) <- P(x)"),), goal="Goal")
    with tracer.activate():
        datalog_evaluate(program, make_instance("P(a)"))
    engines = summarize_spans(tracer.to_dicts())["engines"]
    for engine in ("chase", "sat", "cdcl", "datalog", "ladder", "serving"):
        assert engine in engines, f"engine {engine} missing from trace"


# -- cross-process parity -----------------------------------------------------


def test_span_counts_identical_across_worker_counts(no_ambient_faults):
    jobs = distinct_jobs()

    def run(workers):
        clear_caches()
        tracer = Tracer()
        report = evaluate_batch(DISJ_ONTO, jobs, workers=workers,
                                tracer=tracer)
        return report, tracer

    serial_report, serial_tracer = run(1)
    pool_report, pool_tracer = run(2)
    assert serial_report.signatures() == pool_report.signatures()
    assert serial_tracer.counts() == pool_tracer.counts()


def test_metrics_counters_identical_across_worker_counts(no_ambient_faults):
    jobs = distinct_jobs()

    def run(workers):
        clear_caches()
        return evaluate_batch(DISJ_ONTO, jobs, workers=workers).stats

    serial, pool = run(1), run(2)
    # The latency summary holds timings; the accounting derived from the
    # per-job results must agree exactly.
    for key in ("cache", "engines", "paths", "escalation_rungs"):
        assert serial[key] == pool[key], key
    assert serial["cache"]["misses"] == len(jobs)
    assert sum(serial["engines"].values()) == len(jobs)
    assert serial["latency"]["count"] == len(jobs)


def test_untraced_batch_stays_untraced():
    clear_caches()
    tracer = Tracer(enabled=False)
    evaluate_batch(DISJ_ONTO, distinct_jobs(), workers=1, tracer=tracer)
    assert len(tracer) == 0


def test_worker_traces_merge_under_disabled_parent_silently():
    clear_caches()
    report = evaluate_batch(DISJ_ONTO, distinct_jobs(), workers=2)
    assert report.ok


# -- failure visibility -------------------------------------------------------


def test_fault_starved_batch_yields_failed_spans_not_truncated_trace(
        tmp_path, no_ambient_faults):
    clear_caches()
    tracer = Tracer()
    budget = Budget(timeout=30, faults=parse_faults("deadline:0.5"))
    report = evaluate_batch(DISJ_ONTO, distinct_jobs(), budget=budget,
                            tracer=tracer)
    assert any(r.status == "unknown" for r in report.results)
    path = tmp_path / "trace.jsonl"
    tracer.export(path)
    spans = load_trace(path)  # loadable: complete file, never truncated
    assert len(spans) == len(tracer)
    failed = [s for s in spans if s["status"] == "failed"]
    assert failed, "budget-starved rungs must surface as failed spans"
    assert any(s["name"].startswith("rung.") for s in failed)


# -- CLI surface --------------------------------------------------------------


@pytest.fixture
def clinic_files(tmp_path):
    onto = tmp_path / "clinic.gf"
    onto.write_text(
        "forall x (Patient(x) -> Person(x))\n"
        "forall x,y (TreatedBy(x,y) -> Clinician(y))\n"
        "forall x (Patient(x) -> exists y (TreatedBy(x,y)))\n")
    data = tmp_path / "db.facts"
    data.write_text("Patient(p1)\n")
    workload = tmp_path / "jobs.json"
    workload.write_text(json.dumps([
        {"query": "q() <- TreatedBy(x,y)", "facts": ["Patient(p1)"]},
        {"query": "q(x) <- Person(x)", "facts": ["Patient(p2)"]},
    ]))
    return onto, data, workload


def test_cli_evaluate_trace_and_summarize(clinic_files, tmp_path, capsys):
    onto, data, _ = clinic_files
    trace = tmp_path / "trace.jsonl"
    assert main(["evaluate", str(onto), str(data),
                 "q() <- TreatedBy(x,y)", "--trace", str(trace)]) == 0
    assert trace.exists()
    spans = load_trace(trace)
    assert any(s["name"] == "chase" for s in spans)
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "per-engine self-time:" in out
    assert "chase" in out


def test_cli_batch_trace_covers_jobs(clinic_files, tmp_path, capsys):
    onto, _, workload = clinic_files
    clear_caches()
    trace = tmp_path / "batch.jsonl"
    assert main(["batch", str(onto), "--workload", str(workload),
                 "--trace", str(trace)]) == 0
    spans = load_trace(trace)
    names = {s["name"] for s in spans}
    assert {"batch.job", "plan.compile", "plan.evaluate",
            "certain.decide"} <= names
    assert sum(1 for s in spans if s["name"] == "batch.job") == 2
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["spans"] == len(spans)


def test_cli_trace_summarize_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["trace", "summarize", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_trace_summarize_rejects_missing_file(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_evaluate_without_trace_writes_nothing(clinic_files, tmp_path,
                                                   capsys):
    onto, data, _ = clinic_files
    assert main(["evaluate", str(onto), str(data),
                 "q() <- TreatedBy(x,y)"]) == 0
    assert not list(tmp_path.glob("*.jsonl"))


# -- per-phase timings in Outcome.usage ---------------------------------------


def test_outcome_usage_reports_phase_seconds(no_ambient_faults):
    engine = CertainEngine(DISJ_ONTO)
    data = make_instance("Patient(p)")
    from repro.queries.cq import parse_cq
    engine.entails(data, parse_cq("q() <- TreatedBy(x,y)"), (),
                   budget=Budget())
    usage = engine.last_outcome.usage
    assert usage.phases is not None
    assert usage.phases.get("chase", 0.0) > 0.0
    assert usage.to_dict()["phases"]["chase"] == pytest.approx(
        usage.phases["chase"], abs=1e-6)


def test_phases_cover_sat_after_escalation(no_ambient_faults):
    engine = CertainEngine(DISJ_ONTO)
    data = make_instance("Patient(p)")
    budget = Budget(faults=parse_faults("chase_truncate:1"))
    from repro.queries.cq import parse_cq
    engine.entails(data, parse_cq("q() <- TreatedBy(x,y)"), (),
                   budget=budget)
    phases = engine.last_outcome.usage.phases
    assert set(phases) >= {"chase", "sat"}


def test_usage_without_phases_omits_the_key():
    usage = Budget().usage()
    assert usage.phases is None
    assert "phases" not in usage.to_dict()
