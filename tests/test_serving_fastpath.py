"""The dichotomy-aware datalog fast path: gate decisions, ladder parity,
path accounting in EvalResult / BatchReport, and budget behaviour."""

from pathlib import Path

import pytest

from repro.chaos.generate import WorkloadSpec, generate_workload
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.runtime import Budget
from repro.serving import Job, clear_caches, compile_omq, evaluate_batch
from repro.serving.plan import BAND_HARD, BAND_PTIME, classify_band

PROP = ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))", name="prop")
PROP_Q = "q(x) <- A(x)"

DISJ = ontology(
    "forall x (x = x -> (A(x) -> ~B(x)))\n"
    "forall x,y (R(x,y) -> (A(x) -> A(y)))")

NON_HORN = ontology(
    "forall x (x = x -> (Coin(x) -> Heads(x) | Tails(x)))")

TRIVIAL = ontology("forall x (x = x -> A(x))")

DATA = make_instance("A(a)", "R(a,b)", "R(b,c)", "C(island)")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestGate:
    def test_off_is_the_default(self):
        plan = compile_omq(PROP, PROP_Q)
        assert plan.plan_kind == "ladder"
        assert plan.program is None

    def test_auto_accepts_ptime_horn_omq(self):
        plan = compile_omq(PROP, PROP_Q, fastpath="auto")
        assert plan.plan_kind == "datalog-fastpath"
        assert plan.fastpath_reason == ""
        assert plan.program is not None
        assert plan.strata
        assert plan.program_report.admissible

    def test_non_horn_refused_with_reason(self):
        plan = compile_omq(NON_HORN, "q(x) <- Heads(x)", fastpath="auto")
        assert plan.plan_kind == "ladder"
        assert "Horn" in plan.fastpath_reason

    def test_force_skips_the_static_ptime_proof(self):
        # Nothing skips the static PTIME proof: outside the PTIME band the
        # rewriting over-approximates, so "force" is refused outright.
        for onto, query in ((NON_HORN, "q(x) <- Heads(x)"), (PROP, PROP_Q)):
            with pytest.raises(ValueError, match="off or auto"):
                compile_omq(onto, query, fastpath="force")

    def test_trivial_omq_refused(self):
        plan = compile_omq(TRIVIAL, "q(x) <- A(x)", fastpath="auto")
        assert plan.plan_kind == "ladder"
        assert "trivially-certain" in plan.fastpath_reason

    def test_boolean_query_refused(self):
        plan = compile_omq(PROP, "q() <- A(x)", fastpath="auto")
        assert plan.plan_kind == "ladder"
        assert plan.fastpath_reason

    def test_ucq_refused(self):
        plan = compile_omq(PROP, "q(x) <- A(x) ; q(x) <- B(x)",
                           fastpath="auto")
        assert plan.plan_kind == "ladder"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            compile_omq(PROP, PROP_Q, fastpath="yes-please")

    def test_memo_keys_separate_modes(self):
        ladder = compile_omq(PROP, PROP_Q)
        fast = compile_omq(PROP, PROP_Q, fastpath="auto")
        assert ladder is not fast
        assert compile_omq(PROP, PROP_Q, fastpath="auto") is fast

    def test_describe_reports_fastpath_facts(self):
        plan = compile_omq(PROP, PROP_Q, fastpath="auto")
        d = plan.describe()
        assert d["plan_kind"] == "datalog-fastpath"
        assert d["program_rules"] > 0
        assert d["program_strata"] >= 1
        refused = compile_omq(NON_HORN, "q(x) <- Heads(x)", fastpath="auto")
        assert refused.describe()["fastpath_reason"]


class TestLadderParity:
    """Satellite 3: fast-path answers must equal the escalation ladder's."""

    INSTANCES = [
        DATA,
        make_instance("A(a)"),
        make_instance("R(a,b)", "R(b,c)"),  # nothing certain
        make_instance("A(x)", "R(x,x)"),    # self-loop
        make_instance(),                     # empty instance
    ]

    def test_prop_answers_match_ladder(self):
        fast = compile_omq(PROP, PROP_Q, fastpath="auto")
        ladder = compile_omq(PROP, PROP_Q)
        assert fast.plan_kind == "datalog-fastpath"
        for D in self.INSTANCES:
            rf, rl = fast.evaluate(D), ladder.evaluate(D)
            assert rf.verdict == rl.verdict == "ok"
            assert set(rf.answers) == set(rl.answers), D
            assert rf.path == "fastpath" and rl.path == "ladder"
            assert rf.definitive and rl.definitive

    def test_fastpath_outcome_is_definitive_datalog(self):
        fast = compile_omq(PROP, PROP_Q, fastpath="auto")
        result = fast.evaluate(DATA)
        assert result.outcome["engine"] == "datalog"
        assert result.outcome["definitive"] is True
        assert "Theorem 5" in result.outcome["reason"]

    def test_inconsistent_instance_everything_certain(self):
        fast = compile_omq(DISJ, "q(x) <- A(x)", fastpath="auto")
        ladder = compile_omq(DISJ, "q(x) <- A(x)")
        assert fast.plan_kind == "datalog-fastpath"
        D = make_instance("A(a)", "B(a)", "C(z)")
        rf, rl = fast.evaluate(D), ladder.evaluate(D)
        assert set(rf.answers) == set(rl.answers) == {("a",), ("z",)}

    def test_result_to_dict_records_path(self):
        fast = compile_omq(PROP, PROP_Q, fastpath="auto")
        assert fast.evaluate(DATA).to_dict()["path"] == "fastpath"


def _example(name):
    path = Path(__file__).resolve().parents[1] / "examples" / "ontologies"
    return ontology((path / f"{name}.gf").read_text(), name=name)


def _chaos(seed, family, rate):
    return generate_workload(WorkloadSpec(
        seed=seed, family=family, jobs=5, instance_size=4, domain_size=3,
        inconsistency_rate=rate)).ontology()


BAND_CORPUS = {
    "clinic": lambda: _example("clinic"),
    "transport": lambda: _example("transport"),
    "university": lambda: _example("university"),
    "chaos-horn-1": lambda: _chaos(1, "horn", 0.0),
    "chaos-horn-4": lambda: _chaos(4, "horn", 0.0),
    "chaos-disjunctive-1": lambda: _chaos(1, "disjunctive", 0.3),
    "chaos-disjunctive-6": lambda: _chaos(6, "disjunctive", 0.3),
    "non-horn": lambda: NON_HORN,
    "counting": lambda: ontology(
        "forall x (A(x) -> exists>=2 y (R(x,y) & B(y)))\n"
        "forall x,y (R(x,y) -> C(y))"),
}


class TestStaticProof:
    """The ``auto`` gate's static step is :func:`classify_band`: it refuses
    exactly the ``hard`` band, with the band's own detail."""

    @pytest.mark.parametrize("name", sorted(BAND_CORPUS))
    def test_gate_refusal_agrees_with_classify_band(self, name,
                                                    monkeypatch):
        import repro.core.rewriting as rewriting

        class StopAfterStaticProof:
            def __init__(self, *args, **kwargs):
                raise ValueError("stopped after the static proof")

        # The steps after the static proof are tested above; stopping here
        # keeps the type enumeration out of this test.
        monkeypatch.setattr(rewriting, "TypeRewriting", StopAfterStaticProof)
        onto = BAND_CORPUS[name]()
        unary = min(p for p, k in onto.sig().items() if k == 1)
        plan = compile_omq(onto, f"q(x) <- {unary}(x)", fastpath="auto")
        band, detail = classify_band(onto)
        assert band in (BAND_PTIME, BAND_HARD)
        assert plan.plan_kind == "ladder"
        if band == BAND_HARD:
            assert plan.fastpath_reason == detail
        else:
            assert plan.fastpath_reason == (
                "type rewriting not constructible: "
                "stopped after the static proof")

    def test_corpus_covers_both_bands_and_both_hard_reasons(self):
        verdicts = {classify_band(make()) for make in BAND_CORPUS.values()}
        assert {band for band, _ in verdicts} == {BAND_PTIME, BAND_HARD}
        details = {detail for band, detail in verdicts if band == BAND_HARD}
        assert any("outside the DICHOTOMY band" in d for d in details)
        assert any("not Horn" in d for d in details)


class TestPathAccounting:
    def test_cache_hit_reports_cache_path(self):
        from repro.serving import AnswerCache

        plan, cache = compile_omq(PROP, PROP_Q, fastpath="auto"), AnswerCache()
        assert plan.evaluate(DATA, cache=cache).path == "fastpath"
        assert plan.evaluate(DATA, cache=cache).path == "cache"

    def test_fastpath_metrics_counters(self):
        plan = compile_omq(PROP, PROP_Q, fastpath="auto")
        result = plan.evaluate(DATA)
        assert result.path == "fastpath"
        assert result.outcome["engine"] == "datalog"

    def test_batch_counts_paths(self):
        jobs = [Job(query=PROP_Q, facts=("A(a)", "R(a,b)"), job_id="fast1"),
                Job(query=PROP_Q, facts=("A(a)", "R(a,b)"), job_id="repeat"),
                Job(query="q() <- A(x)", facts=("A(a)",), job_id="boolean")]
        report = evaluate_batch(PROP, jobs, fastpath="auto")
        paths = report.stats["paths"]
        assert paths.get("fastpath", 0) >= 1
        assert paths.get("ladder", 0) >= 1
        by_id = {r.job_id: r for r in report.results}
        assert by_id["fast1"].path == "fastpath"
        assert by_id["boolean"].path == "ladder"

    def test_batch_default_stays_on_ladder(self):
        jobs = [Job(query=PROP_Q, facts=("A(a)",), job_id="j0")]
        report = evaluate_batch(PROP, jobs)
        assert report.stats["paths"] == {"ladder": 1}

    def test_job_result_round_trips_path(self):
        from repro.serving.batch import _result_from_dict

        jobs = [Job(query=PROP_Q, facts=("A(a)",), job_id="j0")]
        report = evaluate_batch(PROP, jobs, fastpath="auto")
        r = report.results[0]
        clone = _result_from_dict(r.to_dict())
        assert clone.path == r.path == "fastpath"

    def test_legacy_result_dict_defaults_to_ladder(self):
        from repro.serving.batch import _result_from_dict

        jobs = [Job(query=PROP_Q, facts=("A(a)",), job_id="j0")]
        report = evaluate_batch(PROP, jobs)
        payload = report.results[0].to_dict()
        payload.pop("path")
        assert _result_from_dict(payload).path == "ladder"


class TestBudget:
    def test_starved_fastpath_returns_unknown(self):
        plan = compile_omq(PROP, PROP_Q, fastpath="auto")
        result = plan.evaluate(DATA, budget=Budget(timeout=0.0))
        assert result.verdict == "unknown"
        assert result.path == "fastpath"
        assert not result.definitive

    def test_generous_budget_unaffected(self):
        plan = compile_omq(PROP, PROP_Q, fastpath="auto")
        result = plan.evaluate(DATA, budget=Budget(timeout=60.0))
        assert result.verdict == "ok"
