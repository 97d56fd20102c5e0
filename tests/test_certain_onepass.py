"""Differential oracle for the one-pass certain-answer ladder.

``CertainEngine.certain_answers`` decides every candidate tuple of
dom(D)^arity in one escalation ladder: each chase rung runs the chase once
for all pending tuples, each SAT rung runs one countermodel search per
tuple still pending.  The reference is the loop it replaced, kept here:
one ``entails_outcome`` ladder per tuple under one shared budget, i.e. one
chase per rung *per tuple*.

Inputs are the example corpus and seeded ``repro.chaos`` workloads (Horn,
and disjunctive with inconsistent instances), under chase depths 1–2 and
escalating or counter budgets that force truncated branches and SAT rungs.

Definitive verdicts are exact, so the paths must agree on every tuple both
settled definitively.  When both paths see the same chase runs and SAT
searches — no counter budget, and no ambient ``REPRO_FAULTS`` unless the
budget carries its own fault plan — they must agree on every tuple,
definitiveness included.  Under the CI fault-injection job
(``REPRO_FAULTS=chase_truncate:0.2``) the two paths see different fault
sequences, so only the first comparison applies there.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import pytest

from repro.chaos.generate import WorkloadSpec, generate_workload
from repro.logic.instance import Interpretation, make_instance
from repro.logic.ontology import Ontology, ontology
from repro.logic.syntax import Const
from repro.obs import Tracer
from repro.queries.cq import parse_cq
from repro.runtime import Budget, Verdict
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.semantics.certain import CertainEngine
from repro.semantics.chase import answer_from_chase, chase
from repro.serving.batch import Job, evaluate_batch
from repro.serving.plan import clear_plan_cache, compile_omq, parse_query

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example(name: str, jobs) -> tuple[str, Ontology, list]:
    text = (EXAMPLES / "ontologies" / f"{name}.gf").read_text()
    return name, ontology(text, name=name), list(jobs)


def _workload_jobs(name: str) -> list[tuple[str, list[str]]]:
    raw = json.loads((EXAMPLES / "workloads" / f"{name}.json").read_text())
    return [(job["query"], job["facts"]) for job in raw]


def _chaos(seed: int, family: str, rate: float) -> tuple[str, Ontology, list]:
    wl = generate_workload(WorkloadSpec(
        seed=seed, family=family, jobs=5, instance_size=4, domain_size=3,
        inconsistency_rate=rate))
    return (f"chaos-{family}-{seed}", wl.ontology(),
            [(job["query"], job["facts"]) for job in wl.jobs])


def _corpus() -> list[tuple[str, Ontology, list]]:
    return [
        _example("clinic", _workload_jobs("smoke")),
        _example("transport", _workload_jobs("fastpath")),
        _example("university", [
            ("q(x) <- Course(x)", ["Enrolled(s,c)", "Teaches(p,d)"]),
            ("q(y) <- Teaches(y,x)", ["Enrolled(s,c)", "Teaches(p,c)"]),
            ("q(x,y) <- Enrolled(x,y)", ["Enrolled(s,c)", "Student(t)"]),
            ("q() <- Academic(x)", ["Course(c)"]),
        ]),
        # Seeds whose ladders reach SAT rungs; the disjunctive ones include
        # inconsistent instances.
        _chaos(4, "horn", 0.0),
        _chaos(6, "horn", 0.0),
        _chaos(6, "disjunctive", 0.3),
        _chaos(7, "disjunctive", 0.3),
    ]


CORPUS = _corpus()


def _truncate_all() -> Budget:
    # Every null-creating trigger truncates, on both paths alike: an
    # explicit plan replaces the ambient one.
    return Budget(timeout=600, faults=FaultPlan([FaultSpec("chase_truncate")]))


#: label -> (chase depth, budget factory, counter budget?, own fault plan?)
CONFIGS = {
    "one-shot": (6, lambda: Budget(escalate=False), False, False),
    "depth-1": (1, lambda: Budget(escalate=False), False, False),
    "depth-2-escalating": (2, lambda: Budget(timeout=600), False, False),
    "depth-2-truncate-all": (2, _truncate_all, False, True),
    "depth-2-counters": (
        2, lambda: Budget(chase_steps=25, nulls=25, conflicts=400),
        True, False),
}


def _candidates(instance, query) -> list[tuple]:
    domain = sorted(instance.dom(), key=repr)
    return list(itertools.product(domain, repeat=query.arity))


def per_tuple(engine, instance, query, budget):
    """The per-tuple loop ``certain_answers`` ran before the one-pass
    ladder: one ladder per candidate tuple, one shared budget."""
    return {combo: engine.entails_outcome(instance, query, combo,
                                          budget=budget)
            for combo in _candidates(instance, query)}


def one_pass(engine, instance, query, budget):
    """The ladder under test, with its per-tuple decisions."""
    return engine._entailment(instance, query,
                              _candidates(instance, query), budget)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_one_pass_matches_per_tuple_reference(case, config):
    _, onto, jobs = case
    depth, make_budget, counters, own_faults = CONFIGS[config]
    strict = not counters and (own_faults
                               or not os.environ.get("REPRO_FAULTS"))
    engine = CertainEngine(onto, chase_depth=depth)
    compared = 0
    for query_text, facts in jobs:
        query = parse_query(query_text)
        instance = make_instance(*facts)
        reference = per_tuple(engine, instance, query, make_budget())
        outcome, decided = one_pass(engine, instance, query, make_budget())

        if outcome.exhausted:
            assert not strict, (query_text, outcome.reason)
            continue
        # The set outcome covers every candidate, each rung listed once.
        assert set(decided) == set(reference)
        assert outcome.definitive == all(
            d.definitive for d in decided.values())
        rungs = [(a.engine, a.bound) for a in outcome.attempts]
        assert len(rungs) == len(set(rungs))
        assert sum(a.settled for a in outcome.attempts) == len(reference)
        assert (outcome.verdict is Verdict.YES) == any(
            d.holds for d in decided.values())

        for combo, ref in reference.items():
            got = decided[combo]
            if strict:
                assert not ref.exhausted
                assert (got.holds, got.definitive) == (
                    ref.holds, ref.definitive), (query_text, combo)
                compared += 1
            elif (not ref.exhausted and ref.definitive
                  and got.definitive):
                assert got.holds == ref.holds, (query_text, combo)
                compared += 1
    if strict:
        assert compared > 0


HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))")
HAND_QUERY = parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)")


def _chase_spans(engine, instance, query, budget) -> dict[str, int]:
    tracer = Tracer()
    with tracer.activate():
        engine.certain_answers(instance, query, budget=budget)
    return tracer.counts()


def test_one_chase_per_rung_for_every_candidate(no_ambient_faults):
    # Five candidates, all settled on the first rung: one chase run.  The
    # per-tuple loop made one chase per candidate.
    instance = make_instance(*(f"Hand(h{i})" for i in range(5)))
    counts = _chase_spans(CertainEngine(HAND), instance, HAND_QUERY,
                          Budget(timeout=60))
    assert counts["rung.chase"] == 1
    assert counts["chase"] == 1


def test_chase_runs_equal_chase_rungs():
    # Under ambient fault injection the ladder may climb further, but
    # never runs more than one chase per rung.
    instance = make_instance(*(f"Hand(h{i})" for i in range(5)))
    counts = _chase_spans(CertainEngine(HAND), instance, HAND_QUERY,
                          Budget(timeout=60))
    assert counts["chase"] == counts["rung.chase"]


def test_saturate_runs_one_ladder_per_predicate(no_ambient_faults):
    instance = make_instance("Hand(h1)", "Hand(h2)", "Thumb(t)")
    tracer = Tracer()
    engine = CertainEngine(HAND)
    with tracer.activate():
        saturated = engine.saturate(instance)
    # Hand, hasFinger, Thumb: one ladder each, not one per candidate fact.
    assert tracer.counts()["certain.decide"] == 3
    assert all(fact in saturated for fact in instance)


def test_single_tuple_entailment_still_one_ladder(no_ambient_faults):
    engine = CertainEngine(HAND)
    outcome = engine.entails_outcome(make_instance("Hand(h)"), HAND_QUERY,
                                     (Const("h"),))
    assert [a.to_dict() for a in outcome.attempts] == [
        {"engine": "chase", "bound": 6, "result": "yes", "settled": 1}]


def test_corpus_reaches_sat_rungs_and_inconsistent_instances(
        no_ambient_faults):
    # Guards the oracle against going vacuous when seeds or sizes change.
    cases = {name: (onto, jobs) for name, onto, jobs in CORPUS}
    onto, jobs = cases["chaos-horn-4"]
    engine = CertainEngine(onto, chase_depth=1)
    assert any(one_pass(engine, make_instance(*facts), parse_query(query),
                        None)[0].engine == "sat"
               for query, facts in jobs)
    onto, jobs = cases["chaos-disjunctive-6"]
    engine = CertainEngine(onto)
    assert not all(engine.is_consistent(make_instance(*facts))
                   for _, facts in jobs)


# -- the Outcome of a candidate set -------------------------------------------

# A(a) branches into C(a) (complete) and B(a), whose R-chain never ends
# (truncated): q(x) <- C(x) leaves a truncated, and SAT refutes it.  The
# third sentence lets C travel back along R, so q can see the chain and
# the chase keeps its rules.
BRANCHING = ontology("""
forall x (A(x) -> C(x) | B(x))
forall x (B(x) -> exists y (R(x,y) & B(y)))
forall x,y (R(x,y) -> (C(y) -> C(x)))
""")
# Without that sentence q cannot see R or B: the chase drops the chain
# rule, and the C(a)-free branch refutes a definitively.
UNSEEN_CHAIN = ontology("""
forall x (A(x) -> C(x) | B(x))
forall x (B(x) -> exists y (R(x,y) & B(y)))
""")
a, b, z = Const("a"), Const("b"), Const("z")


def test_open_query_outcome_covers_every_candidate(no_ambient_faults):
    engine = CertainEngine(BRANCHING)
    answers = engine.certain_answers(make_instance("A(a)", "C(z)"),
                                     parse_cq("q(x) <- C(x)"))
    assert answers == {(z,)}
    outcome = engine.last_outcome
    # z was settled by the chase, a by a SAT countermodel: the outcome
    # names SAT, not the engine of the last candidate tuple.
    assert outcome.engine == "sat"
    assert outcome.verdict is Verdict.YES and outcome.definitive
    assert [att.to_dict() for att in outcome.attempts] == [
        {"engine": "chase", "bound": 6, "result": "truncated",
         "settled": 1},
        {"engine": "sat", "bound": 3, "result": "no", "settled": 1}]
    assert outcome.fallback == "chase truncated at depth 6"


def test_a_chain_q_cannot_see_is_refuted_in_one_chase_attempt(
        no_ambient_faults):
    engine = CertainEngine(UNSEEN_CHAIN)
    answers = engine.certain_answers(make_instance("A(a)", "C(z)"),
                                     parse_cq("q(x) <- C(x)"))
    assert answers == {(z,)}
    outcome = engine.last_outcome
    assert outcome.engine == "chase"
    assert outcome.verdict is Verdict.YES and outcome.definitive
    assert [att.to_dict() for att in outcome.attempts] == [
        {"engine": "chase", "bound": 6, "result": "yes", "settled": 2}]
    assert outcome.fallback is None


def test_open_query_outcome_is_bound_relative_if_any_tuple_is(
        no_ambient_faults):
    # a's infinite R-chain is truncated at depth 2, and no finite
    # countermodel exists: a is certain only relative to the SAT bound.
    # b has a countermodel, a definitive no.
    onto = ontology("forall x (A(x) -> exists y (R(x,y) & A(y)))")
    engine = CertainEngine(onto, chase_depth=2)
    answers = engine.certain_answers(
        make_instance("A(a)", "B(b)"),
        parse_cq("q(x) <- R(x,y) & R(y,u) & R(u,w)"))
    assert answers == {(a,)}
    outcome = engine.last_outcome
    assert outcome.definitive is False
    assert "nulls" in outcome.reason


def test_empty_domain_gets_a_fresh_outcome(no_ambient_faults):
    clear_plan_cache()
    plan = compile_omq(ontology("forall x,y (R(x,y) -> A(y))"),
                       "q(x) <- A(x)")
    first = plan.evaluate(make_instance("A(a)", "R(a,b)"))
    assert first.outcome["attempts"]
    empty = plan.evaluate(Interpretation())
    assert empty.answers == ()
    assert empty.outcome["attempts"] == []
    assert empty.outcome["engine"] == "none"
    assert empty.outcome["usage"]["chase_steps"] == 0


def test_batch_job_reports_the_set_outcome(no_ambient_faults):
    clear_plan_cache()
    report = evaluate_batch(BRANCHING, [
        Job(query="q(x) <- C(x)", facts=("A(a)", "C(z)"))])
    (result,) = report.results
    assert result.engine == "sat"
    assert result.rungs == 2


# -- a definitive chase "no" behind a truncated branch -------------------------


def test_complete_refuting_branch_decides_no(no_ambient_faults):
    data = make_instance("A(a)", "E(a)")
    query = parse_cq("q(x) <- E(x) & F(x)")
    result = chase(BRANCHING, data)
    # The truncated B(a) branch refutes the tuple too, and comes first.
    assert not result.consistent_branches()[0].complete
    answer = answer_from_chase(result, query, (a,))
    assert answer.holds is False and answer.definitive is True
    outcome = CertainEngine(BRANCHING).entails_outcome(data, query, (a,))
    assert outcome.verdict is Verdict.NO
    assert outcome.engine == "chase"
    assert len(outcome.attempts) == 1


# -- deadlines inside the settle phase -----------------------------------------


def test_deadline_fires_while_settling_a_chase_rung(monkeypatch):
    # The chase runs once per rung, then every candidate is read off its
    # result; that read is a deadline checkpoint per candidate, as the
    # per-tuple chase was.  Count the checkpoints the chase itself takes,
    # then fire the deadline at the second candidate.
    import repro.semantics.certain as certain

    settled: list[int] = []
    plans: list[FaultPlan] = []

    def counting(result, query, answer):
        settled.append(plans[-1].hits["deadline"])
        return answer_from_chase(result, query, answer)

    monkeypatch.setattr(certain, "answer_from_chase", counting)
    instance = make_instance(*(f"Hand(h{i})" for i in range(5)))

    def run(at: int):
        plans.append(FaultPlan([FaultSpec("deadline", at=at)]))
        settled.clear()
        engine = CertainEngine(HAND)
        budget = Budget(escalate=False, faults=plans[-1])
        return engine._entailment(instance, HAND_QUERY,
                                  _candidates(instance, HAND_QUERY),
                                  budget)[0]

    assert run(at=10**9).definitive
    before_settle = settled[0] - 1
    outcome = run(at=before_settle + 2)
    assert outcome.exhausted
    assert outcome.verdict is Verdict.UNKNOWN
    assert "deadline" in outcome.reason
    assert "certain.chase" in outcome.reason
    assert len(settled) == 1  # one candidate read, then the deadline
    assert [(a.engine, a.result) for a in outcome.attempts] == [
        ("chase", "budget")]
