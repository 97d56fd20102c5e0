"""Differential oracle for the query-driven rule split of the chase.

The ladder's chase fires only the rules a query can see
(:func:`repro.semantics.rules.split_rules`): it branches on the rules
that feed the query, searches the rules that only feed constraints for
one consistent completion per branch, and drops the rest.  The chase the
ladder ran before, which branches on every rule, is kept here verbatim
as the reference (``chase`` below), the way ``tests/test_match_kernel.py``
keeps the old matchers.

Per candidate tuple both ladders must reach the same final decision
(verdict, definitive) and answering engine, and per instance the same
consistency verdict.  Fewer rules create fewer nulls, so a decision may
move from truncated to definitive and an engine from SAT to the chase;
every such move is collected, and any other difference fails.  Inputs:
the example corpus, ``repro.chaos`` Horn and disjunctive workloads,
ontologies with (inverse-)functional roles, with counting heads and with
a frontier variable, Boolean and UCQ queries, and Hypothesis instances
over all of them.  Under ambient ``REPRO_FAULTS`` the two ladders see
different fault sequences, so there only decisions both ladders settled
definitively are compared.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.semantics.certain as certain
from repro.analysis.sanitizers import chase_sanitizer
from repro.chaos.generate import WorkloadSpec, generate_workload
from repro.logic.instance import Interpretation, make_instance
from repro.logic.ontology import Ontology, ontology
from repro.logic.parser import parse_sentences
from repro.logic.syntax import Const
from repro.obs import Tracer, current_tracer
from repro.queries.cq import parse_cq
from repro.runtime import Budget
from repro.semantics.certain import CertainEngine
from repro.semantics.chase import (
    Branch, ChaseError, ChaseResult, _apply_head, _enforce_functionality,
    _head_satisfied, _rule_matches, _rule_patterns, answer_from_chase,
)
from repro.semantics.chase import chase as split_chase
from repro.semantics.rules import (
    DisjunctiveRule, convert_ontology, split_rules,
)
from repro.serving.plan import parse_query

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


# -- the reference: the ladder's chase before the split, verbatim ------------


def chase(
    onto: Ontology,
    instance: Interpretation,
    rules: list[DisjunctiveRule] | None = None,
    max_depth: int = 6,
    max_branches: int = 512,
    max_facts: int = 200_000,
    sanitize: bool | None = None,
    budget: Budget | None = None,
) -> ChaseResult:
    """Run the disjunctive chase of *instance* with *onto*.

    *rules* defaults to :func:`convert_ontology`; a ``ValueError`` is raised
    if the ontology is not rule-convertible.  ``sanitize`` switches the
    runtime invariant checkers on/off (default: the ``REPRO_SANITIZE``
    environment variable).  Under a :class:`repro.runtime.Budget` every
    rule firing is a cooperative checkpoint (deadline / chase-step / null
    accounting, raising :class:`repro.runtime.BudgetExceeded`) and the
    ``chase_truncate`` fault site can force depth exhaustion.
    """
    if rules is None:
        rules = convert_ontology(onto)
        if rules is None:
            raise ValueError(f"{onto!r} is not convertible to disjunctive rules")

    san = chase_sanitizer(sanitize)
    base_dom = frozenset(instance.dom())
    initial = Branch(interp=instance.copy(), depth={e: 0 for e in instance.dom()})
    _enforce_functionality(initial, onto)
    if san and initial.consistent:
        san.check_branch(initial, onto, max_depth, base_dom)
    pending = [initial]
    done: list[Branch] = []
    steps = 0

    # One span per chase run; a BudgetExceeded/ChaseError escaping the
    # block marks the span failed on the way out (repro.obs).
    with current_tracer().span("chase", depth=max_depth) as span:
        while pending:
            branch = pending.pop()
            if budget is not None:
                budget.check_deadline("chase")
            if not branch.consistent:
                done.append(branch)
                continue
            if len(branch.interp) > max_facts:
                raise ChaseError(f"branch exceeded {max_facts} facts")
            fired = False
            domain = sorted(branch.interp.dom(), key=repr)
            for rule in rules:
                frontier = sorted(rule.frontier_vars())
                body, heads = _rule_patterns(rule)
                for env in _rule_matches(body, branch.interp, domain, frontier):
                    if any(_head_satisfied(h, p, branch.interp, env)
                           for h, p in zip(rule.heads, heads)):
                        continue
                    if rule.is_constraint():
                        branch.consistent = False
                        fired = True
                        break
                    # Truncation: creating nulls beyond the depth bound (the
                    # ``chase_truncate`` fault site forces the same path).
                    trigger_depth = max(
                        (branch.depth.get(e, 0) for e in env.values()), default=0)
                    needs_nulls = any(h.exist_vars for h in rule.heads)
                    if needs_nulls and (
                            trigger_depth + 1 > max_depth
                            or (budget is not None
                                and budget.inject("chase_truncate"))):
                        branch.complete = False
                        continue
                    steps += 1
                    if budget is not None:
                        budget.tick_chase_step()
                        if needs_nulls:
                            budget.tick_nulls(sum(
                                len(h.exist_vars) * h.count for h in rule.heads))
                    if san:
                        san.check_firing(rule, branch.interp, env)
                    successors = []
                    for head in rule.heads:
                        succ = branch.clone()
                        _apply_head(succ, head, env)
                        _enforce_functionality(succ, onto)
                        if san and succ.consistent:
                            san.check_branch(succ, onto, max_depth, base_dom)
                        successors.append(succ)
                    if len(done) + len(pending) + len(successors) > max_branches:
                        raise ChaseError(f"more than {max_branches} chase branches")
                    pending.extend(successors)
                    fired = True
                    break
                if fired:
                    break
            if not fired:
                done.append(branch)

        span.set(
            steps=steps,
            branches=len(done),
            consistent=sum(1 for b in done if b.consistent),
            truncated=any(not b.complete for b in done),
        )
    return ChaseResult(branches=done, rules=rules, max_depth=max_depth)


def full_chase(onto, instance, rules=None, deferred=(), pruned=0, **kwargs):
    """The reference in the ladder's place: every rule of *onto*, whatever
    split the ladder hands in."""
    return chase(onto, instance, rules=convert_ontology(onto), **kwargs)


# -- inputs --------------------------------------------------------------------


def _example(name: str) -> Ontology:
    return ontology((EXAMPLES / "ontologies" / f"{name}.gf").read_text(),
                    name=name)


def _workload_jobs(name: str) -> list[tuple[str, list[str]]]:
    raw = json.loads((EXAMPLES / "workloads" / f"{name}.json").read_text())
    return [(job["query"], job["facts"]) for job in raw]


def _chaos(seed: int, family: str, rate: float) -> tuple[Ontology, list]:
    wl = generate_workload(WorkloadSpec(
        seed=seed, family=family, jobs=5, instance_size=4, domain_size=3,
        inconsistency_rate=rate))
    return wl.ontology(), [(job["query"], job["facts"]) for job in wl.jobs]


# F is functional and G inverse-functional: the chase merges the witness
# of A's F-edge into a named F-successor, and H's G-witness into a named
# G-predecessor, so B, C and K facts on constants come from EGD merges.
FUNCTIONAL = Ontology(parse_sentences("""
forall x (A(x) -> exists y (F(x,y) & B(y)))
forall x,y (F(x,y) -> C(y))
forall x (B(x) -> D(x) | E(x))
forall x (D(x) -> ~E(x))
forall x (H(x) -> exists y (G(y,x) & K(y)))
forall x (K(x) -> ~C(x))
forall x (C(x) -> P(x) | N(x))
forall x (N(x) -> ~P(x))
"""), functional={"F"}, name="functional", inverse_functional={"G"})

COUNTING = ontology("""
forall x (A(x) -> exists>=2 y (R(x,y) & B(y)))
forall x,y (R(x,y) -> C(y))
forall x (C(x) -> D(x) | E(x))
forall x (D(x) -> ~E(x))
forall x (B(x) -> ~F(x))
forall x (F(x) -> exists y (S(x,y) & G(y)))
""", name="counting")

# A(x) holds everywhere, so the E-witness of C(a) clashes with it: D is
# inconsistent and every element is a certain answer.  A chase that
# deferred the E-rule would miss the clash (nulls it creates get no A).
FRONTIER = ontology("""
forall x (x = x -> A(x))
forall x (C(x) -> exists y (S(x,y) & E(y)))
forall x (E(x) -> ~A(x))
""", name="frontier")

CORPUS: dict[str, tuple[Ontology, list]] = {
    "clinic": (_example("clinic"), _workload_jobs("smoke") + [
        ("q(x) <- Person(x)", ["TreatedBy(a,b)"]),
        ("q(x) <- Doctor(x); q(x) <- Nurse(x)", ["TreatedBy(a,b)",
                                                 "Doctor(b)"]),
        ("q(x) <- Patient(x)", ["Doctor(c)", "Nurse(c)", "Patient(p)"]),
    ]),
    "transport": (_example("transport"), _workload_jobs("fastpath") + [
        ("q() <- Hub(x)", ["Hub(h)", "Terminal(h)"]),
        ("q(x,y) <- Edge(x,y)", ["Hub(h)", "Edge(h,t)"]),
    ]),
    "university": (_example("university"), [
        ("q(x) <- Course(x)", ["Enrolled(s,c)", "Teaches(p,d)"]),
        ("q(y) <- Teaches(y,x)", ["Enrolled(s,c)", "Teaches(p,c)"]),
        ("q(x,y) <- Enrolled(x,y)", ["Enrolled(s,c)", "Student(t)"]),
        ("q() <- Academic(x)", ["Course(c)"]),
    ]),
    "chaos-horn-1": _chaos(1, "horn", 0.0),
    "chaos-horn-4": _chaos(4, "horn", 0.0),
    "chaos-disjunctive-1": _chaos(1, "disjunctive", 0.3),
    "chaos-disjunctive-6": _chaos(6, "disjunctive", 0.3),
    "functional": (FUNCTIONAL, [
        ("q(x) <- B(x)", ["A(a)", "F(a,b)"]),
        ("q(x) <- P(x); q(x) <- N(x)", ["A(a)", "F(a,b)"]),
        ("q() <- K(x)", ["H(a)", "G(b,a)", "C(b)"]),
        ("q(x) <- K(x)", ["H(a)", "G(b,a)"]),
        ("q(x,y) <- F(x,y)", ["A(a)", "F(a,b)", "F(c,b)"]),
        ("q(x) <- D(x)", ["A(a)", "F(a,b)", "E(b)"]),
    ]),
    "counting": (COUNTING, [
        ("q(x) <- C(x)", ["A(a)", "R(a,b)"]),
        ("q() <- R(x,y) & B(y) & D(y)", ["A(a)"]),
        ("q(x) <- A(x)", ["A(a)", "F(b)", "B(b)"]),
        ("q(x) <- D(x); q(x) <- E(x)", ["A(a)", "R(a,b)"]),
    ]),
    "frontier": (FRONTIER, [
        ("q(x) <- A(x) & G(x)", ["C(a)", "G(b)"]),
        ("q(x) <- A(x) & G(x)", ["G(b)"]),
        ("q() <- S(x,y)", ["C(a)"]),
    ]),
    # q cannot see B's endless R-chain: the full chase truncates it and
    # leaves a to SAT, the split chase refutes a definitively.
    "unseen-chain": (ontology("""
    forall x (A(x) -> C(x) | B(x))
    forall x (B(x) -> exists y (R(x,y) & B(y)))
    """), [("q(x) <- C(x)", ["A(a)", "C(z)"])]),
}


def _candidates(instance: Interpretation, query) -> list[tuple]:
    domain = sorted(instance.dom(), key=repr)
    return list(itertools.product(domain, repeat=query.arity))


def ladder_decisions(onto: Ontology, jobs, depth: int, reference: bool,
                     ) -> dict[tuple, tuple]:
    """Per (query, facts, tuple): the final ladder decision (verdict,
    definitive, engine); per (facts,): the consistency decision."""
    engine = CertainEngine(onto, chase_depth=depth)
    swap = (mock.patch.object(certain, "chase", full_chase) if reference
            else contextlib.nullcontext())
    out: dict[tuple, tuple] = {}
    with swap:
        for query_text, facts in jobs:
            query = parse_query(query_text)
            instance = make_instance(*facts)
            for combo in _candidates(instance, query):
                o = engine.entails_outcome(instance, query, combo,
                                           budget=Budget(escalate=False))
                out[query_text, tuple(facts), combo] = (
                    o.verdict.value, o.definitive, o.engine)
            o = engine.consistency_outcome(instance,
                                           budget=Budget(escalate=False))
            out[tuple(facts),] = (o.verdict.value, o.definitive, o.engine)
    return out


def strict() -> bool:
    return not os.environ.get("REPRO_FAULTS")


def changed_decisions(onto: Ontology, jobs, depth: int) -> list[tuple]:
    """Compare both ladders; return the allowed changes, fail on others."""
    ref = ladder_decisions(onto, jobs, depth, reference=True)
    new = ladder_decisions(onto, jobs, depth, reference=False)
    assert set(ref) == set(new)
    changes = []
    for key, (r_verdict, r_definitive, r_engine) in ref.items():
        n_verdict, n_definitive, n_engine = new[key]
        if r_definitive and n_definitive:
            assert n_verdict == r_verdict, (key, ref[key], new[key])
        if not strict() or ref[key] == new[key]:
            continue
        assert n_definitive or not r_definitive, (
            "lost definitiveness", key, ref[key], new[key])
        assert n_engine == r_engine or (r_engine, n_engine) == (
            "sat", "chase"), ("engine moved", key, ref[key], new[key])
        if not r_definitive and not n_definitive:
            assert n_verdict == r_verdict, (key, ref[key], new[key])
        changes.append((key, ref[key], new[key]))
    return changes


# -- the oracle on the corpus --------------------------------------------------

#: Every (case, depth) whose decisions move, with the number of moves.
EXPECTED_CHANGES = {("unseen-chain", 2): 1, ("unseen-chain", 4): 1}


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_split_ladder_matches_full_chase_ladder(name, depth):
    onto, jobs = CORPUS[name]
    changes = changed_decisions(onto, jobs, depth)
    if strict():
        assert len(changes) == EXPECTED_CHANGES.get((name, depth), 0), (
            changes)


# -- Hypothesis instances over every ontology ------------------------------


def _queries(onto: Ontology) -> list[str]:
    """Atomic, Boolean, two-atom and UCQ queries over *onto*'s signature."""
    sig = sorted(onto.sig().items())
    unary = [p for p, k in sig if k == 1]
    binary = [p for p, k in sig if k == 2]
    out = [f"q(x) <- {p}(x)" for p in unary]
    out += [f"q() <- {p}(x)" for p in unary]
    out += [f"q(x,y) <- {r}(x,y)" for r in binary]
    out += [f"q(x) <- {r}(x,y) & {p}(y)" for r in binary for p in unary[:2]]
    out += [f"q(x) <- {p}(x); q(x) <- {o}(x)"
            for p, o in zip(unary, unary[1:])]
    return out


@st.composite
def _jobs(draw, onto: Ontology):
    elems = ["a", "b", "c"]
    sig = sorted(onto.sig().items())
    fact = st.sampled_from(sig).flatmap(lambda pk: st.tuples(
        st.just(pk[0]), st.lists(st.sampled_from(elems), min_size=pk[1],
                                 max_size=pk[1])))
    facts = draw(st.lists(fact, min_size=1, max_size=4))
    query = draw(st.sampled_from(_queries(onto)))
    return [(query, [f"{p}({','.join(args)})" for p, args in facts])]


@pytest.mark.parametrize("name", sorted(CORPUS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_split_ladder_matches_on_generated_instances(name, data):
    onto, _ = CORPUS[name]
    jobs = data.draw(_jobs(onto))
    depth = data.draw(st.sampled_from([1, 2, 3]))
    changed_decisions(onto, jobs, depth)


# -- the split itself ----------------------------------------------------------


def _split(onto: Ontology, query: str):
    engine = CertainEngine(onto)
    return engine._split(parse_query(query))


def test_unobservable_disjunction_is_deferred():
    # Only R0 derives A0; everything else reaches q only through D -> ~N.
    onto, _ = CORPUS["chaos-disjunctive-1"]
    split = _split(onto, "q(x) <- A0(x)")
    assert [repr(r) for r in split.exhaustive] == ["R0(x, y) -> A0(x)"]
    assert "A2(x) -> D(x) | N(x)" in [repr(r) for r in split.deferred]
    assert split.deferred[-1].is_constraint()
    assert len(split.deferred) == len(convert_ontology(onto)) - 1
    assert split.pruned == ()


def test_horn_rules_q_cannot_reach_are_pruned():
    onto, _ = CORPUS["chaos-horn-1"]
    split = _split(onto, "q(x) <- A0(x)")
    assert [repr(r) for r in split.exhaustive] == ["R0(x, y) -> A0(x)"]
    assert split.deferred == ()
    assert len(split.pruned) == len(convert_ontology(onto)) - 1


def test_functional_roles_keep_their_rules_exhaustive():
    split = _split(FUNCTIONAL, "q(x) <- P(x)")
    heads = {a.pred for r in split.exhaustive for h in r.heads
             for a in h.atoms}
    assert {"F", "G"} <= heads


def test_frontier_variables_defer_nothing():
    split = _split(FRONTIER, "q(x) <- A(x) & G(x)")
    assert split.deferred == ()
    assert len(split.exhaustive) == 3
    engine = CertainEngine(FRONTIER)
    answers = engine.certain_answers(make_instance("C(a)", "G(b)"),
                                     parse_cq("q(x) <- A(x) & G(x)"))
    assert answers == {(Const("a"),), (Const("b"),)}


def test_consistency_split_keeps_every_constraint():
    engine = CertainEngine(_example("clinic"))
    split = engine._split(None)
    assert split.exhaustive == ()
    assert any(r.is_constraint() for r in split.deferred)
    assert not engine.is_consistent(make_instance("Doctor(a)", "Nurse(a)"))
    assert engine.is_consistent(make_instance("TreatedBy(a,b)"))


def test_splits_are_memoised_per_predicate_set():
    engine = CertainEngine(_example("clinic"))
    first = engine._split(parse_cq("q(x) <- Person(x)"))
    assert engine._split(parse_cq("q(y) <- Person(y)")) is first
    assert engine._split(parse_cq("q(x) <- Doctor(x)")) is not first


# -- the two-phase chase -------------------------------------------------------

CLINIC = _example("clinic")


def test_deferred_facts_stay_out_of_the_branches():
    split = _split(CLINIC, "q(x) <- Person(x)")
    result = split_chase(CLINIC, make_instance("TreatedBy(a,b)"),
                         rules=split.exhaustive, deferred=split.deferred)
    (branch,) = result.branches
    assert branch.consistent and branch.complete
    assert not any(True for _ in branch.interp.tuples("Clinician"))
    answer = answer_from_chase(result, parse_cq("q(x) <- Person(x)"),
                               (Const("a"),))
    assert answer.holds and answer.definitive


def test_inconsistent_completions_drop_the_branch():
    split = _split(CLINIC, "q(x) <- Person(x)")
    data = make_instance("TreatedBy(a,b)", "Doctor(b)", "Nurse(b)")
    result = split_chase(CLINIC, data, rules=split.exhaustive,
                         deferred=split.deferred)
    assert not result.is_consistent
    assert result.fully_chased


def test_open_search_leaves_the_branch_consistent_and_incomplete(
        no_ambient_faults):
    onto = ontology("""
    forall x (B(x) -> exists y (R(x,y) & B(y)))
    forall x,y (R(x,y) -> ~Z(y))
    """)
    split = _split(onto, "q(x) <- A(x)")
    assert len(split.deferred) == 2
    result = split_chase(onto, make_instance("B(a)"), rules=split.exhaustive,
                         deferred=split.deferred, max_depth=3)
    (branch,) = result.branches
    assert branch.consistent and not branch.complete
    assert len(branch.interp) == 1


def test_search_nodes_count_against_the_branch_cap():
    # Every leaf of the search violates the last disjunction: it visits
    # 1 + 2 + 4 + 8 nodes before it drops the branch.
    onto = ontology("""
    forall x (A(x) -> B1(x) | C1(x))
    forall x (A(x) -> B2(x) | C2(x))
    forall x (A(x) -> B3(x) | C3(x))
    forall x (A(x) -> ~B3(x) & ~C3(x))
    forall x (Z(x) -> ~B1(x) & ~C1(x) & ~B2(x) & ~C2(x))
    """)
    split = _split(onto, "q(x) <- Y(x)")
    assert len(split.deferred) == 9 and split.pruned == ()
    with pytest.raises(ChaseError):
        split_chase(onto, make_instance("A(a)"), rules=split.exhaustive,
                    deferred=split.deferred, max_branches=4)
    tracer = Tracer()
    with tracer.activate():
        result = split_chase(onto, make_instance("A(a)"),
                             rules=split.exhaustive, deferred=split.deferred)
    assert not result.is_consistent
    (span,) = _chase_spans(tracer)
    assert span["search_nodes"] == 15 and span["branches"] == 0


def _chase_spans(tracer: Tracer) -> list[dict]:
    return [span["attrs"] for span in tracer.to_dicts()
            if span["name"] == "chase"]


def test_chase_span_reports_the_split(no_ambient_faults):
    tracer = Tracer()
    engine = CertainEngine(CLINIC)
    with tracer.activate():
        engine.certain_answers(make_instance("TreatedBy(a,b)"),
                               parse_cq("q(x) <- Person(x)"))
        engine.explain(make_instance("TreatedBy(a,b)"),
                       parse_cq("q(x) <- Person(x)"), (Const("b"),))
    split_run, full_run = _chase_spans(tracer)
    assert split_run["pruned"] == 0 and split_run["deferred"] == 3
    assert split_run["search_nodes"] >= 3
    assert split_run["branches"] == 1
    assert (full_run["pruned"], full_run["deferred"],
            full_run["search_nodes"]) == (0, 0, 0)
    assert full_run["branches"] == 2
