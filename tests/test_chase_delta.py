"""Differential oracle for the delta-driven chase.

The chase keeps an agenda of triggers per branch and finds each firing's
new triggers from the facts it added (:mod:`repro.semantics.chase`).  The
chase it replaced, which re-scanned every rule over the whole branch
before each firing, is kept here verbatim as the reference (``chase``
below), the way ``tests/test_chase_relevance.py`` keeps the chase from
before the rule split.

The two must agree on every input:

* per candidate tuple, the ladder's final decision: verdict,
  definitiveness and answering engine;
* per instance, the ladder's consistency decision;
* per chase of an instance, consistency and whether every branch was
  finished; when both chases finished every branch, their consistent
  branches must be homomorphically equivalent over dom(D) (each branch
  of one receives a homomorphism, fixing dom(D), from a branch of the
  other).

Triggers of one rule may fire in another order, so null names and, in
principle, truncation points can move.  Every moved decision is listed
in :data:`EXPECTED_CHANGES`, which is empty: none moves.  Inputs: the
example corpus, ``repro.chaos`` Horn and disjunctive workloads,
ontologies with (inverse-)functional roles, counting heads and frontier
variables (all from ``test_chase_relevance``), the cyclic probe whose
every branch truncates, and Hypothesis instances over all of them.  The
sanitizers run throughout (``REPRO_SANITIZE=1``, see ``conftest.py``), so
the new chase also passes its quiescence check on each input.  Under
ambient ``REPRO_FAULTS`` the two chases consult the ``chase_truncate``
site at different points, so there only decisions both settled
definitively are compared.
"""

from __future__ import annotations

import importlib
from typing import Iterator, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chase_relevance import CORPUS, _candidates, _jobs, strict

import repro.semantics.certain as certain
from repro.analysis.sanitizers import chase_sanitizer
from repro.logic.homomorphism import has_homomorphism
from repro.logic.instance import Interpretation, make_instance
from repro.logic.ontology import Ontology, ontology
from repro.logic.syntax import Element, Var
from repro.obs import Tracer, current_tracer
from repro.runtime import Budget
from repro.semantics.certain import CertainEngine
from repro.semantics.chase import (
    Branch, ChaseError, ChaseResult, _apply_head, _enforce_functionality,
    _head_satisfied, _rule_matches, _rule_patterns,
)
from repro.semantics.chase import chase as delta_chase
from repro.semantics.rules import DisjunctiveRule, convert_ontology
from repro.serving.plan import parse_query

# The package re-exports the function ``chase`` under the module's name.
chase_mod = importlib.import_module("repro.semantics.chase")


# -- the reference: the chase before the agenda, verbatim ---------------------


def _active_triggers(
    branch: Branch, rules: Sequence[DisjunctiveRule],
) -> Iterator[tuple[DisjunctiveRule, dict[Var, Element]]]:
    """The active triggers of *rules* on *branch*, in rule order: body
    matches (extended over the active domain for frontier variables)
    under which no head disjunct is satisfied yet."""
    domain = sorted(branch.interp.dom(), key=repr)
    for rule in rules:
        frontier = sorted(rule.frontier_vars())
        body, heads = _rule_patterns(rule)
        for env in _rule_matches(body, branch.interp, domain, frontier):
            if not any(_head_satisfied(h, p, branch.interp, env)
                       for h, p in zip(rule.heads, heads)):
                yield rule, env


def chase(
    onto: Ontology,
    instance: Interpretation,
    rules: Sequence[DisjunctiveRule] | None = None,
    max_depth: int = 6,
    max_branches: int = 512,
    max_facts: int = 200_000,
    sanitize: bool | None = None,
    budget: Budget | None = None,
    deferred: Sequence[DisjunctiveRule] = (),
    pruned: int = 0,
) -> ChaseResult:
    """Run the disjunctive chase of *instance* with *onto*.

    *rules* defaults to :func:`convert_ontology`; a ``ValueError`` is raised
    if the ontology is not rule-convertible.  ``sanitize`` switches the
    runtime invariant checkers on/off (default: the ``REPRO_SANITIZE``
    environment variable).  Under a :class:`repro.runtime.Budget` every
    rule firing is a cooperative checkpoint (deadline / chase-step / null
    accounting, raising :class:`repro.runtime.BudgetExceeded`) and the
    ``chase_truncate`` fault site can force depth exhaustion.

    With *deferred* rules (see :func:`repro.semantics.rules.split_rules`)
    the run has two phases.  The chase branches exhaustively on *rules*;
    each branch they leave with no active trigger is then settled by a
    depth-first search of *deferred* on a copy of it.  The search stops
    at the first complete consistent leaf; if its only consistent leaves
    are truncated the branch becomes incomplete, and if every leaf is
    inconsistent the branch is dropped like one that violated a
    constraint.  The returned branches carry no deferred facts.  Search
    firings count as steps, and search nodes count against
    *max_branches*.  *pruned*, the number of rules the caller left out of
    both lists, is only recorded on the span.
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
    search_nodes = 0

    def expand(branch: Branch,
               rule_set: Sequence[DisjunctiveRule]) -> list[Branch] | None:
        """Fire the first active trigger of *rule_set* on *branch*.  Returns
        its successor branches; ``[]`` when a constraint fired (the branch
        is then inconsistent); ``None`` when no trigger can fire (those cut
        off by the depth bound mark the branch incomplete)."""
        nonlocal steps
        if budget is not None:
            budget.check_deadline("chase")
        if len(branch.interp) > max_facts:
            raise ChaseError(f"branch exceeded {max_facts} facts")
        for rule, env in _active_triggers(branch, rule_set):
            if rule.is_constraint():
                branch.consistent = False
                return []
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
            return successors
        return None

    def completes(branch: Branch) -> bool:
        """Does some completion of *branch* under *deferred* stay
        consistent?  Marks *branch* incomplete when only truncated
        completions do."""
        nonlocal search_nodes
        # The root shares the branch's facts: expand() never changes a
        # branch's facts, only those of its (cloned) successors.
        stack = [Branch(branch.interp, branch.depth,
                        _null_counter=branch._null_counter)]
        nodes, open_leaf = 1, False
        try:
            while stack:
                node = stack.pop()
                if not node.consistent:
                    continue
                successors = expand(node, deferred)
                if successors is None:
                    # Once truncated, any consistent leaf settles it.
                    if node.complete or not branch.complete:
                        return True
                    open_leaf = True
                    continue
                nodes += len(successors)
                if len(done) + len(pending) + nodes > max_branches:
                    raise ChaseError(
                        f"more than {max_branches} chase branches")
                stack.extend(reversed(successors))
            if open_leaf:
                branch.complete = False
            return open_leaf
        finally:
            search_nodes += nodes

    # One span per chase run; a BudgetExceeded/ChaseError escaping the
    # block marks the span failed on the way out (repro.obs).
    with current_tracer().span("chase", depth=max_depth) as span:
        while pending:
            branch = pending.pop()
            if not branch.consistent:
                if budget is not None:
                    budget.check_deadline("chase")
                done.append(branch)
                continue
            successors = expand(branch, rules)
            if successors is None:
                if not deferred or completes(branch):
                    done.append(branch)
                continue
            if len(done) + len(pending) + len(successors) > max_branches:
                raise ChaseError(f"more than {max_branches} chase branches")
            pending.extend(successors)

        span.set(
            steps=steps,
            branches=len(done),
            consistent=sum(1 for b in done if b.consistent),
            truncated=any(not b.complete for b in done),
            pruned=pruned,
            deferred=len(deferred),
            search_nodes=search_nodes,
        )
    return ChaseResult(branches=done, rules=list(rules), max_depth=max_depth)


# -- inputs --------------------------------------------------------------------

# Person -> exists hasParent.Person: every branch truncates at the depth
# bound, so no *no* is definitive from the chase and the SAT rung decides.
CYCLIC = ontology("""
forall x (Person(x) -> exists y (hasParent(x,y) & Person(y)))
forall x,y (hasParent(x,y) -> Ancestor(y))
""", name="cyclic")

CASES: dict[str, tuple[Ontology, list]] = {
    **CORPUS,
    "cyclic": (CYCLIC, [
        ("q(x) <- Ancestor(x)", ["Person(p0)", "Student(s0)", "Person(p1)"]),
        ("q() <- hasParent(x,y) & Person(y)", ["Person(p0)"]),
        ("q(x) <- Person(x)", ["Student(s0)", "hasParent(s0,p0)"]),
    ]),
}


# -- the comparison ------------------------------------------------------------


def ladder_decisions(onto: Ontology, jobs, depth: int, reference: bool,
                     ) -> dict[tuple, tuple]:
    """Per (query, facts, tuple): the final ladder decision (verdict,
    definitive, engine); per (facts,): the consistency decision."""
    engine = CertainEngine(onto, chase_depth=depth)
    out: dict[tuple, tuple] = {}
    with mock.patch.object(certain, "chase",
                           chase if reference else delta_chase):
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


def _covered(targets: list[Interpretation], sources: list[Interpretation],
             base: frozenset[Element]) -> bool:
    """Does every target receive a homomorphism fixing *base* from some
    source?"""
    return all(any(has_homomorphism(source, target, preserve=base)
                   for source in sources)
               for target in targets)


def chase_changes(onto: Ontology, facts: list[str], depth: int,
                  ) -> list[tuple]:
    """Chase *facts* with both chases over every rule; fail on a
    disagreement, return the (consistency, finished) moves."""
    instance = make_instance(*facts)
    runs = []
    for run in (chase, delta_chase):
        try:
            runs.append(run(onto, instance, max_depth=depth, sanitize=True))
        except ChaseError as exc:
            runs.append(str(exc))
    ref, new = runs
    if isinstance(ref, str) or isinstance(new, str):
        assert ref == new or not strict(), (facts, ref, new)
        return []
    if not (ref.fully_chased and new.fully_chased):
        moved = ((ref.is_consistent, ref.fully_chased)
                 != (new.is_consistent, new.fully_chased))
        return [(tuple(facts), depth)] if moved else []
    assert ref.is_consistent == new.is_consistent, facts
    base = frozenset(instance.dom())
    ref_models = [b.interp for b in ref.consistent_branches()]
    new_models = [b.interp for b in new.consistent_branches()]
    assert _covered(ref_models, new_models, base), facts
    assert _covered(new_models, ref_models, base), facts
    return []


def changed_decisions(onto: Ontology, jobs, depth: int) -> list[tuple]:
    """Compare both chases, as the ladder's engine and alone; return every
    decision that moved, and fail on a definitive verdict that flipped."""
    ref = ladder_decisions(onto, jobs, depth, reference=True)
    new = ladder_decisions(onto, jobs, depth, reference=False)
    assert set(ref) == set(new)
    changes = []
    for key, (r_verdict, r_definitive, r_engine) in ref.items():
        n_verdict, n_definitive, n_engine = new[key]
        if r_definitive and n_definitive:
            assert n_verdict == r_verdict, (key, ref[key], new[key])
        if strict() and ref[key] != new[key]:
            changes.append((key, ref[key], new[key]))
    for facts in {tuple(facts) for _, facts in jobs}:
        moved = chase_changes(onto, list(facts), depth)
        if strict():
            changes += moved
    return changes


#: Every (case, depth) whose decisions move, with the moves: none.
EXPECTED_CHANGES: dict[tuple[str, int], list] = {}


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_delta_chase_matches_rescan_chase(name, depth):
    onto, jobs = CASES[name]
    changes = changed_decisions(onto, jobs, depth)
    assert changes == EXPECTED_CHANGES.get((name, depth), []), changes


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_delta_chase_matches_on_generated_instances(name, data):
    onto, _ = CASES[name]
    jobs = data.draw(_jobs(onto))
    depth = data.draw(st.sampled_from([1, 2, 3]))
    assert changed_decisions(onto, jobs, depth) == []


# -- in-place firing ----------------------------------------------------------


def _steps(run, onto: Ontology, instance: Interpretation) -> int:
    tracer = Tracer()
    with tracer.activate():
        run(onto, instance, sanitize=True)
    (span,) = [s["attrs"] for s in tracer.to_dicts() if s["name"] == "chase"]
    return span["steps"]


def test_horn_chase_fires_the_same_steps_in_place(no_ambient_faults):
    # Horn hands: one Thumb witness per hand, Digit for each finger.
    onto = ontology("""
    forall x (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)))
    forall x,y (hasFinger(x,y) -> Digit(y))
    """)
    instance = make_instance(*(f"Hand(h{i})" for i in range(20)),
                             *(f"hasFinger(h{i},f{i})" for i in range(20)))
    assert (_steps(delta_chase, onto, instance)
            == _steps(chase, onto, instance) == 60)
    (branch,) = delta_chase(onto, instance, sanitize=True).branches
    assert branch.complete and len(branch.interp) == 120


# -- the EGD check after a firing ---------------------------------------------


def test_egd_check_reads_only_the_new_facts_keys():
    # Each firing adds one F fact under a key no other F fact has, so no
    # firing can violate the EGD: only the initial fixpoint reads F whole.
    onto = Ontology(
        ontology("forall x (A(x) -> exists y (F(x,y) & B(y)))").sentences,
        functional=["F"])
    instance = make_instance(*(f"A(a{i})" for i in range(50)))
    with mock.patch.object(chase_mod, "_merge_pairs",
                           wraps=chase_mod._merge_pairs) as merge:
        (branch,) = delta_chase(onto, instance, sanitize=True).branches
    assert merge.call_count == 1
    assert branch.consistent and branch.complete
    assert len(branch.interp) == 150


# -- frontier rules after a firing --------------------------------------------

#: A rule whose frontier ranges over the whole domain, and one that adds an
#: element to it on every firing.
FRONTIER_PROBE = ontology("""
forall x (x = x -> A(x))
forall x (C(x) -> exists y (S(x,y) & E(y)))
""", name="frontier-probe")


def _enumerated(n: int) -> int:
    """The matches the chase enumerates on the frontier probe with *n*
    ``C`` facts."""
    count = 0
    enumerate_matches = chase_mod._rule_matches

    def counting(*args, **kwargs):
        nonlocal count
        for env in enumerate_matches(*args, **kwargs):
            count += 1
            yield env

    instance = make_instance(*(f"C(c{i})" for i in range(n)))
    with mock.patch.object(chase_mod, "_rule_matches", counting):
        (branch,) = delta_chase(FRONTIER_PROBE, instance,
                                sanitize=False).branches
    assert branch.consistent and branch.complete
    assert len(branch.interp) == 5 * n  # C, S, E, and A on 2n elements
    return count


def test_frontier_rule_enumerates_only_new_tuples():
    # Each firing of the second rule adds one null; only the frontier
    # tuples holding it are new, so the work grows 4x from 200 to 800
    # facts.  Re-enumerating the frontier over the whole domain after
    # each firing grows it 16x.
    small, large = _enumerated(200), _enumerated(800)
    assert large <= 5 * small, (small, large)

