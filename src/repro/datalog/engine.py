"""Bottom-up evaluation of Datalog(≠) programs.

Provides both semi-naive evaluation (the default) and naive evaluation
(full re-derivation each round; kept for the ablation benchmark and the
differential property suite).

Rule bodies are matched by the shared join kernel,
:class:`repro.logic.match.Pattern`, compiled once per rule.  Semi-naive
evaluation is *delta-driven*: per-round work is proportional to the new
facts, not the whole database.  A rule body ``B1 & ... & Bn`` is matched
once per seed position ``i`` with

* ``Bi`` matched against the **delta** (facts new since the last round),
* ``Bj`` for ``j < i`` matched against the **old** facts only (full set
  minus delta), and
* ``Bj`` for ``j > i`` matched against the **full** fact set,

which partitions the assignments that touch at least one delta fact —
every such assignment is enumerated exactly once across the seeds.  Each
non-seed atom pulls its candidates from the interpretation's
``(pred, position, value)`` hash indexes, never from a scan.

The kernel's ``join_counter`` counts candidate tuples touched; the
differential test suite uses it to assert that round work scales with
``|delta|`` and the ``datalog.round`` tracer spans record it per round for
``repro trace summarize`` profiles.
"""

from __future__ import annotations

from typing import Iterator

from ..logic.instance import Interpretation
from ..logic.match import Pattern, join_counter
from ..logic.syntax import Atom, Element, Var
from ..obs import current_tracer
from .program import Neq, Program, Rule


def _rule_pattern(rule: Rule) -> Pattern:
    # Compiled on first use and cached on the rule, the way Atom caches its
    # hash: not a dataclass field, so it takes no part in equality,
    # hashing or repr.
    pattern = getattr(rule, "_join_pattern", None)
    if pattern is None:
        pattern = Pattern(
            [lit for lit in rule.body if isinstance(lit, Atom)],
            [(lit.left, lit.right) for lit in rule.body
             if isinstance(lit, Neq)])
        object.__setattr__(rule, "_join_pattern", pattern)
    return pattern


def _match_body(
    rule: Rule,
    facts: Interpretation,
    delta: Interpretation | None,
) -> Iterator[dict[Var, Element]]:
    """Enumerate satisfying assignments for a rule body.

    With *delta* given, the delta drives the join (semi-naive): every
    yielded assignment grounds at least one relational atom inside the
    delta, and each such assignment is yielded exactly once.  Inequality
    literals filter at the end of each complete assignment.
    """
    pattern = _rule_pattern(rule)
    if delta is None or not pattern.atoms:
        # A naive full join.  A body of builtins only matches whenever the
        # (constant) inequalities do; firing is idempotent, so re-yielding
        # it each round only re-derives an already-known head fact.
        yield from pattern.matches(facts)
        return
    for seed, atom in enumerate(pattern.atoms):
        if delta.count(atom.pred):
            yield from pattern.matches(facts, delta=delta, seed=seed)


def _fire(rule: Rule, env: dict[Var, Element]) -> Atom:
    args = tuple(env[t] if isinstance(t, Var) else t for t in rule.head.args)
    return Atom(rule.head.pred, args)


def evaluate(program: Program, instance: Interpretation,
             semi_naive: bool = True, tracer=None,
             strata: "tuple[tuple[int, ...], ...] | None" = None,
             budget=None) -> Interpretation:
    """Compute the least fixpoint of the program over the instance.

    Returns the instance extended with all derived IDB facts (including
    goal facts).  *tracer* (a :class:`repro.obs.Tracer`) defaults to the
    ambient :func:`repro.obs.current_tracer`; every fixpoint round becomes
    a ``datalog.round`` span recording its delta size and the candidate
    tuples its joins touched.

    *strata* (from :func:`repro.analysis.program.stratify`) partitions the
    rule indexes into groups that only read equal-or-earlier groups; the
    semi-naive loop then runs each stratum to its own fixpoint in order,
    never re-matching the rules of finished strata — the same least
    fixpoint, fewer wasted joins.  *budget* (a
    :class:`repro.runtime.Budget`) is polled once per round via
    ``check_deadline``, so a runaway fixpoint raises
    :class:`~repro.runtime.BudgetExceeded` instead of hanging a server.
    """
    if tracer is None:
        tracer = current_tracer()
    facts = instance.copy()
    rounds = 0
    counter = join_counter
    with tracer.span("datalog.evaluate", rules=len(program.rules),
                     semi_naive=semi_naive, edb=len(facts),
                     strata=len(strata) if strata is not None else 1) as span:
        if semi_naive:
            rule_groups = (
                [[program.rules[i] for i in stratum] for stratum in strata]
                if strata is not None else [list(program.rules)])
            for rules in rule_groups:
                # Each stratum restarts semi-naive with everything known so
                # far as the delta: its rules have not seen any of it yet.
                delta = facts.copy()
                while len(delta):
                    rounds += 1
                    if budget is not None:
                        budget.check_deadline("datalog.round")
                    with tracer.span("datalog.round", round=rounds) as rspan:
                        before = counter.candidates
                        new_delta = Interpretation()
                        for rule in rules:
                            for env in _match_body(rule, facts, delta):
                                fact = _fire(rule, env)
                                if fact not in facts:
                                    new_delta.add(fact)
                        for fact in new_delta:
                            facts.add(fact)
                        delta = new_delta
                        rspan.set(delta=len(new_delta),
                                  candidates=counter.candidates - before)
        else:
            changed = True
            while changed:
                rounds += 1
                if budget is not None:
                    budget.check_deadline("datalog.round")
                with tracer.span("datalog.round", round=rounds) as rspan:
                    before = counter.candidates
                    changed = False
                    fresh: list[Atom] = []
                    for rule in program.rules:
                        for env in _match_body(rule, facts, None):
                            fact = _fire(rule, env)
                            if fact not in facts:
                                fresh.append(fact)
                    derived = 0
                    for fact in fresh:
                        if fact not in facts:
                            facts.add(fact)
                            derived += 1
                            changed = True
                    rspan.set(delta=derived,
                              candidates=counter.candidates - before)
        span.set(rounds=rounds, facts=len(facts),
                 derived=len(facts) - len(instance))
    return facts


def goal_answers(program: Program, instance: Interpretation,
                 semi_naive: bool = True,
                 strata: "tuple[tuple[int, ...], ...] | None" = None,
                 budget=None) -> set[tuple[Element, ...]]:
    """All derived goal tuples: ``{a | D |= Pi(a)}``."""
    fixpoint = evaluate(program, instance, semi_naive,
                        strata=strata, budget=budget)
    return set(fixpoint.tuples(program.goal))


def entails_goal(program: Program, instance: Interpretation,
                 answer: tuple[Element, ...] = ()) -> bool:
    """Decide ``D |= Pi(answer)``."""
    return answer in goal_answers(program, instance)
