"""Bottom-up evaluation of Datalog(≠) programs.

Provides both semi-naive evaluation (the default) and naive evaluation
(full re-derivation each round; kept for the ablation benchmark and the
differential property suite).

The semi-naive join is *delta-driven*: for every rule and every relational
body-atom position, the backtracking join is seeded from the tuples derived
in the previous round, so per-round work is proportional to the new facts,
not the whole database.  Concretely, a rule body ``B1 & ... & Bn`` is
evaluated once per seed position ``i`` with

* ``Bi`` matched against the **delta** (facts new since the last round),
* ``Bj`` for ``j < i`` matched against the **old** facts only (full set
  minus delta), and
* ``Bj`` for ``j > i`` matched against the **full** fact set,

which partitions the assignments that touch at least one delta fact —
every such assignment is enumerated exactly once across the seeds.  Each
non-seed atom pulls its candidates from the interpretation's
``(pred, position, value)`` hash indexes (:class:`repro.logic.instance.
Interpretation`), never from a scan.

``join_counter`` counts candidate tuples touched; the differential test
suite uses it to assert that round work scales with ``|delta|`` and the
``datalog.round`` tracer spans record it per round for ``repro trace
summarize`` profiles.
"""

from __future__ import annotations

from typing import Iterator

from ..logic.instance import Interpretation
from ..logic.syntax import Atom, Element, Var
from ..obs import current_tracer
from .program import Neq, Program, Rule


class JoinCounter:
    """Join-work accounting: candidate tuples touched and body matches.

    ``candidates`` counts every tuple pulled from an index bucket and
    tested against the partial assignment — the unit of join work.  The
    module-global :data:`join_counter` is updated by every evaluation;
    tests reset it to prove semi-naive rounds scale with the delta.
    """

    __slots__ = ("candidates", "matches")

    def __init__(self) -> None:
        self.candidates = 0
        self.matches = 0

    def reset(self) -> None:
        self.candidates = 0
        self.matches = 0

    def snapshot(self) -> dict[str, int]:
        return {"candidates": self.candidates, "matches": self.matches}


#: Global join-work counters (reset via ``join_counter.reset()``).
join_counter = JoinCounter()


class _AtomPlan:
    """Pre-extracted match structure of one relational body atom."""

    __slots__ = ("pred", "consts", "var_terms")

    def __init__(self, atom: Atom):
        self.pred = atom.pred
        # (position, value) for constant/null arguments.
        self.consts = tuple(
            (pos, term) for pos, term in enumerate(atom.args)
            if not isinstance(term, Var))
        # (position, var) for variable arguments, repeats included.
        self.var_terms = tuple(
            (pos, term) for pos, term in enumerate(atom.args)
            if isinstance(term, Var))


def _check_neqs(neqs: tuple[Neq, ...], env: dict[Var, Element]) -> bool:
    for neq in neqs:
        left = neq.left
        if isinstance(left, Var):
            try:
                left = env[left]
            except KeyError:
                raise ValueError(
                    f"unsafe rule: inequality variable {left!r} is not "
                    "bound by any relational body atom") from None
        right = neq.right
        if isinstance(right, Var):
            try:
                right = env[right]
            except KeyError:
                raise ValueError(
                    f"unsafe rule: inequality variable {right!r} is not "
                    "bound by any relational body atom") from None
        if left == right:
            return False
    return True


def _seed_order(var_sets: list[frozenset[Var]], seed: int,
                ) -> tuple[int, ...]:
    """Join order for one seed, given each body atom's variables: the delta
    atom first, then greedily the atom sharing the most already-bound
    variables (fewest new variables, then authoring order, as
    tie-breaks)."""
    remaining = [i for i in range(len(var_sets)) if i != seed]
    order = [seed]
    bound = set(var_sets[seed])
    while remaining:
        def gain(i: int) -> tuple:
            vs = var_sets[i]
            return (-len(vs & bound), len(vs - bound), i)
        nxt = min(remaining, key=gain)
        order.append(nxt)
        remaining.remove(nxt)
        bound |= var_sets[nxt]
    return tuple(order)


def _join(
    plans: tuple[_AtomPlan, ...],
    order: tuple[int, ...],
    facts: Interpretation,
    delta: Interpretation | None,
    seed: int,
    neqs: tuple[Neq, ...],
) -> Iterator[dict[Var, Element]]:
    """Backtracking join over *order*; the atom at *seed* reads the delta,
    atoms before it (in authoring order) read old facts only."""
    env: dict[Var, Element] = {}
    counter = join_counter
    n = len(order)

    def rec(k: int) -> Iterator[dict[Var, Element]]:
        if k == n:
            if _check_neqs(neqs, env):
                counter.matches += 1
                yield dict(env)
            return
        j = order[k]
        plan = plans[j]
        rel = delta if (delta is not None and j == seed) else facts
        old_only = delta is not None and j < seed
        bound = list(plan.consts)
        for pos, v in plan.var_terms:
            value = env.get(v)
            if value is not None:
                bound.append((pos, value))
        for args in rel.candidate_tuples(plan.pred, bound):
            counter.candidates += 1
            if old_only and delta.has_tuple(plan.pred, args):
                continue  # already enumerated with an earlier seed
            newly = []
            ok = True
            for pos, c in plan.consts:
                value = args[pos]
                if value is not c and value != c:
                    ok = False
                    break
            if ok:
                for pos, v in plan.var_terms:
                    value = args[pos]
                    cur = env.get(v)
                    if cur is None:
                        env[v] = value
                        newly.append(v)
                    elif cur is not value and cur != value:
                        ok = False
                        break
            if ok:
                yield from rec(k + 1)
            for v in newly:
                del env[v]

    yield from rec(0)


class _RulePlan:
    """A rule body's join plan: its atom plans, inequality literals and the
    join order of every semi-naive seed.  Built once per rule and cached
    on it (see :func:`_rule_plan`)."""

    __slots__ = ("plans", "neqs", "seed_orders")

    def __init__(self, rule: Rule):
        atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
        self.plans = tuple(_AtomPlan(atom) for atom in atoms)
        self.neqs = tuple(lit for lit in rule.body if isinstance(lit, Neq))
        var_sets = [frozenset(t for t in atom.args if isinstance(t, Var))
                    for atom in atoms]
        self.seed_orders = tuple(_seed_order(var_sets, seed)
                                 for seed in range(len(atoms)))


def _rule_plan(rule: Rule) -> _RulePlan:
    # Built on first use and cached on the rule, the way Atom caches its
    # hash: not a dataclass field, so it takes no part in equality,
    # hashing or repr.
    plan = getattr(rule, "_join_plan", None)
    if plan is None:
        plan = _RulePlan(rule)
        object.__setattr__(rule, "_join_plan", plan)
    return plan


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
    rule_plan = _rule_plan(rule)
    plans, neqs = rule_plan.plans, rule_plan.neqs

    if delta is None:
        # Naive full join in authoring order (the optimizer's order_body
        # already placed bound-first atoms up front where it ran).
        yield from _join(plans, tuple(range(len(plans))), facts, None, -1,
                         neqs)
        return
    if not plans:
        # A body of builtins only: matches whenever the (constant)
        # inequalities do.  Firing is idempotent, so re-yielding each
        # round only re-derives an already-known head fact.
        if _check_neqs(neqs, {}):
            yield {}
        return
    for seed, order in enumerate(rule_plan.seed_orders):
        if delta.count(plans[seed].pred) == 0:
            continue
        yield from _join(plans, order, facts, delta, seed, neqs)


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
