"""The (disjunctive, restricted) chase for guarded existential rules.

Given an instance D and an ontology converted to disjunctive existential
rules, the chase explores all ways of repairing rule violations:

* a rule fires on a body match only if none of its head disjuncts is already
  satisfied (restricted chase),
* each head disjunct spawns one successor branch; fresh labelled nulls stand
  in for existential witnesses (``count`` blocks for counting heads),
* functionality declarations act as equality-generating dependencies that
  merge nulls (or fail on two distinct constants),
* integrity constraints (empty-headed rules) make a branch inconsistent.

Branch models form a universal family: every model of D and O contains a
homomorphic image of some branch (preserving dom(D)).  Consequently

* ``q`` certain  iff  ``q`` holds in every consistent branch,
* a *yes* derived from (even truncated) branches is definitive,
* a *no* is definitive only when some refuting branch was fully chased.

Nulls carry a creation depth; branches that would need nulls deeper than
``max_depth`` are truncated and marked incomplete.

Branches are explored depth-first, and triggers are found incrementally.
Each branch keeps an *agenda*: a heap of the active triggers found and
not yet fired, keyed by rule position and then discovery order, so the
first active trigger in rule order fires first.  A branch is scanned in
full when it is first expanded, and again only after an EGD merge
renames its elements.  After a firing, the triggers it creates are found
from the facts it added alone, with the match kernel's seeded delta join
(:meth:`repro.logic.match.Pattern.matches` with ``delta``); a rule with
frontier variables also pairs its other body matches with the frontier
tuples that hold an element the firing brought into the domain.  So no
trigger is found twice.  Head satisfaction is re-checked when a trigger
is popped, which keeps the chase restricted.  A one-head rule fires in
place; a k-head rule clones the branch, agenda included, k-1 times.
The EGDs are checked the same way: a firing can only violate one in the
key group of a fact it added, and only then are they run to a fixpoint
over the whole branch.

A query need not see every rule (:func:`repro.semantics.rules.split_rules`).
Given *deferred* rules, which only feed integrity constraints, the chase
branches on the other rules and settles each finished branch with a
depth-first search of the deferred ones for one consistent completion:
a disjunction the query cannot observe matters only through ⊥.  The
branch keeps none of the deferred facts, and the statements above hold
for queries over the predicates the exhaustive rules feed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from ..analysis.sanitizers import chase_sanitizer
from ..logic.instance import Interpretation
from ..logic.match import Pattern
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Const, Element, Null, Var
from ..obs import current_tracer
from ..queries.cq import CQ, UCQ
from ..runtime import Budget
from .rules import DisjunctiveRule, Head, convert_ontology


class ChaseError(RuntimeError):
    pass


class _Agenda:
    """A branch's active triggers not yet fired: a heap of ``(rule
    position, discovery number, env)``, so the first trigger in rule order
    pops first."""

    __slots__ = ("heap", "found")

    def __init__(self, heap: list | None = None, found: int = 0):
        self.heap = [] if heap is None else heap
        self.found = found

    def copy(self) -> "_Agenda":
        return _Agenda(list(self.heap), self.found)

    def push(self, pos: int, env: dict[Var, Element]) -> None:
        heapq.heappush(self.heap, (pos, self.found, env))
        self.found += 1


@dataclass
class Branch:
    """One branch of the disjunctive chase."""

    interp: Interpretation
    depth: dict[Element, int]
    consistent: bool = True
    complete: bool = True
    _null_counter: int = 0
    # None until the branch's first full scan, and again after an EGD
    # merge renames its elements or the branch runs out of triggers.
    agenda: _Agenda | None = field(default=None, repr=False, compare=False)

    def clone(self) -> "Branch":
        return Branch(
            interp=self.interp.copy(),
            depth=dict(self.depth),
            consistent=self.consistent,
            complete=self.complete,
            _null_counter=self._null_counter,
            agenda=None if self.agenda is None else self.agenda.copy(),
        )

    def fresh_null(self, creation_depth: int) -> Null:
        self._null_counter += 1
        null = Null(f"c{self._null_counter}")
        self.depth[null] = creation_depth
        return null


@dataclass
class ChaseResult:
    """All branches produced by the chase."""

    branches: list[Branch]
    rules: list[DisjunctiveRule]
    max_depth: int

    def consistent_branches(self) -> list[Branch]:
        return [b for b in self.branches if b.consistent]

    @property
    def is_consistent(self) -> bool:
        return bool(self.consistent_branches())

    @property
    def fully_chased(self) -> bool:
        return all(b.complete for b in self.branches)

    def universal_model(self) -> Interpretation:
        """The single branch model of a deterministic (Horn) chase."""
        consistent = self.consistent_branches()
        if len(consistent) != 1:
            raise ChaseError(
                f"no unique universal model: {len(consistent)} consistent branches")
        branch = consistent[0]
        if not branch.complete:
            raise ChaseError("chase truncated; increase max_depth")
        return branch.interp


class _RulePlan(NamedTuple):
    body: Pattern
    heads: tuple[Pattern, ...]
    frontier: tuple[Var, ...]  # frontier variables, in enumeration order


def _plan(rule: DisjunctiveRule) -> _RulePlan:
    """The rule's body pattern, one pattern per head and its frontier
    order, compiled on first use and cached on the rule (not a dataclass
    field, so it takes no part in equality, hashing or repr).  A head is
    matched with the body and frontier variables bound, so those count as
    bound in its join order."""
    plan = getattr(rule, "_chase_plan", None)
    if plan is None:
        frontier = tuple(sorted(rule.frontier_vars()))
        bound = rule.body_vars() | set(frontier)
        plan = _RulePlan(Pattern(rule.body),
                         tuple(Pattern(head.atoms, bound=bound)
                               for head in rule.heads),
                         frontier)
        object.__setattr__(rule, "_chase_plan", plan)
    return plan


def _rule_patterns(rule: DisjunctiveRule) -> tuple[Pattern, tuple[Pattern, ...]]:
    """The rule's body pattern and one pattern per head (see :func:`_plan`)."""
    plan = _plan(rule)
    return plan.body, plan.heads


def _head_satisfied(head: Head, pattern: Pattern, interp: Interpretation,
                    env: dict[Var, Element]) -> bool:
    """Is the head disjunct already satisfied under the body match?"""
    if not head.exist_vars:
        return all(
            Atom(a.pred, tuple(env[t] if isinstance(t, Var) else t for t in a.args)) in interp
            for a in head.atoms
        )
    witnesses: set[tuple[Element, ...]] = set()
    for ext in pattern.matches(interp, env):
        witnesses.add(tuple(ext[v] for v in head.exist_vars))
        if len(witnesses) >= head.count:
            return True
    return False


def _apply_head(branch: Branch, head: Head,
                env: dict[Var, Element]) -> list[Atom]:
    """Add the head's atoms, with ``count`` fresh witness blocks; returns
    the facts that were new."""
    base_depth = max((branch.depth.get(e, 0) for e in env.values()), default=0)
    interp = branch.interp
    added: list[Atom] = []
    for _block in range(head.count):
        mapping: dict[Var, Element] = dict(env)
        for v in head.exist_vars:
            mapping[v] = branch.fresh_null(base_depth + 1)
        for atom in head.atoms:
            args = tuple(mapping[t] if isinstance(t, Var) else t for t in atom.args)
            fact, size = Atom(atom.pred, args), len(interp)
            interp.add(fact)
            if len(interp) > size:
                added.append(fact)
    return added


def _rule_matches(
    body: Pattern,
    interp: Interpretation,
    domain: Sequence[Element] | None,
    frontier: Sequence[Var],
    delta: Interpretation | None = None,
    fresh: Sequence[Element] = (),
) -> Iterator[dict[Var, Element]]:
    """Body matches extended over the active domain for frontier variables
    (*domain*, sorted by ``repr``; ``None`` to sort it when first needed).

    With *delta*, the facts a firing just added to *interp*, and *fresh*,
    the elements they brought into its domain (:func:`_fresh_elements`),
    only the matches that are new: the body matches that use a fact of
    *delta* (the seeded delta join, seeded at each body atom over a
    predicate of *delta*) under every frontier tuple, and the other body
    matches under the frontier tuples that hold a *fresh* element.  None
    is found twice."""
    if delta is None:
        envs: Iterator[dict[Var, Element]] = body.matches(interp)
    else:
        envs = itertools.chain.from_iterable(
            body.matches(interp, delta=delta, seed=i)
            for i, atom in enumerate(body.atoms) if delta.count(atom.pred))
    if not frontier:
        yield from envs
        return
    arity = len(frontier)
    extended = set()  # the body matches already paired with every tuple
    for env in envs:
        if domain is None:
            domain = sorted(interp.dom(), key=repr)
        if fresh:
            extended.add(frozenset(env.items()))
        for combo in itertools.product(domain, repeat=arity):
            yield {**env, **dict(zip(frontier, combo))}
    if delta is None or not fresh:
        return
    if arity > 1 and domain is None:
        domain = sorted(interp.dom(), key=repr)
    combos = _tuples_holding(fresh, domain, arity)
    for env in body.matches(interp):
        if frozenset(env.items()) in extended:
            continue
        for combo in combos:
            yield {**env, **dict(zip(frontier, combo))}


def _tuples_holding(fresh: Sequence[Element],
                    domain: Sequence[Element] | None,
                    arity: int) -> list[tuple[Element, ...]]:
    """The *arity*-tuples over *domain* that hold an element of *fresh*
    (a part of *domain*, which only an arity above 1 reads), each once:
    the first fresh element at position i, the elements before it old."""
    if arity == 1:
        return [(e,) for e in fresh]
    new = set(fresh)
    old = [e for e in domain if e not in new]
    return [(*before, e, *after)
            for i in range(arity)
            for before in itertools.product(old, repeat=i)
            for e in fresh
            for after in itertools.product(domain, repeat=arity - i - 1)]


def _fresh_elements(interp: Interpretation,
                    delta: Interpretation) -> list[Element]:
    """The elements that the facts *delta*, just added to *interp*, brought
    into its domain: those in no other fact of *interp* (sorted by
    ``repr``)."""
    return sorted((e for e in delta.dom()
                   if interp.occurrences(e) == delta.occurrences(e)),
                  key=repr)


def _discover(agenda: _Agenda, rules: Sequence[DisjunctiveRule],
              interp: Interpretation,
              delta: Interpretation | None = None) -> None:
    """Push the active triggers of *rules* on *interp* onto *agenda*.

    Without *delta* every one is found: a full scan.  With *delta*, the
    facts a firing just added to *interp*, only the triggers the firing
    created (:func:`_rule_matches`): those whose body match uses one of
    them and, for a rule with frontier variables, which range over the
    whole domain, those whose frontier tuple holds an element they
    brought into the domain.
    """
    fresh: list[Element] | None = None
    for pos, rule in enumerate(rules):
        body, heads, frontier = _plan(rule)
        if frontier and delta is not None and fresh is None:
            fresh = _fresh_elements(interp, delta)
        for env in _rule_matches(body, interp, None, frontier, delta,
                                 fresh or ()):
            if not any(_head_satisfied(h, p, interp, env)
                       for h, p in zip(rule.heads, heads)):
                agenda.push(pos, env)


def _enforce_functionality(branch: Branch, onto: Ontology,
                           added: Sequence[Atom] | None = None) -> None:
    """Apply the EGDs for (inverse-)functional relations to a fixpoint.

    With *added*, the facts a firing just added to a branch that was
    EGD-clean before it, only a key group holding one of them can be
    violated: when none of those groups holds two values the branch is
    still clean and nothing else is read.  Otherwise, and without
    *added*, every tuple of every such relation is read to a fixpoint.
    """
    if added is not None and not _violates_functionality(
            branch.interp, onto, added):
        return
    changed = True
    while changed and branch.consistent:
        changed = False
        for rel in onto.functional:
            changed |= _merge_pairs(branch, rel, key_pos=0)
            if not branch.consistent:
                return
        for rel in onto.inverse_functional:
            changed |= _merge_pairs(branch, rel, key_pos=1)
            if not branch.consistent:
                return


def _violates_functionality(interp: Interpretation, onto: Ontology,
                            added: Sequence[Atom]) -> bool:
    """Does the key group of some fact in *added* hold two values?"""
    for fact in added:
        for roles, key_pos in ((onto.functional, 0),
                               (onto.inverse_functional, 1)):
            if fact.pred in roles:
                group = interp.candidate_tuples(
                    fact.pred, [(key_pos, fact.args[key_pos])])
                # A second tuple under the fact's key: a second value.
                if next(itertools.islice(group, 1, None), None) is not None:
                    return True
    return False


def _merge_pairs(branch: Branch, rel: str, key_pos: int) -> bool:
    groups: dict[Element, set[Element]] = {}
    for args in branch.interp.tuples(rel):
        key, value = args[key_pos], args[1 - key_pos]
        groups.setdefault(key, set()).add(value)
    for key, values in groups.items():
        if len(values) < 2:
            continue
        constants = [v for v in values if isinstance(v, Const)]
        if len(constants) >= 2:
            branch.consistent = False
            return True
        target = constants[0] if constants else sorted(values, key=repr)[0]
        mapping = {v: target for v in values if v != target}
        branch.interp = branch.interp.rename(mapping)
        for old in mapping:
            branch.depth.pop(old, None)
        return True
    return False


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

    Each branch is expanded from its agenda (module docstring): a full
    scan of the rules when the branch is first expanded or after an EGD
    merge, otherwise only the triggers the previous firing's new facts
    create.  The search's root gets its own copy of the branch's facts,
    since a one-head rule fires in place.
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
    egd_preds = onto.functional | onto.inverse_functional
    faulted = budget is not None and bool(budget.faults)

    def fire(branch: Branch, head: Head, env: dict[Var, Element],
             rule_set: Sequence[DisjunctiveRule]) -> None:
        """Apply *head* under *env* to *branch* in place, restore the
        EGDs, and queue the triggers the new facts create."""
        interp = branch.interp
        added = _apply_head(branch, head, env)
        if any(fact.pred in egd_preds for fact in added):
            _enforce_functionality(branch, onto, added)
            if branch.interp is not interp:
                branch.agenda = None  # merged: rescan the renamed branch
        if branch.consistent and branch.agenda is not None:
            _discover(branch.agenda, rule_set, interp, Interpretation(added))
        if san and branch.consistent:
            san.check_branch(branch, onto, max_depth, base_dom)

    def expand(branch: Branch,
               rule_set: Sequence[DisjunctiveRule]) -> list[Branch] | None:
        """Fire the first active trigger of *rule_set* on *branch*.  Returns
        its successor branches (``[branch]``, fired in place, for a
        one-head rule); ``[]`` when a constraint fired (the branch is then
        inconsistent); ``None`` when no trigger can fire (those cut off by
        the depth bound mark the branch incomplete)."""
        nonlocal steps
        if budget is not None:
            budget.check_deadline("chase")
        if len(branch.interp) > max_facts:
            raise ChaseError(f"branch exceeded {max_facts} facts")
        agenda = branch.agenda
        if agenda is None:
            agenda = branch.agenda = _Agenda()
            _discover(agenda, rule_set, branch.interp)
        while agenda.heap:
            pos, _, env = heapq.heappop(agenda.heap)
            rule = rule_set[pos]
            if any(_head_satisfied(h, p, branch.interp, env)
                   for h, p in zip(rule.heads, _plan(rule).heads)):
                continue
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
            successors = [branch.clone() for _ in rule.heads[1:]] + [branch]
            for head, succ in zip(rule.heads, successors):
                fire(succ, head, env, rule_set)
            return successors
        if san:
            san.check_quiescent(branch, rule_set, max_depth, faulted)
        branch.agenda = None
        return None

    def completes(branch: Branch) -> bool:
        """Does some completion of *branch* under *deferred* stay
        consistent?  Marks *branch* incomplete when only truncated
        completions do."""
        nonlocal search_nodes
        stack = [Branch(branch.interp.copy(), dict(branch.depth),
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


@dataclass(frozen=True)
class ChaseAnswer:
    holds: bool
    definitive: bool
    refuting_branch: Interpretation | None = None


def answer_from_chase(
    result: ChaseResult,
    query: CQ | UCQ,
    answer: Sequence[Element] = (),
) -> ChaseAnswer:
    """Read off the certain-answer verdict from an already-run chase.

    *no* is definitive when **any** complete consistent branch refutes the
    tuple, wherever it sits among the branches; a refutation found only
    on truncated branches is not.
    """
    consistent = result.consistent_branches()
    if not consistent:
        # D is inconsistent w.r.t. O: every tuple is a certain answer.
        return ChaseAnswer(True, result.fully_chased)
    answer = tuple(answer)
    truncated_refutation: Interpretation | None = None
    for branch in consistent:
        if query.holds(branch.interp, answer):
            continue
        if branch.complete:
            return ChaseAnswer(False, True, branch.interp)
        if truncated_refutation is None:
            truncated_refutation = branch.interp
    if truncated_refutation is not None:
        return ChaseAnswer(False, False, truncated_refutation)
    return ChaseAnswer(True, True)


def chase_certain_answer(
    onto: Ontology,
    instance: Interpretation,
    query: CQ | UCQ,
    answer: Sequence[Element] = (),
    max_depth: int = 6,
    rules: list[DisjunctiveRule] | None = None,
    budget: Budget | None = None,
) -> ChaseAnswer:
    """Certain-answer check via the disjunctive chase (see module docstring)."""
    result = chase(onto, instance, rules=rules, max_depth=max_depth,
                   budget=budget)
    return answer_from_chase(result, query, answer)
