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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..analysis.sanitizers import chase_sanitizer
from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Const, Element, Null, Var
from ..obs import current_tracer
from ..queries.cq import CQ, UCQ
from ..runtime import Budget
from .rules import DisjunctiveRule, Head, convert_ontology


class ChaseError(RuntimeError):
    pass


@dataclass
class Branch:
    """One branch of the disjunctive chase."""

    interp: Interpretation
    depth: dict[Element, int]
    consistent: bool = True
    complete: bool = True
    _null_counter: int = 0

    def clone(self) -> "Branch":
        return Branch(
            interp=self.interp.copy(),
            depth=dict(self.depth),
            consistent=self.consistent,
            complete=self.complete,
            _null_counter=self._null_counter,
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


def match_conjunction(
    atoms: Sequence[Atom],
    interp: Interpretation,
    env: dict[Var, Element] | None = None,
) -> Iterator[dict[Var, Element]]:
    """Enumerate assignments making all atoms true (backtracking join).

    Atoms are ordered dynamically: each step continues with the pending
    atom whose ``(pred, position, value)`` index bucket is smallest under
    the bindings so far, so bound-variable-rich (and constant-rich) atoms
    run first and the join fails fast on empty buckets.
    """
    env = dict(env or {})
    pending = list(atoms)

    def bucket_size(atom: Atom) -> int:
        bound = []
        for pos, term in enumerate(atom.args):
            if isinstance(term, Var):
                value = env.get(term)
                if value is not None:
                    bound.append((pos, value))
            else:
                bound.append((pos, term))
        return len(interp.candidate_tuples(atom.pred, bound))

    def rec() -> Iterator[dict[Var, Element]]:
        if not pending:
            yield dict(env)
            return
        best = min(range(len(pending)), key=lambda i: bucket_size(pending[i]))
        atom = pending.pop(best)
        for ext in interp.match_atom(atom, env):
            env.update(ext)
            yield from rec()
            for v in ext:
                del env[v]
        pending.insert(best, atom)

    yield from rec()


def _head_satisfied(head: Head, interp: Interpretation, env: dict[Var, Element]) -> bool:
    """Is the head disjunct already satisfied under the body match?"""
    if not head.exist_vars:
        return all(
            Atom(a.pred, tuple(env[t] if isinstance(t, Var) else t for t in a.args)) in interp
            for a in head.atoms
        )
    witnesses: set[tuple[Element, ...]] = set()
    for ext in match_conjunction(head.atoms, interp, env):
        witnesses.add(tuple(ext[v] for v in head.exist_vars))
        if len(witnesses) >= head.count:
            return True
    return False


def _apply_head(branch: Branch, head: Head, env: dict[Var, Element]) -> None:
    """Add the head's atoms, with ``count`` fresh witness blocks."""
    base_depth = max((branch.depth.get(e, 0) for e in env.values()), default=0)
    for _block in range(head.count):
        mapping: dict[Var, Element] = dict(env)
        for v in head.exist_vars:
            mapping[v] = branch.fresh_null(base_depth + 1)
        for atom in head.atoms:
            args = tuple(mapping[t] if isinstance(t, Var) else t for t in atom.args)
            branch.interp.add(Atom(atom.pred, args))


def _rule_matches(
    rule: DisjunctiveRule,
    interp: Interpretation,
    domain: Sequence[Element],
    frontier: Sequence[Var],
) -> Iterator[dict[Var, Element]]:
    """Body matches extended over the active domain for frontier variables."""
    for env in match_conjunction(rule.body, interp):
        if not frontier:
            yield env
            continue
        for combo in itertools.product(domain, repeat=len(frontier)):
            yield {**env, **dict(zip(frontier, combo))}


def _enforce_functionality(branch: Branch, onto: Ontology) -> None:
    """Apply the EGDs for (inverse-)functional relations to a fixpoint."""
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
                for env in _rule_matches(rule, branch.interp, domain, frontier):
                    if any(_head_satisfied(h, branch.interp, env) for h in rule.heads):
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
