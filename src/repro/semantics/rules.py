"""Conversion of guarded sentences into disjunctive existential rules.

The chase engine (:mod:`repro.semantics.chase`) operates on rules of the form

    body-atoms  ->  H_1 | ... | H_k

where the body is a conjunction of relational atoms and every head H_i is a
conjunction of atoms over body variables plus fresh existential variables
(a counting head requests ``count`` distinct witness blocks).  An empty list
of heads is an integrity constraint (the body must not match).

Many uGF/uGC2 sentences normalize to this shape: negated atoms in a positive
disjunction move into the body, nested guarded universals extend the body,
and guarded (counting) existentials become heads.  :func:`convert_ontology`
returns ``None`` when a sentence falls outside the convertible class; the
caller then falls back to the SAT-based backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..logic.ontology import Ontology
from ..logic.syntax import (
    And, Atom, Bottom, CountExists, Eq, Exists, Forall, Formula, Not, Or,
    Top, Var, nnf,
)


@dataclass(frozen=True)
class Head:
    """One disjunct of a rule head."""

    atoms: tuple[Atom, ...]
    exist_vars: tuple[Var, ...]
    count: int = 1  # number of distinct witness blocks (for exists>=n)

    def __repr__(self) -> str:
        inner = " & ".join(map(repr, self.atoms)) or "true"
        if self.exist_vars:
            vs = ",".join(v.name for v in self.exist_vars)
            prefix = f"exists{'>=' + str(self.count) if self.count > 1 else ''} {vs} "
            return prefix + f"({inner})"
        return inner


@dataclass(frozen=True)
class DisjunctiveRule:
    """``body -> head_1 | ... | head_k`` (k = 0 is an integrity constraint)."""

    body: tuple[Atom, ...]
    heads: tuple[Head, ...]

    def body_vars(self) -> frozenset[Var]:
        out: set[Var] = set()
        for atom in self.body:
            out.update(a for a in atom.args if isinstance(a, Var))
        return frozenset(out)

    def frontier_vars(self) -> frozenset[Var]:
        """Universal variables used in heads but not bound by the body.

        These arise from equality-guarded sentences (``forall x (x=x ->
        ...)``) and must range over the active domain when the rule fires.
        """
        used: set[Var] = set()
        for head in self.heads:
            evars = set(head.exist_vars)
            for atom in head.atoms:
                used.update(
                    a for a in atom.args
                    if isinstance(a, Var) and a not in evars
                )
        return frozenset(used) - self.body_vars()

    def is_constraint(self) -> bool:
        return not self.heads

    def is_disjunctive(self) -> bool:
        return len(self.heads) > 1

    def __repr__(self) -> str:
        body = " & ".join(map(repr, self.body)) or "true"
        heads = " | ".join(map(repr, self.heads)) or "false"
        return f"{body} -> {heads}"


@dataclass(frozen=True)
class RuleSplit:
    """The rules one query needs, in the three roles the chase gives them.

    *exhaustive* rules can feed the query's predicates, so the chase
    branches on them; *deferred* rules only feed integrity constraints,
    so one consistent completion of them settles a branch; *pruned* rules
    can feed neither and never fire.
    """

    exhaustive: tuple[DisjunctiveRule, ...]
    deferred: tuple[DisjunctiveRule, ...]
    pruned: tuple[DisjunctiveRule, ...]


def _backward_closure(rules: Sequence[DisjunctiveRule],
                      seed: Iterable[str]) -> frozenset[str]:
    """*seed* closed under: a rule with a head predicate in the set puts
    its body predicates in the set."""
    edges: dict[str, set[str]] = {}
    for rule in rules:
        for head in rule.heads:
            for atom in head.atoms:
                edges.setdefault(atom.pred, set()).update(
                    a.pred for a in rule.body)
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        for dep in edges.get(frontier.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                frontier.append(dep)
    return frozenset(seen)


def split_rules(rules: Sequence[DisjunctiveRule],
                visible: Iterable[str]) -> RuleSplit:
    """Split *rules* for a query over the predicates *visible* (the query's
    predicates plus the ontology's (inverse-)functional roles, whose EGDs
    merge elements of visible facts).

    Q is *visible* closed backwards over the rules, C the same closure
    started from Q plus every constraint body.  Rules with a head
    predicate in Q, and constraints whose body lies in Q, are exhaustive;
    the other rules with a head predicate in C, and the other constraints,
    are deferred; the rest are pruned.  A kept rule with frontier
    variables ranges over every element, including the nulls a deferred
    search creates, so then nothing is deferred.
    """
    def body(rule: DisjunctiveRule) -> set[str]:
        return {a.pred for a in rule.body}

    def heads(rule: DisjunctiveRule) -> set[str]:
        return {a.pred for h in rule.heads for a in h.atoms}

    q_preds = _backward_closure(rules, visible)
    c_preds = _backward_closure(rules, q_preds.union(
        *(body(r) for r in rules if r.is_constraint())))
    roles: list[tuple[DisjunctiveRule, str]] = []
    for rule in rules:
        if rule.is_constraint():
            role = "exhaustive" if body(rule) <= q_preds else "deferred"
        elif heads(rule) & q_preds:
            role = "exhaustive"
        elif heads(rule) & c_preds:
            role = "deferred"
        else:
            role = "pruned"
        roles.append((rule, role))
    if any(rule.frontier_vars() for rule, role in roles if role != "pruned"):
        roles = [(rule, "pruned" if role == "pruned" else "exhaustive")
                 for rule, role in roles]
    return RuleSplit(*(tuple(rule for rule, role in roles if role == wanted)
                       for wanted in ("exhaustive", "deferred", "pruned")))


class NotConvertible(Exception):
    """The sentence does not fit the disjunctive-rule fragment."""


def convert_sentence(sentence: Formula) -> list[DisjunctiveRule]:
    """Convert one uGF/uGC2 sentence; raises :class:`NotConvertible`."""
    if not isinstance(sentence, Forall):
        raise NotConvertible(f"not a universal sentence: {sentence!r}")
    body_atoms: list[Atom] = []
    if isinstance(sentence.guard, Atom):
        body_atoms.append(sentence.guard)
    elif isinstance(sentence.guard, Eq) or sentence.guard is None:
        pass  # equality/absent guard: the body is whatever the matrix gives
    else:
        raise NotConvertible(f"unsupported guard {sentence.guard!r}")
    matrix = nnf(sentence.body)
    rules: list[DisjunctiveRule] = []
    _convert_matrix(matrix, body_atoms, rules, frozenset(sentence.vars))
    return rules


def _convert_matrix(
    phi: Formula,
    body: list[Atom],
    rules: list[DisjunctiveRule],
    scope: frozenset[Var],
) -> None:
    """Accumulate rules for ``body -> phi`` (phi in NNF)."""
    if isinstance(phi, Top):
        return
    if isinstance(phi, Bottom):
        rules.append(DisjunctiveRule(tuple(body), ()))
        return
    if isinstance(phi, And):
        for conjunct in phi.conjuncts:
            _convert_matrix(conjunct, body, rules, scope)
        return
    if isinstance(phi, Forall):
        if not isinstance(phi.guard, Atom):
            raise NotConvertible(f"inner universal without atom guard: {phi!r}")
        _convert_matrix(phi.body, body + [phi.guard], rules,
                        scope | frozenset(phi.vars))
        return
    # Everything else is treated as a disjunction of head candidates.
    disjuncts = list(phi.disjuncts) if isinstance(phi, Or) else [phi]
    extra_body: list[Atom] = []
    positives: list[Formula] = []
    for d in disjuncts:
        if isinstance(d, Not):
            if isinstance(d.sub, Atom):
                extra_body.append(d.sub)
                continue
            raise NotConvertible(f"negative non-atom disjunct: {d!r}")
        positives.append(d)
    if len(positives) == 1 and isinstance(positives[0], (Forall, And)):
        # A single positive disjunct may be structured (e.g. a nested
        # universal): recurse with the negatives folded into the body.
        _convert_matrix(positives[0], body + extra_body, rules, scope)
        return
    heads = [_to_head(d) for d in positives]
    rules.append(DisjunctiveRule(tuple(body + extra_body), tuple(heads)))


def _to_head(phi: Formula) -> Head:
    """A positive disjunct becomes a head; flattens nested existentials."""
    if isinstance(phi, Atom):
        return Head((phi,), ())
    if isinstance(phi, Exists):
        atoms, evars = _flatten_positive(phi)
        return Head(tuple(atoms), tuple(evars))
    if isinstance(phi, CountExists):
        inner_atoms, inner_vars = _flatten_positive(phi.body)
        return Head(
            tuple([phi.guard] + inner_atoms),
            tuple([phi.var] + inner_vars),
            count=phi.n,
        )
    if isinstance(phi, And):
        # conjunction of atoms (no quantifiers) as a head
        atoms: list[Atom] = []
        for c in phi.conjuncts:
            if isinstance(c, Atom):
                atoms.append(c)
            else:
                raise NotConvertible(f"complex conjunct in head: {c!r}")
        return Head(tuple(atoms), ())
    raise NotConvertible(f"unsupported head shape: {phi!r}")


def _flatten_positive(phi: Formula) -> tuple[list[Atom], list[Var]]:
    """Flatten a positive existential formula into atoms + witness vars."""
    if isinstance(phi, Exists):
        atoms: list[Atom] = []
        evars = list(phi.vars)
        if phi.guard is not None:
            if not isinstance(phi.guard, Atom):
                raise NotConvertible(f"equality guard in head: {phi!r}")
            atoms.append(phi.guard)
        inner_atoms, inner_vars = _flatten_positive(phi.body)
        return atoms + inner_atoms, evars + inner_vars
    if isinstance(phi, CountExists):
        if phi.n != 1:
            raise NotConvertible("nested counting in head")
        inner_atoms, inner_vars = _flatten_positive(phi.body)
        return [phi.guard] + inner_atoms, [phi.var] + inner_vars
    if isinstance(phi, And):
        atoms = []
        evars: list[Var] = []
        for c in phi.conjuncts:
            a, v = _flatten_positive(c)
            atoms += a
            evars += v
        return atoms, evars
    if isinstance(phi, Atom):
        return [phi], []
    if isinstance(phi, Top):
        return [], []
    raise NotConvertible(f"non-positive formula in head: {phi!r}")


def render_rules(rules: Iterable[DisjunctiveRule]) -> str:
    """A canonical, order-independent rendering of a rule set.

    Used by the serving layer (:mod:`repro.serving`) to describe compiled
    plans and by tests to compare conversions structurally.
    """
    return "\n".join(sorted(repr(rule) for rule in rules))


def convert_ontology(onto: Ontology) -> list[DisjunctiveRule] | None:
    """Convert all sentences, or return None if any falls outside the class.

    Functionality declarations are *not* encoded here; the chase engine
    enforces them natively as equality-generating dependencies.

    Conversion is pure and deterministic; callers that construct many
    engines over the same ontology should go through the memoizing
    :func:`repro.serving.cache.convert_ontology_cached` (the
    :class:`~repro.semantics.certain.CertainEngine` does so by default).
    """
    rules: list[DisjunctiveRule] = []
    try:
        for sentence in onto.sentences:
            rules.extend(convert_sentence(sentence))
    except NotConvertible:
        return None
    return rules
