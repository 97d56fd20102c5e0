"""Squid-style decomposition of (U)CQs (Definition 5, Lemma 8/10).

The proof of Theorem 4 decomposes a UCQ into pairs ``(phi(~y), C)`` where
``phi`` is a "core" conjunction evaluated over the input instance and C is
a set of cg-tree decomposable side queries (rAQs after strengthening).
This module implements the executable core of that idea:

* :func:`component_split` — split a CQ into its Gaifman-connected
  components: the answer-variable components ("the body of the squid") and
  the Boolean components ("detached tentacles");
* :func:`tentacle_split` — within an answer component, peel off maximal
  cg-tree decomposable subqueries rooted at an answer variable (the
  tentacles); the remainder is the core;
* :func:`evaluate_split` — evaluate a CQ over a plain interpretation
  component-wise (exact; Boolean components are independent joins), used
  as a query-evaluation optimization and exercised against direct
  evaluation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.instance import Interpretation
from ..logic.syntax import Atom, Element, Var
from .cq import CQ


@dataclass(frozen=True)
class ComponentSplit:
    """A CQ split into connected components."""

    answer_components: tuple[CQ, ...]   # contain at least one answer variable
    boolean_components: tuple[CQ, ...]  # no answer variables

    @property
    def components(self) -> tuple[CQ, ...]:
        return self.answer_components + self.boolean_components


def component_split(query: CQ) -> ComponentSplit:
    """Split a CQ into its Gaifman-connected components."""
    # union-find over variables via shared atoms
    parent: dict[Var, Var] = {}

    def find(v: Var) -> Var:
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    def union(u: Var, v: Var) -> None:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    for atom in query.atoms:
        variables = [t for t in atom.args if isinstance(t, Var)]
        for u, v in zip(variables, variables[1:]):
            union(u, v)
        if variables:
            parent.setdefault(variables[0], variables[0])

    groups: dict[Var, list[Atom]] = {}
    for atom in query.atoms:
        variables = [t for t in atom.args if isinstance(t, Var)]
        root = find(variables[0])
        groups.setdefault(root, []).append(atom)

    answer_set = set(query.answer_vars)
    answer_components: list[CQ] = []
    boolean_components: list[CQ] = []
    for root, atoms in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        component_vars = {
            t for atom in atoms for t in atom.args if isinstance(t, Var)}
        answers = tuple(v for v in query.answer_vars if v in component_vars)
        sub = CQ(answers, atoms)
        if answers:
            answer_components.append(sub)
        else:
            boolean_components.append(sub)
    return ComponentSplit(tuple(answer_components), tuple(boolean_components))


@dataclass(frozen=True)
class TentacleSplit:
    """An answer component split into a core and rAQ tentacles."""

    core: CQ | None            # atoms not absorbed by any tentacle
    tentacles: tuple[CQ, ...]  # each is a rooted acyclic query


def tentacle_split(query: CQ) -> TentacleSplit:
    """Peel off maximal rAQ tentacles rooted at answer variables.

    A tentacle is a subquery hanging off a single answer variable whose
    removal disconnects it from the rest: the atoms reachable from the root
    without passing through another answer variable or a core atom.  The
    split is conservative — if the hanging part is not a rAQ it stays in
    the core.
    """
    answer_set = set(query.answer_vars)
    # adjacency between atoms via shared non-answer variables
    remaining = set(query.atoms)
    tentacles: list[CQ] = []
    for root in query.answer_vars:
        # grow the set of atoms reachable from `root` through existential
        # variables only
        grabbed: set[Atom] = set()
        frontier_vars = {root}
        changed = True
        while changed:
            changed = False
            for atom in list(remaining - grabbed):
                atom_vars = {t for t in atom.args if isinstance(t, Var)}
                if atom_vars & frontier_vars:
                    if atom_vars & (answer_set - {root}):
                        continue  # touches another answer variable: core
                    grabbed.add(atom)
                    frontier_vars |= atom_vars - answer_set
                    changed = True
        if not grabbed or grabbed == remaining and len(query.answer_vars) == 1:
            # grabbing everything is fine for single-rooted queries
            pass
        if not grabbed:
            continue
        candidate = CQ((root,), grabbed)
        if candidate.is_rooted_acyclic():
            tentacles.append(candidate)
            remaining -= grabbed
    core = CQ(query.answer_vars, remaining) if remaining else None
    if core is None and not tentacles:
        core = query
    return TentacleSplit(core, tuple(tentacles))


def evaluate_split(
    query: CQ,
    interp: Interpretation,
    answer: tuple[Element, ...],
) -> bool:
    """Component-wise evaluation of ``interp |= q(answer)`` (exact).

    Boolean components are independent of the answer tuple and of each
    other; answer components are evaluated with their projected tuples.
    """
    binding = query.bind(answer)
    if binding is None:
        return False
    split = component_split(query)
    for component in split.boolean_components:
        if not component.holds(interp):
            return False
    for component in split.answer_components:
        projected = tuple(binding[v] for v in component.answer_vars)
        if not component.holds(interp, projected):
            return False
    return True
