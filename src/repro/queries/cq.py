"""Conjunctive queries, unions of conjunctive queries, and rooted acyclic queries.

A CQ ``q(x1,...,xk) <- phi`` is stored as a set of relational atoms over
variables together with the tuple of answer variables.  The canonical
database D_q replaces each variable by a constant (Section 2); ``q(a)``
holds in an interpretation iff D_q maps into it homomorphically with the
answer variables sent to ``a``.  Evaluation matches the query's own atoms
with the shared join kernel (:mod:`repro.logic.match`) under that answer
binding.

A *rooted acyclic query* (rAQ) is a CQ whose canonical database has a
connected guarded tree decomposition with the answer variables at the root
(Section 2.2); :meth:`CQ.is_rooted_acyclic` implements the test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..logic.instance import Interpretation
from ..logic.match import Pattern
from ..logic.syntax import (
    And, Atom, Const, Element, Eq, Exists, Formula, Term, Top, Var,
)


class QueryError(ValueError):
    """Raised for malformed queries."""


@dataclass(frozen=True)
class CQ:
    """A conjunctive query with explicit answer variables."""

    answer_vars: tuple[Var, ...]
    atoms: frozenset[Atom]

    def __init__(self, answer_vars: Sequence[Var], atoms: Iterable[Atom]):
        object.__setattr__(self, "answer_vars", tuple(answer_vars))
        object.__setattr__(self, "atoms", frozenset(atoms))
        all_vars = self.variables()
        for v in self.answer_vars:
            if v not in all_vars:
                raise QueryError(f"answer variable {v!r} not in query body")
        for atom in self.atoms:
            for arg in atom.args:
                if not isinstance(arg, Var):
                    raise QueryError(f"CQ atoms must use variables, got {arg!r}")

    @property
    def arity(self) -> int:
        return len(self.answer_vars)

    def variables(self) -> frozenset[Var]:
        out: set[Var] = set()
        for atom in self.atoms:
            out.update(a for a in atom.args if isinstance(a, Var))
        return frozenset(out)

    def existential_vars(self) -> frozenset[Var]:
        return self.variables() - frozenset(self.answer_vars)

    def canonical_database(self, prefix: str = "q_") -> tuple[Interpretation, dict[Var, Const]]:
        """The canonical database D_q and the variable-to-constant map."""
        mapping = {v: Const(f"{prefix}{v.name}") for v in sorted(self.variables())}
        inst = Interpretation()
        for atom in self.atoms:
            inst.add(Atom(atom.pred, tuple(mapping[a] for a in atom.args)))  # type: ignore[index]
        return inst, mapping

    def answers(self, interp: Interpretation) -> set[tuple[Element, ...]]:
        """All answer tuples of the query in *interp*."""
        out: set[tuple[Element, ...]] = set()
        for env in self._patterns()[0].matches(interp):
            out.add(tuple(env[v] for v in self.answer_vars))
        return out

    def holds(self, interp: Interpretation, answer: Sequence[Element] = ()) -> bool:
        """Decide ``interp |= q(answer)``."""
        binding = self.bind(answer)
        if binding is None:
            return False
        for _ in self._patterns()[1].matches(interp, binding):
            return True
        return False

    def bind(self, answer: Sequence[Element]) -> dict[Var, Element] | None:
        """The answer variables bound to *answer*, or None when a repeated
        answer variable would take two different values (no match can
        then produce the tuple)."""
        answer = tuple(answer)
        if len(answer) != self.arity:
            raise QueryError(
                f"expected {self.arity} answer elements, got {len(answer)}")
        binding: dict[Var, Element] = {}
        for v, e in zip(self.answer_vars, answer):
            if binding.setdefault(v, e) != e:
                return None
        return binding

    def _patterns(self) -> tuple[Pattern, Pattern]:
        # The query's atoms compiled with no variable bound (answers) and
        # with the answer variables bound (holds), cached on the query.
        # Sorted by repr so the join order does not depend on the hash
        # seed.
        patterns = getattr(self, "_match_patterns", None)
        if patterns is None:
            atoms = sorted(self.atoms, key=repr)
            patterns = (Pattern(atoms), Pattern(atoms, bound=self.answer_vars))
            object.__setattr__(self, "_match_patterns", patterns)
        return patterns

    # -- structural tests ------------------------------------------------------

    def is_boolean(self) -> bool:
        return self.arity == 0

    def is_connected(self) -> bool:
        """True if the canonical database is Gaifman-connected."""
        db, _ = self.canonical_database()
        return len(db.connected_components()) <= 1

    def is_rooted_acyclic(self) -> bool:
        """Test the rAQ condition of Section 2.2.

        The query must be non-Boolean and D_q must have a connected guarded
        tree decomposition whose root bag's domain is exactly the set of
        answer variables.  We use the characterization that such a
        decomposition exists iff (i) the answer variables form a guarded set
        and (ii) the hypergraph of guarded sets can be "dismantled" towards
        the root by repeatedly removing leaf bags, i.e. the query is
        guarded-acyclic.  We implement the test by attempting to build the
        decomposition greedily, which is complete for guarded acyclicity.
        """
        if self.is_boolean():
            return False
        db, var_map = self.canonical_database()
        root = frozenset(var_map[v] for v in self.answer_vars)
        if not db.is_guarded_tuple(sorted(root, key=repr)) and len(root) > 1:
            return False
        if len(root) == 1 and next(iter(root)) not in db.dom():
            return False
        return _has_rooted_guarded_tree_decomposition(db, root)

    def to_formula(self) -> Formula:
        """The query as a first-order formula (existential closure of body)."""
        body: Formula = And.of(*sorted(self.atoms, key=repr)) if self.atoms else Top()
        evs = tuple(sorted(self.existential_vars()))
        if evs:
            body = Exists(evs, None, body)
        return body

    def rename_apart(self, taken: Iterable[Var]) -> "CQ":
        """Rename non-answer variables to avoid clashing with *taken*."""
        taken_names = {v.name for v in taken} | {v.name for v in self.answer_vars}
        mapping: dict[Term, Term] = {}
        counter = 0
        for v in sorted(self.existential_vars()):
            if v.name in taken_names:
                while f"v{counter}" in taken_names:
                    counter += 1
                mapping[v] = Var(f"v{counter}")
                taken_names.add(f"v{counter}")
        if not mapping:
            return self
        atoms = {a.substitute(mapping) for a in self.atoms}
        return CQ(self.answer_vars, atoms)

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        body = " & ".join(sorted(repr(a) for a in self.atoms))
        return f"q({head}) <- {body}"


@dataclass(frozen=True)
class UCQ:
    """A union of conjunctive queries; all disjuncts share the arity."""

    disjuncts: tuple[CQ, ...]

    def __init__(self, disjuncts: Sequence[CQ]):
        if not disjuncts:
            raise QueryError("a UCQ needs at least one disjunct")
        arities = {d.arity for d in disjuncts}
        if len(arities) != 1:
            raise QueryError(f"disjuncts have mixed arities {arities}")
        object.__setattr__(self, "disjuncts", tuple(disjuncts))

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def answers(self, interp: Interpretation) -> set[tuple[Element, ...]]:
        out: set[tuple[Element, ...]] = set()
        for d in self.disjuncts:
            out |= d.answers(interp)
        return out

    def holds(self, interp: Interpretation, answer: Sequence[Element] = ()) -> bool:
        return any(d.holds(interp, answer) for d in self.disjuncts)

    def __repr__(self) -> str:
        return " , ".join(repr(d) for d in self.disjuncts)


def _has_rooted_guarded_tree_decomposition(
    db: Interpretation,
    root: frozenset,
) -> bool:
    """Decide existence of a cg-tree decomposition rooted at *root*.

    Uses the standard "running intersection" construction: pick the guarded
    sets of the canonical database as candidate bags and search for a tree
    over (a subset of) them that covers all facts, keeps occurrences of each
    element connected, and has *root* as the root bag's domain.  The search
    is exponential in the number of maximal guarded sets, which is fine for
    the query sizes used in OMQ work.
    """
    bags = sorted(db.maximal_guarded_sets(), key=repr)
    if root not in db.guarded_sets() and len(root) > 1:
        return False
    # Every fact must fit inside some bag; bags are maximal guarded sets so
    # this holds by construction, but facts spanning no bag mean failure.
    for fact in db:
        if not any(set(fact.args) <= bag for bag in bags):
            return False
    root_bags = [b for b in bags if root <= b]
    if not root_bags:
        return False
    # Grow a tree from each possible root bag; a bag can be attached if it
    # intersects the connected part already built and the intersection is
    # contained in its parent bag (running intersection property for trees
    # built by adding leaves).
    for root_bag in root_bags:
        if root_bag != root and root != root_bag:
            pass
        # The root bag's domain must equal the answer variable set.
        if root_bag != root:
            continue
        if _grow_tree(bags, root_bag):
            return True
    # Also allow the root bag to be exactly `root` even if not maximal.
    if root in db.guarded_sets() and root not in bags:
        if _grow_tree(bags + [root], root):
            return True
    return False


def _grow_tree(bags: list[frozenset], root_bag: frozenset) -> bool:
    """Greedy attachment with the running-intersection property."""
    remaining = [b for b in bags if b != root_bag]
    in_tree: list[frozenset] = [root_bag]
    covered: set = set(root_bag)
    progress = True
    while remaining and progress:
        progress = False
        for bag in list(remaining):
            inter = bag & covered
            if not inter:
                continue
            # The intersection with everything placed so far must sit inside
            # a single existing bag (so the bag can hang off it as a child).
            if any(inter <= parent for parent in in_tree):
                in_tree.append(bag)
                covered |= bag
                remaining.remove(bag)
                progress = True
    return not remaining


# -- parsing -----------------------------------------------------------------


def parse_cq(text: str) -> CQ:
    """Parse ``q(x, y) <- R(x, z) & S(z, y)`` (Boolean: ``q() <- ...``)."""
    head, sep, body = text.partition("<-")
    if not sep:
        raise QueryError(f"missing '<-' in {text!r}")
    head = head.strip()
    if not (head.startswith("q(") and head.endswith(")")):
        raise QueryError(f"head must look like q(...), got {head!r}")
    answer_names = [v.strip() for v in head[2:-1].split(",") if v.strip()]
    atoms: list[Atom] = []
    for part in body.split("&"):
        part = part.strip()
        if not part:
            continue
        pred, _, rest = part.partition("(")
        if not rest.endswith(")"):
            raise QueryError(f"malformed atom {part!r}")
        args = tuple(Var(a.strip()) for a in rest[:-1].split(",") if a.strip())
        atoms.append(Atom(pred.strip(), args))
    return CQ(tuple(Var(n) for n in answer_names), atoms)


def parse_ucq(text: str) -> UCQ:
    """Parse a UCQ given as CQ strings separated by ``;``."""
    return UCQ(tuple(parse_cq(part) for part in text.split(";") if part.strip()))
