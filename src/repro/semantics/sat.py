"""Propositional grounding, CNF encoding and the satisfiability entry point.

This module is the engine below the finite-countermodel search: first-order
sentences are *grounded* over a fixed finite domain into propositional
formulas whose atoms are ground relational facts, the result is converted to
CNF by a Plaisted-Greenbaum encoding, and satisfiability is decided by the
CDCL solver of :mod:`repro.semantics.cdcl` (:func:`dpll`).

The guarded fragment and its two-variable counting extension both have the
finite model property, so searching for finite models over a growing domain
is a genuine (semi-)decision procedure for the satisfiability questions that
certain-answer computation reduces to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..logic.instance import Interpretation
from ..logic.syntax import (
    And, Atom, Bottom, CountExists, Element, Eq, Exists, Forall, Formula,
    Implies, Not, Or, Top, Var, nnf,
)

GroundKey = tuple[str, tuple[Element, ...]]


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def ground(
    phi: Formula,
    domain: Sequence[Element],
    env: Mapping[Var, Element] | None = None,
) -> Formula:
    """Expand all quantifiers of *phi* over *domain*.

    The result is a propositional formula over ground atoms (equalities are
    resolved to Top/Bottom since distinct elements are distinct values).
    """
    env = dict(env or {})
    return _ground(phi, tuple(domain), env)


def _subst_term(term, env):
    if isinstance(term, Var):
        return env[term]
    return term


def _ground(phi: Formula, domain: tuple[Element, ...], env: dict[Var, Element]) -> Formula:
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(_subst_term(a, env) for a in phi.args))
    if isinstance(phi, Eq):
        return Top() if _subst_term(phi.left, env) == _subst_term(phi.right, env) else Bottom()
    if isinstance(phi, Not):
        inner = _ground(phi.sub, domain, env)
        if isinstance(inner, Top):
            return Bottom()
        if isinstance(inner, Bottom):
            return Top()
        return Not(inner)
    if isinstance(phi, And):
        return And.of(*(_ground(c, domain, env) for c in phi.conjuncts))
    if isinstance(phi, Or):
        return Or.of(*(_ground(d, domain, env) for d in phi.disjuncts))
    if isinstance(phi, Implies):
        ant = _ground(phi.antecedent, domain, env)
        con = _ground(phi.consequent, domain, env)
        return Or.of(_negate(ant), con)
    if isinstance(phi, Exists):
        disjuncts = []
        for combo in itertools.product(domain, repeat=len(phi.vars)):
            env2 = {**env, **dict(zip(phi.vars, combo))}
            part = _ground(phi.body, domain, env2)
            if phi.guard is not None:
                g = _ground(phi.guard, domain, env2)
                part = And.of(g, part)
            disjuncts.append(part)
        return Or.of(*disjuncts)
    if isinstance(phi, Forall):
        conjuncts = []
        for combo in itertools.product(domain, repeat=len(phi.vars)):
            env2 = {**env, **dict(zip(phi.vars, combo))}
            part = _ground(phi.body, domain, env2)
            if phi.guard is not None:
                g = _ground(phi.guard, domain, env2)
                part = Or.of(_negate(g), part)
            conjuncts.append(part)
        return And.of(*conjuncts)
    if isinstance(phi, CountExists):
        # at least n distinct witnesses: OR over n-element subsets.
        per_elem: list[Formula] = []
        for e in domain:
            env2 = {**env, phi.var: e}
            g = _ground(phi.guard, domain, env2)
            body = _ground(phi.body, domain, env2)
            per_elem.append(And.of(g, body))
        if phi.n > len(domain):
            return Bottom()
        subsets = itertools.combinations(range(len(domain)), phi.n)
        return Or.of(*(And.of(*(per_elem[i] for i in s)) for s in subsets))
    raise TypeError(f"unknown formula node {phi!r}")


def _negate(phi: Formula) -> Formula:
    if isinstance(phi, Top):
        return Bottom()
    if isinstance(phi, Bottom):
        return Top()
    if isinstance(phi, Not):
        return phi.sub
    return Not(phi)


# ---------------------------------------------------------------------------
# CNF conversion (Plaisted-Greenbaum on NNF input)
# ---------------------------------------------------------------------------


@dataclass
class CNF:
    """Clauses over integer literals; positive integers are ground atoms."""

    clauses: list[list[int]] = field(default_factory=list)
    var_of: dict[GroundKey, int] = field(default_factory=dict)
    key_of: dict[int, GroundKey] = field(default_factory=dict)
    _next: int = 1

    def atom_var(self, key: GroundKey) -> int:
        if key not in self.var_of:
            self.var_of[key] = self._next
            self.key_of[self._next] = key
            self._next += 1
        return self.var_of[key]

    def aux_var(self) -> int:
        v = self._next
        self._next += 1
        return v

    def add_clause(self, lits: Iterable[int]) -> None:
        self.clauses.append(list(lits))

    @property
    def num_vars(self) -> int:
        return self._next - 1


def add_formula(cnf: CNF, phi: Formula) -> None:
    """Assert a ground formula (converted to NNF, then PG-encoded)."""
    phi = nnf(phi)
    lit = _encode(cnf, phi)
    if lit is not None:
        cnf.add_clause([lit])


def add_formula_iff(cnf: CNF, indicator: int, phi: Formula) -> None:
    """Assert ``indicator <-> phi`` for a ground formula.

    Used for type-indicator variables in the Theorem-5 rewriting, where
    both truth values of subformulas must be representable.
    """
    pos = nnf(phi)
    neg = nnf(Not(phi))
    lit_pos = _encode(cnf, pos)
    lit_neg = _encode(cnf, neg)
    if lit_pos is None:       # phi is valid
        cnf.add_clause([indicator])
        return
    if lit_neg is None:       # phi is unsatisfiable
        cnf.add_clause([-indicator])
        return
    cnf.add_clause([-indicator, lit_pos])
    cnf.add_clause([indicator, lit_neg])


def _encode(cnf: CNF, phi: Formula) -> int | None:
    """Return a literal equisatisfiably implying *phi*; None for Top."""
    if isinstance(phi, Top):
        return None
    if isinstance(phi, Bottom):
        v = cnf.aux_var()
        cnf.add_clause([-v])
        return v
    if isinstance(phi, Atom):
        return cnf.atom_var((phi.pred, tuple(phi.args)))
    if isinstance(phi, Not):
        assert isinstance(phi.sub, Atom), "input must be ground NNF"
        return -cnf.atom_var((phi.sub.pred, tuple(phi.sub.args)))
    if isinstance(phi, And):
        lits = [_encode(cnf, c) for c in phi.conjuncts]
        lits = [l for l in lits if l is not None]
        if not lits:
            return None
        v = cnf.aux_var()
        for l in lits:
            cnf.add_clause([-v, l])
        return v
    if isinstance(phi, Or):
        lits = [_encode(cnf, d) for d in phi.disjuncts]
        if any(l is None for l in lits):
            return None  # a Top disjunct makes the whole thing true
        v = cnf.aux_var()
        cnf.add_clause([-v] + list(lits))
        return v
    raise TypeError(f"unexpected node in ground NNF: {phi!r}")


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------


def dpll(cnf: CNF, assumptions: Iterable[int] = (),
         budget=None) -> dict[int, bool] | None:
    """Decide satisfiability; returns a total assignment or None.

    Runs the CDCL solver (:mod:`repro.semantics.cdcl`) on the clauses plus
    one unit clause per assumption literal.  *budget* is an optional
    :class:`repro.runtime.Budget` threaded into the solver's cooperative
    checkpoints.
    """
    from .cdcl import Solver

    clauses = cnf.clauses + [[lit] for lit in assumptions]
    return Solver(cnf.num_vars, clauses).solve(budget=budget)


def model_to_interpretation(cnf: CNF, assignment: Mapping[int, bool]) -> Interpretation:
    """Extract the positive ground atoms of a satisfying assignment."""
    out = Interpretation()
    for var, key in cnf.key_of.items():
        if assignment.get(var):
            pred, args = key
            out.add(Atom(pred, args))
    return out
