"""Unit tests for the SAT layer: grounding, CNF encoding, the CDCL solver."""

import itertools

import pytest

from repro.logic.instance import make_instance
from repro.logic.model_check import evaluate
from repro.logic.parser import parse_formula
from repro.logic.syntax import And, Atom, Bottom, Const, Not, Or, Top, Var
from repro.semantics.cdcl import Solver
from repro.semantics.sat import (
    CNF, add_formula, add_formula_iff, dpll, ground, model_to_interpretation,
)

a, b = Const("a"), Const("b")


def solve(num_vars, clauses):
    return Solver(num_vars, clauses).solve()


class TestGrounding:
    def test_forall_expands(self):
        phi = ground(parse_formula("forall x (x = x -> A(x))"), [a, b])
        assert isinstance(phi, And)
        assert len(phi.conjuncts) == 2

    def test_exists_expands(self):
        phi = ground(parse_formula("exists x (A(x) & B(x))"), [a, b])
        assert isinstance(phi, Or)

    def test_equality_resolves(self):
        phi = ground(parse_formula("forall x,y (R(x,y) -> x = y)"), [a, b])
        # R(a,b) -> a=b grounds to ~R(a,b); R(a,a) -> Top vanishes
        cnf = CNF()
        add_formula(cnf, phi)
        model = dpll(cnf)
        assert model is not None
        # R(a,b) must be false in every model
        var = cnf.var_of.get(("R", (a, b)))
        assert var is None or not model[var]

    def test_counting_over_small_domain(self):
        phi = ground(parse_formula("exists>=2 y (R(x,y))"), [a, b],
                     {Var("x"): a})
        cnf = CNF()
        add_formula(cnf, phi)
        model = dpll(cnf)
        assert model is not None
        interp = model_to_interpretation(cnf, model)
        assert len(interp.tuples("R")) == 2

    def test_counting_infeasible(self):
        phi = ground(parse_formula("exists>=3 y (R(x,y))"), [a, b],
                     {Var("x"): a})
        assert phi == Bottom()

    def test_guard_none_forall(self):
        phi = ground(parse_formula("forall x (A(x) | B(x))"), [a])
        cnf = CNF()
        add_formula(cnf, phi)
        assert dpll(cnf) is not None

    def test_nested_shadowed_variable(self):
        phi = parse_formula(
            "forall x (x = x -> (A(x) -> exists y (R(x,y) & "
            "exists x (S(y,x) & B(x)))))")
        g = ground(phi, [a, b])
        cnf = CNF()
        add_formula(cnf, g)
        assert dpll(cnf) is not None


class TestEncoding:
    def test_add_formula_iff_positive(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Atom("A", (a,)))
        atom_var = cnf.atom_var(("A", (a,)))
        # indicator true forces atom true
        model = dpll(cnf, [ind])
        assert model is not None and model[atom_var]
        # indicator false forces atom false
        model2 = dpll(cnf, [-ind])
        assert model2 is not None and not model2[atom_var]

    def test_add_formula_iff_valid(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Top())
        model = dpll(cnf)
        assert model is not None and model[ind]

    def test_add_formula_iff_unsat(self):
        cnf = CNF()
        ind = cnf.aux_var()
        add_formula_iff(cnf, ind, Bottom())
        model = dpll(cnf)
        assert model is not None and not model[ind]

    def test_tautology_clause_dropped(self):
        solver = Solver(2, [[1, -1]])
        assert solver.solve() is not None

    def test_empty_clause_unsat(self):
        solver = Solver(1, [[]])
        assert solver.solve() is None


class TestCDCL:
    def test_simple_unsat(self):
        assert solve(2, [[1], [-1]]) is None

    def test_implication_chain(self):
        # 1 -> 2 -> 3 -> ... -> -1: contradiction
        clauses = [[1], [-1, 2], [-2, 3], [-3, -1]]
        assert solve(3, clauses) is None

    def test_pigeonhole_3_2(self):
        """3 pigeons in 2 holes: classically UNSAT (exercises learning)."""
        # var p_{i,h} = 1 + i*2 + h for i in 0..2, h in 0..1
        def v(i, h):
            return 1 + i * 2 + h

        clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
        for h in range(2):
            for i, j in itertools.combinations(range(3), 2):
                clauses.append([-v(i, h), -v(j, h)])
        assert solve(6, clauses) is None

    @staticmethod
    def _cnf(num_vars, clauses):
        cnf = CNF()
        cnf._next = num_vars + 1
        cnf.clauses = [list(c) for c in clauses]
        return cnf

    def test_satisfiable_with_assumptions(self):
        model = dpll(self._cnf(3, [[1, 2], [-1, 3]]), assumptions=[1])
        assert model is not None
        assert model[1] and model[3]

    def test_conflicting_assumptions(self):
        assert dpll(self._cnf(2, [[1]]), assumptions=[-1]) is None


class TestModelExtraction:
    def test_positive_atoms_only(self):
        cnf = CNF()
        va = cnf.atom_var(("A", (a,)))
        vb = cnf.atom_var(("B", (b,)))
        cnf.add_clause([va])
        cnf.add_clause([-vb])
        model = dpll(cnf)
        interp = model_to_interpretation(cnf, model)
        assert Atom("A", (a,)) in interp
        assert Atom("B", (b,)) not in interp

    def test_grounding_roundtrip_with_model_check(self):
        """A SAT model of a grounded sentence satisfies the sentence."""
        sentence = parse_formula(
            "forall x (x = x -> (A(x) -> exists y (R(x,y) & B(y))))")
        cnf = CNF()
        cnf.add_clause([cnf.atom_var(("A", (a,)))])
        add_formula(cnf, ground(sentence, [a, b]))
        model = dpll(cnf)
        assert model is not None
        interp = model_to_interpretation(cnf, model)
        assert evaluate(sentence, interp)
