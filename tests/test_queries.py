"""Unit tests for CQs, UCQs and rooted acyclic queries."""

import pytest

from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.syntax import Const, Var
from repro.queries.cq import CQ, UCQ, QueryError, parse_cq, parse_ucq
from repro.semantics.certain import CertainEngine

a, b, c = Const("a"), Const("b"), Const("c")


class TestParsing:
    def test_parse_simple(self):
        q = parse_cq("q(x) <- R(x, y) & A(y)")
        assert q.arity == 1
        assert len(q.atoms) == 2

    def test_parse_boolean(self):
        q = parse_cq("q() <- R(x, y)")
        assert q.is_boolean()

    def test_answer_var_must_occur(self):
        with pytest.raises(QueryError):
            parse_cq("q(z) <- R(x, y)")

    def test_parse_ucq(self):
        q = parse_ucq("q(x) <- A(x) ; q(x) <- B(x)")
        assert len(q.disjuncts) == 2

    def test_ucq_arity_mismatch(self):
        with pytest.raises(QueryError):
            parse_ucq("q(x) <- A(x) ; q() <- B(x)")


class TestEvaluation:
    def test_answers(self):
        q = parse_cq("q(x) <- R(x, y) & A(y)")
        D = make_instance("R(a,b)", "A(b)", "R(c,a)")
        assert q.answers(D) == {(a,)}

    def test_holds_with_binding(self):
        q = parse_cq("q(x) <- R(x, y)")
        D = make_instance("R(a,b)")
        assert q.holds(D, (a,))
        assert not q.holds(D, (b,))

    def test_holds_arity_check(self):
        q = parse_cq("q(x) <- R(x, y)")
        with pytest.raises(QueryError):
            q.holds(make_instance("R(a,b)"), (a, b))

    def test_boolean_query(self):
        q = parse_cq("q() <- R(x, x)")
        assert q.holds(make_instance("R(a,a)"))
        assert not q.holds(make_instance("R(a,b)"))

    def test_ucq_answers_union(self):
        q = parse_ucq("q(x) <- A(x) ; q(x) <- B(x)")
        D = make_instance("A(a)", "B(b)")
        assert q.answers(D) == {(a,), (b,)}

    def test_cycle_query_on_triangle(self):
        q = parse_cq("q() <- R(x,y) & R(y,z) & R(z,x)")
        triangle = make_instance("R(a,b)", "R(b,c)", "R(c,a)")
        assert q.holds(triangle)
        chain = make_instance("R(a,b)", "R(b,c)")
        assert not q.holds(chain)


class TestRepeatedAnswerVariable:
    """``q(x,x)`` answers only tuples that agree at the repeated variable;
    a binding used to keep the last value and accept ``(c,a)`` here."""

    QUERY = "q(x,x) <- R(x,y)"
    DATA = ("R(a,b)", "S(c,c)")

    def test_holds(self):
        q = parse_cq(self.QUERY)
        D = make_instance(*self.DATA)
        assert q.answers(D) == {(a, a)}
        assert q.holds(D, (a, a))
        assert not q.holds(D, (c, a))
        assert not q.holds(D, (b, a))
        assert q.bind((c, a)) is None

    def test_split_evaluation(self):
        from repro.queries.split import evaluate_split
        D = make_instance(*self.DATA)
        assert evaluate_split(parse_cq(self.QUERY), D, (a, a))
        assert not evaluate_split(parse_cq(self.QUERY), D, (c, a))

    def test_query_formula_of_a_conflict_is_false(self):
        from repro.logic.syntax import Bottom
        from repro.semantics.modelsearch import query_formula
        assert query_formula(parse_cq(self.QUERY), (c, a)) == Bottom()
        assert query_formula(parse_ucq(self.QUERY), (c, a)) == Bottom()

    @pytest.mark.parametrize("backend", ["chase", "sat"])
    def test_certain_answers(self, backend):
        engine = CertainEngine(ontology("forall x (A(x) -> B(x))"),
                               backend=backend)
        D = make_instance(*self.DATA)
        assert engine.certain_answers(D, parse_cq(self.QUERY)) == {(a, a)}
        assert not engine.entails(D, parse_cq(self.QUERY), (c, a))
        ucq = parse_ucq(self.QUERY + " ; q(x,y) <- S(x,y)")
        assert engine.certain_answers(D, ucq) == {(a, a), (c, c)}

    @pytest.mark.parametrize("backend", ["chase", "sat"])
    def test_inconsistent_instance_still_answers_every_tuple(self, backend):
        engine = CertainEngine(ontology("forall x (A(x) -> ~B(x))"),
                               backend=backend)
        D = make_instance(*self.DATA, "A(a)", "B(a)")
        assert engine.entails(D, parse_cq(self.QUERY), (c, a))


class TestStructure:
    def test_canonical_database(self):
        q = parse_cq("q(x) <- R(x, y)")
        db, mapping = q.canonical_database()
        assert len(db) == 1
        assert set(mapping) == {Var("x"), Var("y")}

    def test_connectedness(self):
        assert parse_cq("q(x) <- R(x,y) & S(y,z)").is_connected()
        assert not parse_cq("q(x) <- R(x,y) & S(u,v)").is_connected()

    def test_rename_apart(self):
        q = parse_cq("q(x) <- R(x, y)")
        q2 = q.rename_apart([Var("y")])
        assert Var("y") not in q2.variables()
        assert q2.answer_vars == (Var("x"),)


class TestRootedAcyclic:
    def test_example_4_cycle_not_raq(self):
        """Example 4: the R-triangle query is not an rAQ."""
        q = parse_cq("q(x) <- R(x,y) & R(y,z) & R(z,x)")
        assert not q.is_rooted_acyclic()

    def test_example_4_with_ternary_guard_is_raq(self):
        """Adding Q(x,y,z) makes the triangle guarded, hence an rAQ
        (root bag {x} with the guarded triangle hanging below it)."""
        q = parse_cq("q(x) <- R(x,y) & R(y,z) & R(z,x) & Q(x,y,z)")
        assert q.is_rooted_acyclic()
        q2 = parse_cq("q(x,y,z) <- R(x,y) & R(y,z) & R(z,x) & Q(x,y,z)")
        assert q2.is_rooted_acyclic()

    def test_path_query_is_raq(self):
        q = parse_cq("q(x) <- R(x,y) & R(y,z)")
        assert q.is_rooted_acyclic()

    def test_boolean_never_raq(self):
        q = parse_cq("q() <- R(x,y)")
        assert not q.is_rooted_acyclic()

    def test_answer_vars_must_be_guarded(self):
        # x and z do not co-occur in an atom: answer tuple is unguarded.
        q = parse_cq("q(x,z) <- R(x,y) & R(y,z)")
        assert not q.is_rooted_acyclic()

    def test_tree_query_is_raq(self):
        q = parse_cq("q(x) <- R(x,y) & R(x,z) & A(y) & B(z)")
        assert q.is_rooted_acyclic()

    def test_to_formula_roundtrip_evaluation(self):
        from repro.logic.model_check import evaluate
        q = parse_cq("q(x) <- R(x,y) & A(y)")
        D = make_instance("R(a,b)", "A(b)")
        phi = q.to_formula()
        assert evaluate(phi, D, {Var("x"): a})
