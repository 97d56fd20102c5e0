"""Tests for the Theorem-5 type-based rewriting."""

import pytest

from repro.core.rewriting import TypeRewriting
from repro.datalog import goal_answers
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.syntax import Const
from repro.queries.cq import parse_cq
from repro.semantics.certain import CertainEngine

PROP = ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))", name="prop")
PROP_Q = parse_cq("q(x) <- A(x)")

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))",
    name="hand")
HAND_Q = parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)")

a, b, c, d = Const("a"), Const("b"), Const("c"), Const("d")


class TestTypeMachinery:
    def test_at_most_binary_query_required(self):
        with pytest.raises(ValueError):
            TypeRewriting(PROP, parse_cq("q(x,y,z) <- T(x,y,z)"))

    def test_elem_types_realizable_and_complete(self):
        rw = TypeRewriting(PROP, PROP_Q)
        # formulas1 = [A(t1), q(t1)]; A true/false, q == A
        assert len(rw.elem_types) == 2

    def test_pair_types_project_to_elem_types(self):
        rw = TypeRewriting(PROP, PROP_Q)
        elem = set(rw.elem_types)
        for pt in rw.pair_types:
            assert pt.left in elem and pt.right in elem

    def test_propagation_pair_types_respect_rule(self):
        rw = TypeRewriting(PROP, PROP_Q)
        a_idx = 0  # A(t1) is the first unary formula
        fwd = rw.formulas2.index(
            next(f for f in rw.formulas2
                 if repr(f) == "R(t1, t2)"))
        for pt in rw.pair_types:
            if pt.bits[fwd] and pt.left.bits[a_idx]:
                assert pt.right.bits[a_idx]  # A propagates along R


class TestFixpointEvaluation:
    def test_matches_engine_on_chain(self):
        rw = TypeRewriting(PROP, PROP_Q)
        engine = CertainEngine(PROP)
        D = make_instance("A(a)", "R(a,b)", "R(b,c)", "R(z,z)", "R(c,d)")
        assert rw.answers(D) == {t[0] for t in engine.certain_answers(D, PROP_Q)}

    def test_matches_engine_on_cycle(self):
        rw = TypeRewriting(PROP, PROP_Q)
        engine = CertainEngine(PROP)
        D = make_instance("A(a)", "R(a,b)", "R(b,a)")
        assert rw.answers(D) == {t[0] for t in engine.certain_answers(D, PROP_Q)}

    def test_hand_example(self):
        rw = TypeRewriting(HAND, HAND_Q)
        engine = CertainEngine(HAND)
        D = make_instance("Hand(h)", "Hand(g)", "hasFinger(g,f)", "R(h,g)")
        assert rw.answers(D) == {t[0] for t in engine.certain_answers(D, HAND_Q)}

    def test_certain_single(self):
        rw = TypeRewriting(PROP, PROP_Q)
        D = make_instance("A(a)", "R(a,b)")
        assert rw.certain(D, b)
        assert not rw.certain(D, Const("z")) if Const("z") in D.dom() else True

    def test_polynomial_scaling_long_chain(self):
        rw = TypeRewriting(PROP, PROP_Q)
        facts = ["A(n0)"] + [f"R(n{i},n{i+1})" for i in range(60)]
        D = make_instance(*facts)
        answers = rw.answers(D)
        assert Const("n60") in answers
        assert len(answers) == 61


class TestSelfLoops:
    """A loop R(a,a) makes a both endpoints of an R-pair type: the
    fixpoint refines a the way the emitted program's edge rule does."""

    LOOP = ontology("forall x,y (R(x,y) -> A(x))", name="loop")
    LOOP_Q = parse_cq("q(x) <- A(x)")

    def test_minimal_case(self):
        rw = TypeRewriting(self.LOOP, self.LOOP_Q)
        engine = CertainEngine(self.LOOP)
        D = make_instance("R(a,a)", "R(b,c)")
        assert rw.answers(D) == {a, b}
        assert rw.certain(D, a)
        assert {t[0] for t in goal_answers(rw.to_datalog_program(), D)} == {a, b}
        assert {t[0] for t in engine.certain_answers(D, self.LOOP_Q)} == {a, b}

    def test_binary_answers_stay_distinct_pairs(self):
        rw = TypeRewriting(ontology("forall x,y (R(x,y) -> S(x,y))"),
                           parse_cq("q(x,y) <- S(x,y)"))
        assert rw.answers(make_instance("R(a,a)", "R(a,b)")) == {(a, b)}

    @pytest.mark.parametrize("seed", [1, 5])
    def test_three_routes_agree_on_generated_instances_with_loops(self, seed):
        import random

        from repro.chaos.generate import WorkloadSpec, generate_workload

        onto = generate_workload(
            WorkloadSpec(seed=seed, family="horn", jobs=1)).ontology()
        sig = onto.sig()
        unary = sorted(p for p, k in sig.items() if k == 1)
        binary = sorted(p for p, k in sig.items() if k == 2)
        engine = CertainEngine(onto)
        rng = random.Random(seed)
        consts = ["c0", "c1", "c2", "c3"]
        for pred in unary:
            q = parse_cq(f"q(x) <- {pred}(x)")
            rw = TypeRewriting(onto, q)
            program = rw.to_datalog_program()
            for _ in range(6):
                facts = set()
                for _ in range(rng.randint(1, 6)):
                    x, y = rng.choice(consts), rng.choice(consts)
                    roll = rng.random()
                    if roll < 0.35:
                        facts.add(f"{rng.choice(unary)}({x})")
                    elif roll < 0.6:
                        facts.add(f"{rng.choice(binary)}({x},{x})")
                    else:
                        facts.add(f"{rng.choice(binary)}({x},{y})")
                D = make_instance(*sorted(facts))
                ladder = {t[0] for t in engine.certain_answers(D, q)}
                assert rw.answers(D) == ladder, sorted(facts)
                assert {t[0] for t in goal_answers(program, D)} == ladder


class TestBinaryRAQs:
    """Binary-answer rAQs through the type rewriting."""

    ROLE = ontology("forall x,y (R(x,y) -> S(x,y))", name="role-incl")
    Q = parse_cq("q(x,y) <- S(x,y)")

    def test_answers_match_engine_on_guarded_pairs(self):
        import itertools

        rw = TypeRewriting(self.ROLE, self.Q)
        engine = CertainEngine(self.ROLE)
        D = make_instance("R(a,b)", "S(c,d)")
        expected = {
            t for t in itertools.product(sorted(D.dom(), key=repr), repeat=2)
            if engine.entails(D, self.Q, t)
        }
        assert rw.answers(D) == expected

    def test_certain_single_pair(self):
        rw = TypeRewriting(self.ROLE, self.Q)
        D = make_instance("R(a,b)")
        assert rw.certain(D, (a, b))
        assert not rw.certain(D, (b, a))

    def test_orientation_matters(self):
        rw = TypeRewriting(self.ROLE, self.Q)
        D = make_instance("S(b,a)")
        assert rw.certain(D, (b, a))
        assert not rw.certain(D, (a, b))

    def test_binary_query_with_body_join(self):
        O = ontology("forall x,y (R(x,y) -> (A(x) -> S(x,y)))")
        q = parse_cq("q(x,y) <- S(x,y)")
        rw = TypeRewriting(O, q)
        engine = CertainEngine(O)
        D = make_instance("A(a)", "R(a,b)", "R(b,c)")
        assert rw.certain(D, (a, b)) == engine.entails(D, q, (a, b))
        assert rw.certain(D, (b, c)) == engine.entails(D, q, (b, c))

    def test_emission_rejected_for_binary(self):
        rw = TypeRewriting(self.ROLE, self.Q)
        with pytest.raises(ValueError):
            rw.to_datalog_program()


class TestPropertyAgreement:
    """Property-based: the rewriting agrees with the engine on random
    instances of the propagation ontology (unravelling tolerant, so the
    Theorem-5 semantics is exact)."""

    import hypothesis.strategies as st
    from hypothesis import given, settings

    elements = st.sampled_from([Const(f"e{i}") for i in range(3)])
    facts = st.one_of(
        st.builds(lambda x: __import__("repro.logic.syntax",
                                       fromlist=["Atom"]).Atom("A", (x,)),
                  elements),
        st.builds(lambda x, y: __import__("repro.logic.syntax",
                                          fromlist=["Atom"]).Atom("R", (x, y)),
                  elements, elements),
    )
    from repro.logic.instance import Interpretation as _I
    instances = st.lists(facts, min_size=1, max_size=6).map(_I)

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, instance):
        rw = TypeRewriting(PROP, PROP_Q)
        engine = CertainEngine(PROP)
        via_rw = rw.answers(instance)
        via_engine = {t[0] for t in engine.certain_answers(instance, PROP_Q)}
        assert via_rw == via_engine


class TestDatalogEmission:
    def test_program_agrees_with_fixpoint(self):
        rw = TypeRewriting(PROP, PROP_Q)
        program = rw.to_datalog_program()
        for facts in (
            ["A(a)", "R(a,b)", "R(b,c)"],
            ["R(a,b)", "R(b,a)"],
            ["A(a)", "R(b,a)"],
        ):
            D = make_instance(*facts)
            via_program = {t[0] for t in goal_answers(program, D)}
            assert via_program == rw.answers(D)

    def test_hand_program_agrees(self):
        rw = TypeRewriting(HAND, HAND_Q)
        program = rw.to_datalog_program()
        D = make_instance("Hand(h)", "hasFinger(h,f)", "Thumb(f)",
                          "hasFinger(g,f)")
        via_program = {t[0] for t in goal_answers(program, D)}
        assert via_program == rw.answers(D)

    def test_program_is_pure_datalog_for_ugf(self):
        # uGF (no equality/counting): the rewriting needs no inequality
        rw = TypeRewriting(PROP, PROP_Q)
        assert rw.to_datalog_program().is_pure_datalog()
