"""Property-based tests (hypothesis) on the core data structures."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datalog import goal_answers, parse_program
from repro.guarded.decomposition import gyo_acyclic
from repro.guarded.unravel import unravel
from repro.logic.homomorphism import find_homomorphism, has_homomorphism
from repro.logic.instance import Interpretation, disjoint_union, make_instance
from repro.logic.model_check import evaluate
from repro.logic.syntax import And, Atom, Const, Not, Or, Var, nnf
from repro.queries.cq import CQ
from repro.semantics.cdcl import Solver

# -- strategies ----------------------------------------------------------------

elements = st.sampled_from([Const(f"e{i}") for i in range(4)])
unary_preds = st.sampled_from(["A", "B", "C"])
binary_preds = st.sampled_from(["R", "S"])

unary_facts = st.builds(lambda p, a: Atom(p, (a,)), unary_preds, elements)
binary_facts = st.builds(lambda p, a, b: Atom(p, (a, b)),
                         binary_preds, elements, elements)
facts = st.one_of(unary_facts, binary_facts)
instances = st.lists(facts, min_size=1, max_size=8).map(Interpretation)

variables = st.sampled_from([Var(f"x{i}") for i in range(3)])


@st.composite
def ground_formulas(draw, depth=2):
    """Random propositional combinations of ground atoms."""
    if depth == 0:
        return draw(facts)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(facts)
    if kind == 1:
        return Not(draw(ground_formulas(depth=depth - 1)))
    left = draw(ground_formulas(depth=depth - 1))
    right = draw(ground_formulas(depth=depth - 1))
    return And.of(left, right) if kind == 2 else Or.of(left, right)


# -- properties ----------------------------------------------------------------


class TestInterpretationProperties:
    @given(instances)
    def test_dom_is_active(self, inst):
        dom = inst.dom()
        for fact in inst:
            assert set(fact.args) <= dom

    @given(instances)
    def test_copy_equals_original(self, inst):
        assert inst.copy() == inst

    @given(instances, instances)
    def test_union_is_superset(self, a, b):
        u = a.union(b)
        for fact in a:
            assert fact in u
        for fact in b:
            assert fact in u

    @given(st.lists(instances, min_size=1, max_size=3))
    def test_disjoint_union_size(self, parts):
        du = disjoint_union(parts)
        assert len(du) <= sum(len(p) for p in parts)
        assert len(du.dom()) == sum(len(p.dom()) for p in parts)

    @given(instances)
    def test_guarded_sets_cover_facts(self, inst):
        gs = inst.guarded_sets()
        for fact in inst:
            assert frozenset(fact.args) in gs

    @given(instances)
    def test_maximal_guarded_sets_are_maximal(self, inst):
        mgs = inst.maximal_guarded_sets()
        for g in mgs:
            assert not any(g < h for h in mgs)


class TestHomomorphismProperties:
    @given(instances)
    def test_identity_homomorphism(self, inst):
        assert has_homomorphism(inst, inst)

    @given(instances, instances)
    def test_homomorphism_into_union(self, a, b):
        # a maps into a ∪ b via the identity
        assert has_homomorphism(a, a.union(b))

    @given(instances, instances, instances)
    @settings(max_examples=25, deadline=None)
    def test_composition(self, a, b, c):
        h1 = find_homomorphism(a, b)
        h2 = find_homomorphism(b, c)
        if h1 is not None and h2 is not None:
            assert has_homomorphism(a, c)


class TestNNFProperties:
    @given(ground_formulas(), instances)
    @settings(max_examples=60, deadline=None)
    def test_nnf_preserves_semantics(self, phi, inst):
        assert evaluate(phi, inst) == evaluate(nnf(phi), inst)

    @given(ground_formulas(), instances)
    @settings(max_examples=60, deadline=None)
    def test_double_negation_semantics(self, phi, inst):
        assert evaluate(phi, inst) == evaluate(nnf(Not(Not(phi))), inst)


class TestCQProperties:
    @given(instances)
    def test_atom_query_answers_are_facts(self, inst):
        for pred, arity in inst.sig().items():
            variables = tuple(Var(f"v{i}") for i in range(arity))
            q = CQ(variables, [Atom(pred, variables)])
            assert q.answers(inst) == set(inst.tuples(pred))

    @given(instances, instances)
    @settings(max_examples=40, deadline=None)
    def test_query_monotone_under_extension(self, a, b):
        u = a.union(b)
        for pred, arity in a.sig().items():
            variables = tuple(Var(f"v{i}") for i in range(arity))
            q = CQ(variables, [Atom(pred, variables)])
            assert q.answers(a) <= q.answers(u)


class TestDatalogProperties:
    TC = parse_program(
        "T(x,y) <- R(x,y)\nT(x,z) <- R(x,y) & T(y,z)\ngoal(x,y) <- T(x,y)")

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_transitive_closure_contains_base(self, inst):
        answers = goal_answers(self.TC, inst)
        assert set(inst.tuples("R")) <= answers

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_transitive_closure_is_transitive(self, inst):
        answers = goal_answers(self.TC, inst)
        for (a, b) in answers:
            for (c, d) in answers:
                if b == c:
                    assert (a, d) in answers

    @given(instances)
    @settings(max_examples=20, deadline=None)
    def test_naive_semi_naive_agree(self, inst):
        assert goal_answers(self.TC, inst, semi_naive=True) == \
            goal_answers(self.TC, inst, semi_naive=False)


class TestUnravellingProperties:
    @given(instances)
    @settings(max_examples=25, deadline=None)
    def test_projection_is_homomorphism(self, inst):
        try:
            unr = unravel(inst, depth=2)
        except RuntimeError:
            return  # node cap hit on a dense instance
        proj = unr.projection()
        for fact in unr.interpretation:
            image = Atom(fact.pred, tuple(proj[a] for a in fact.args))
            assert image in inst

    @given(instances)
    @settings(max_examples=25, deadline=None)
    def test_root_bags_are_isomorphic_copies(self, inst):
        try:
            unr = unravel(inst, depth=1)
        except RuntimeError:
            return
        for g in inst.maximal_guarded_sets():
            bag = unr.root_bag(g)
            assert set(bag) == set(g)


class TestGYOProperties:
    """Note: alpha-acyclicity is NOT hereditary (removing a hyperedge can
    create a cycle — e.g. {ab, ac, bc, abc} minus abc), so the properties
    below are the ones that actually hold."""

    @given(st.lists(
        st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        max_size=6))
    def test_covering_edge_forces_acyclicity(self, edges):
        # a hyperedge containing every vertex absorbs all others
        vertices = frozenset().union(*edges) if edges else frozenset("a")
        assert gyo_acyclic(edges + [vertices])

    @given(st.lists(
        st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        max_size=5))
    def test_disjoint_copies_stay_acyclic(self, edges):
        # acyclicity is preserved under disjoint unions of hypergraphs
        if gyo_acyclic(edges):
            renamed = [frozenset(v.upper() for v in e) for e in edges]
            assert gyo_acyclic(edges + renamed)


class TestCDCLProperties:
    @given(st.lists(
        st.lists(st.integers(-5, 5).filter(lambda x: x != 0),
                 min_size=1, max_size=4),
        min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_model_satisfies_clauses(self, clauses):
        model = Solver(5, clauses).solve()
        if model is not None:
            for clause in clauses:
                assert any(
                    model[abs(l)] == (l > 0) for l in clause
                )

    @given(st.lists(
        st.lists(st.integers(-4, 4).filter(lambda x: x != 0),
                 min_size=1, max_size=3),
        min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, clauses):
        import itertools
        model = Solver(4, clauses).solve()
        brute = any(
            all(any((assign[abs(l) - 1] == (l > 0)) for l in clause)
                for clause in clauses)
            for assign in itertools.product([False, True], repeat=4)
        )
        assert (model is not None) == brute
