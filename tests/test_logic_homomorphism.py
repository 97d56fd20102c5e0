"""Unit tests for homomorphism search."""

from repro.logic.homomorphism import (
    are_isomorphic, find_homomorphism, has_homomorphism, homomorphisms,
    is_isomorphic_embedding,
)
from repro.logic.instance import make_instance
from repro.logic.syntax import Const

a, b, c = Const("a"), Const("b"), Const("c")


class TestFindHomomorphism:
    def test_identity(self):
        D = make_instance("R(a,b)")
        h = find_homomorphism(D, D)
        assert h is not None

    def test_collapse_to_loop(self):
        source = make_instance("R(x,y)", "R(y,z)")
        target = make_instance("R(a,a)")
        h = find_homomorphism(source, target)
        assert h is not None
        assert set(h.values()) == {a}

    def test_no_homomorphism_wrong_predicate(self):
        assert find_homomorphism(make_instance("R(x,y)"), make_instance("S(a,b)")) is None

    def test_no_homomorphism_triangle_to_edge(self):
        # Odd cycle has no hom into a single (2-colorable) edge.
        triangle = make_instance("E(x,y)", "E(y,z)", "E(z,x)")
        edge = make_instance("E(a,b)", "E(b,a)")
        assert find_homomorphism(triangle, edge) is None

    def test_even_cycle_to_edge(self):
        square = make_instance("E(p,q)", "E(q,r)", "E(r,s)", "E(s,p)")
        edge = make_instance("E(a,b)", "E(b,a)")
        assert find_homomorphism(square, edge) is not None

    def test_preserve_constants(self):
        source = make_instance("R(a,y)")
        target = make_instance("R(a,b)", "R(c,c)")
        h = find_homomorphism(source, target, preserve=[a])
        assert h is not None and h[a] == a
        # without preservation, mapping a -> c is also possible
        all_h = list(homomorphisms(source, target))
        assert len(all_h) == 2

    def test_preserve_impossible(self):
        source = make_instance("R(a,a)")
        target = make_instance("R(a,b)")
        assert find_homomorphism(source, target, preserve=[a]) is None

    def test_partial_binding(self):
        source = make_instance("R(x,y)")
        target = make_instance("R(a,b)", "R(c,b)")
        h = find_homomorphism(source, target, partial={Const("x"): c})
        assert h is not None and h[Const("x")] == c

    def test_unary_facts_constrain(self):
        source = make_instance("R(x,y)", "A(x)")
        target = make_instance("R(a,b)", "R(b,a)", "A(b)")
        h = find_homomorphism(source, target)
        assert h is not None and h[Const("x")] == b


class TestEnumeration:
    def test_count_homomorphisms(self):
        source = make_instance("R(x,y)")
        target = make_instance("R(a,b)", "R(b,c)", "R(a,c)")
        assert len(list(homomorphisms(source, target))) == 3

    def test_has_homomorphism(self):
        assert has_homomorphism(make_instance("A(x)"), make_instance("A(a)", "B(b)"))
        assert not has_homomorphism(make_instance("C(x)"), make_instance("A(a)"))


class TestIsomorphism:
    def test_isomorphic_paths(self):
        p1 = make_instance("R(a,b)", "R(b,c)")
        p2 = make_instance("R(u,v)", "R(v,w)")
        assert are_isomorphic(p1, p2)

    def test_not_isomorphic_different_shape(self):
        p1 = make_instance("R(a,b)", "R(b,c)")
        p2 = make_instance("R(u,v)", "R(u,w)")
        assert not are_isomorphic(p1, p2)

    def test_embedding_check(self):
        small = make_instance("R(a,b)")
        big = make_instance("R(a,b)", "S(a,b)")
        # identity embedding fails reflection: S(a,b) present in big only
        assert not is_isomorphic_embedding(small, big, {a: a, b: b})
        big2 = make_instance("R(a,b)", "R(c,c)")
        assert is_isomorphic_embedding(small, big2, {a: a, b: b})
