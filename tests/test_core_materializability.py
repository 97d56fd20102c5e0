"""Tests for materializability / disjunction property (Section 3)."""

import pytest

from repro.core.materializability import (
    MatStatus, candidate_instances, candidate_queries,
    check_materializability, is_horn,
)
from repro.logic.instance import make_instance
from repro.logic.ontology import Ontology, ontology
from repro.logic.syntax import Atom, Eq, Forall, Or, Var
from repro.obs import Tracer

# The intro example, with "exactly 2" standing in for "exactly 5" to keep
# instances small (the phenomenon is identical).
O1_LOWER = "forall x (x = x -> (Hand(x) -> exists>=2 y (hasFinger(x,y))))"
O1_UPPER = "forall x (x = x -> (Hand(x) -> ~(exists>=3 y (hasFinger(x,y)))))"
O2_THUMB = "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))"

HAND_WITNESS = make_instance("Hand(h)", "hasFinger(h,f1)", "hasFinger(h,f2)")

_x = Var("x")
OMAT = Ontology([Or.of(
    Forall((_x,), Eq(_x, _x), Atom("A", (_x,))),
    Forall((_x,), Eq(_x, _x), Atom("B", (_x,))),
)], name="OMat/PTime")

EX6 = ontology(
    "forall x (x = x -> (A(x) -> (exists y (R(x,y) & A(y)) -> E(x))))\n"
    "forall x (x = x -> (~A(x) -> (exists y (R(x,y) & ~A(y)) -> E(x))))\n"
    "forall x,y (R(x,y) -> (E(x) -> E(y)))\n"
    "forall x,y (R(x,y) -> (E(y) -> E(x)))",
    name="Ex6")


class TestHornShortcut:
    def test_horn_detected(self):
        assert is_horn(ontology(O2_THUMB))
        assert is_horn(ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))"))

    def test_disjunctive_not_horn(self):
        assert not is_horn(ontology(
            "forall x (x = x -> (C(x) -> (A(x) | B(x))))"))

    def test_unconvertible_not_horn(self):
        assert not is_horn(ontology("\n".join([O1_LOWER, O1_UPPER])))

    def test_horn_is_materializable(self):
        report = check_materializability(ontology(O2_THUMB))
        assert report.status is MatStatus.MATERIALIZABLE
        assert report.materializable is True


class TestCandidates:
    def test_candidate_instances_cover_all_small_shapes(self):
        sig = {"A": 1, "R": 2}
        instances = candidate_instances(sig, max_elems=2, max_facts=1)
        # 2 unary + 4 binary atoms = 6 singleton instances
        assert len(instances) == 6

    def test_candidate_queries_shapes(self):
        queries = candidate_queries({"A": 1, "R": 2})
        arities = {q.arity for q in queries}
        assert arities == {1, 2}
        # atomic unary, atomic binary, 2 projections, 1 R-A combination
        assert len(queries) == 5


class TestIntroExample:
    """The paper's motivating O1/O2 pair (Section 1)."""

    def test_o1_alone_materializable(self):
        # Lower bound only: Horn, hence materializable.
        assert check_materializability(
            ontology(O1_LOWER)).status is MatStatus.MATERIALIZABLE

    def test_o2_alone_materializable(self):
        assert check_materializability(
            ontology(O2_THUMB)).status is MatStatus.MATERIALIZABLE

    def test_union_not_materializable(self):
        union = ontology("\n".join([O1_LOWER, O1_UPPER, O2_THUMB]),
                         name="O1+O2")
        report = check_materializability(
            union, max_elems=0, max_facts=0,
            extra_instances=[HAND_WITNESS])
        assert report.status is MatStatus.NOT_MATERIALIZABLE
        witness = report.witness
        assert witness is not None
        # The witness is the Thumb(f1) v Thumb(f2) disjunction.
        preds = {atom.pred for q, _ in witness.disjuncts for atom in q.atoms}
        assert preds == {"Thumb"}


class TestDisjunctionProperty:
    def test_simple_disjunctive_ontology_not_materializable(self):
        O = ontology("forall x (x = x -> (C(x) -> (A(x) | B(x))))")
        report = check_materializability(O, max_elems=1, max_facts=1)
        assert report.status is MatStatus.NOT_MATERIALIZABLE

    def test_omat_ptime_not_ugf_but_search_is_syntax_agnostic(self):
        """Example 1's O_Mat/PTime = forall x A(x) | forall x B(x) is not
        materializable (but also not uGF; Theorem 3 does not apply)."""
        # the witness is D = {A(w0), B(w1)}: A(w1) v B(w0) is certain
        report = check_materializability(OMAT, max_elems=2, max_facts=2)
        assert report.status is MatStatus.NOT_MATERIALIZABLE

    def test_example6_needs_three_disjuncts(self):
        """The Example-6 (odd cycle) ontology fails the disjunction property
        on a single edge, but only with three disjuncts."""
        edge = make_instance("R(a,b)")
        two = check_materializability(
            EX6, max_elems=0, max_facts=0, max_disjuncts=2,
            extra_instances=[edge])
        assert two.status is MatStatus.MATERIALIZABLE_UP_TO_BOUND
        three = check_materializability(
            EX6, max_elems=0, max_facts=0, max_disjuncts=3,
            extra_instances=[edge])
        assert three.status is MatStatus.NOT_MATERIALIZABLE


# A disjunction the Horn rule A -> B always settles, over a signature whose
# 2-element, 2-fact instances leave many open disjuncts to pair up.
SETTLED = ontology(
    "forall x (A(x) -> B(x) | C(x))\n"
    "forall x (A(x) -> B(x))\n"
    "forall x,y (R(x,y) -> A(y))", name="settled")


class TestOneChasePerInstance:
    """The scan chases each instance at most once, whatever the number of
    disjunct tuples it tries there, and reports what the per-tuple scan
    (one chase per tuple) reported."""

    def test_each_consistent_instance_is_chased_at_most_once(
            self, no_ambient_faults):
        tracer = Tracer()
        with tracer.activate():
            report = check_materializability(SETTLED, max_elems=2,
                                             max_facts=2)
        assert report.instances_checked == 55
        spans = tracer.to_dicts()
        by_id = {span["span_id"]: span for span in spans}

        def in_rung(span):
            parent = span.get("parent_id")
            while parent is not None:
                if by_id[parent]["name"].startswith("rung."):
                    return True
                parent = by_id[parent].get("parent_id")
            return False

        chases = [span for span in spans if span["name"] == "chase"]
        ladder = sum(1 for span in chases if in_rung(span))
        # The ladder's own rungs (consistency and certain answers) ran 550
        # chases, and the per-tuple scan added 3,050 on top of them.
        assert ladder <= 550
        assert len(chases) - ladder <= report.instances_checked
        assert len(chases) <= 550 + 55

    @pytest.mark.parametrize("name, onto, options, expected", [
        ("settled", SETTLED, dict(max_elems=2, max_facts=2),
         ("MATERIALIZABLE_UP_TO_BOUND", None, 55)),
        ("o2", ontology(O2_THUMB), {}, ("MATERIALIZABLE", None, 0)),
        ("o1", ontology(O1_LOWER), {}, ("MATERIALIZABLE", None, 0)),
        ("union", ontology("\n".join([O1_LOWER, O1_UPPER, O2_THUMB])),
         dict(max_elems=0, max_facts=0, extra_instances=[HAND_WITNESS]),
         ("NOT_MATERIALIZABLE",
          "DisjunctionWitness(Interpretation({Hand(h), hasFinger(h, f1), "
          "hasFinger(h, f2)}); q(x) <- Thumb(x)@(f1,) v "
          "q(x) <- Thumb(x)@(f2,))", 1)),
        ("c-a-or-b", ontology("forall x (x = x -> (C(x) -> (A(x) | B(x))))"),
         dict(max_elems=1, max_facts=1),
         ("NOT_MATERIALIZABLE",
          "DisjunctionWitness(Interpretation({C(w0)}); "
          "q(x) <- A(x)@(w0,) v q(x) <- B(x)@(w0,))", 3)),
        ("omat", OMAT, dict(max_elems=2, max_facts=2),
         ("NOT_MATERIALIZABLE",
          "DisjunctionWitness(Interpretation({A(w0), B(w1)}); "
          "q(x) <- A(x)@(w1,) v q(x) <- B(x)@(w0,))", 7)),
        ("ex6-two", EX6, dict(max_elems=0, max_facts=0, max_disjuncts=2,
                              extra_instances=[make_instance("R(a,b)")]),
         ("MATERIALIZABLE_UP_TO_BOUND", None, 1)),
        ("ex6-three", EX6, dict(max_elems=0, max_facts=0, max_disjuncts=3,
                                extra_instances=[make_instance("R(a,b)")]),
         ("NOT_MATERIALIZABLE",
          "DisjunctionWitness(Interpretation({R(a, b)}); "
          "q(x) <- A(x)@(a,) v q(x) <- A(x)@(b,) v q(x) <- E(x)@(a,))", 1)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_report_matches_the_per_tuple_scan(self, name, onto, options,
                                               expected):
        report = check_materializability(onto, **options)
        witness = None if report.witness is None else repr(report.witness)
        assert (report.status.name, witness,
                report.instances_checked) == expected
