"""Tests for the certain-answer explanation API."""

from pathlib import Path

from repro.logic.instance import make_instance
from repro.logic.model_check import satisfies_all
from repro.logic.ontology import ontology
from repro.logic.syntax import Const
from repro.queries.cq import parse_cq
from repro.semantics.certain import CertainEngine

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))")
CLINIC = ontology(
    (Path(__file__).resolve().parent.parent / "examples" / "ontologies"
     / "clinic.gf").read_text())


class TestExplain:
    def test_positive_with_chase_witness(self, no_ambient_faults):
        engine = CertainEngine(HAND)
        exp = engine.explain(
            make_instance("Hand(h)"),
            parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)"), (Const("h"),))
        assert exp.holds and bool(exp)
        assert exp.witness is not None
        assert parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)").holds(
            exp.witness, (Const("h"),))

    def test_negative_with_countermodel(self):
        # The clinic case: the chase for q(x) <- Person(x) alone would not
        # give b its Clinician(b) and Doctor(b) | Nurse(b), so explain
        # must chase every rule to return a model of O.
        cases = [
            (HAND, ["Hand(h)"], "q(x) <- hasFinger(x,y) & Index(y)", "h"),
            (CLINIC, ["TreatedBy(a,b)"], "q(x) <- Person(x)", "b"),
        ]
        for onto, facts, text, elem in cases:
            engine = CertainEngine(onto)
            exp = engine.explain(
                make_instance(*facts), parse_cq(text), (Const(elem),))
            assert not exp.holds and not bool(exp)
            assert exp.witness is not None
            assert satisfies_all(exp.witness, onto.all_sentences())
            assert not parse_cq(text).holds(exp.witness, (Const(elem),))

    def test_sat_backend_explanations(self):
        # not rule-convertible: forced to the SAT backend
        O = ontology("forall x (x = x -> (A(x) | forall y (R(x,y) -> B(y))))")
        engine = CertainEngine(O)
        assert not engine.uses_chase
        exp = engine.explain(make_instance("A(a)"),
                             parse_cq("q(x) <- Z(x)"), (Const("a"),))
        assert not exp.holds
        assert exp.witness is not None

    def test_positive_sat_reason_mentions_bound(self):
        O = ontology("forall x (x = x -> (A(x) | forall y (R(x,y) -> B(y))))")
        engine = CertainEngine(O)
        exp = engine.explain(make_instance("A(a)", "R(a,a)"),
                             parse_cq("q(x) <- A(x)"), (Const("a"),))
        assert exp.holds
        assert "countermodel" in exp.reason
