"""Sanitizer tests: green paths plus one seeded violation per checker.

The seeded tests corrupt engine state by hand and call the checker
directly, proving that each invariant check actually fires — a sanitizer
that never raises is indistinguishable from one that checks nothing.
"""

import importlib

import pytest

from repro.analysis.sanitizers import (
    CdclSanitizer, ChaseSanitizer, SanitizerError, cdcl_sanitizer,
    chase_sanitizer, sanitize_enabled,
)
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.syntax import Atom, Const, Null, Var
from repro.semantics.cdcl import Solver
from repro.semantics.chase import Branch, chase
from repro.semantics.rules import DisjunctiveRule, Head

# The package re-exports the function under the module's name.
chase_module = importlib.import_module("repro.semantics.chase")


class TestEnablement:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled(True) is True
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(False) is False

    def test_env_var_parsing(self, monkeypatch):
        for value, expected in [("1", True), ("true", True), ("ON", True),
                                ("0", False), ("", False), ("no", False)]:
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_enabled() is expected

    def test_factories_return_none_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert chase_sanitizer(None) is None
        assert cdcl_sanitizer(None) is None
        assert isinstance(chase_sanitizer(True), ChaseSanitizer)
        assert isinstance(cdcl_sanitizer(True), CdclSanitizer)


x, y = Var("x"), Var("y")


def _branch(*facts):
    interp = make_instance(*facts)
    return Branch(interp=interp.copy(),
                  depth={e: 0 for e in interp.dom()})


class TestChaseSanitizer:
    san = ChaseSanitizer()

    def test_check_firing_green(self):
        rule = DisjunctiveRule((Atom("A", (x,)),),
                               (Head((Atom("B", (x,)),), ()),))
        branch = _branch("A(a)")
        self.san.check_firing(rule, branch.interp, {x: Const("a")})

    def test_check_firing_seeded_violation(self):
        # firing although the head is already satisfied: not restricted
        rule = DisjunctiveRule((Atom("A", (x,)),),
                               (Head((Atom("B", (x,)),), ()),))
        branch = _branch("A(a)", "B(a)")
        with pytest.raises(SanitizerError, match="restricted-chase"):
            self.san.check_firing(rule, branch.interp, {x: Const("a")})

    def test_check_firing_existential_head_green(self):
        rule = DisjunctiveRule((Atom("A", (x,)),),
                               (Head((Atom("R", (x, y)),), (y,)),))
        branch = _branch("A(a)")
        self.san.check_firing(rule, branch.interp, {x: Const("a")})
        branch.interp.add(Atom("R", (Const("a"), Const("b"))))
        with pytest.raises(SanitizerError):
            self.san.check_firing(rule, branch.interp, {x: Const("a")})

    def test_null_depths_green(self):
        branch = _branch("A(a)")
        n = branch.fresh_null(1)
        branch.interp.add(Atom("A", (n,)))
        self.san.check_null_depths(branch, max_depth=3)

    def test_null_without_depth_seeded(self):
        branch = _branch("A(a)")
        branch.interp.add(Atom("A", (Null("ghost"),)))  # no depth recorded
        with pytest.raises(SanitizerError, match="no recorded creation depth"):
            self.san.check_null_depths(branch)

    def test_constant_with_nonzero_depth_seeded(self):
        branch = _branch("A(a)")
        branch.depth[Const("a")] = 2
        with pytest.raises(SanitizerError, match="expected 0"):
            self.san.check_null_depths(branch)

    def test_null_beyond_bound_seeded(self):
        branch = _branch("A(a)")
        n = branch.fresh_null(7)
        branch.interp.add(Atom("A", (n,)))
        with pytest.raises(SanitizerError, match="beyond the chase bound"):
            self.san.check_null_depths(branch, max_depth=3)

    def test_egd_green(self):
        onto = ontology("forall x,y (R(x,y) -> A(x))", functional=["R"])
        branch = _branch("R(a,b)")
        self.san.check_egd_consistency(branch, onto)

    def test_egd_violation_seeded(self):
        onto = ontology("forall x,y (R(x,y) -> A(x))", functional=["R"])
        branch = _branch("R(a,b)", "R(a,c)")  # a has two R-successors
        with pytest.raises(SanitizerError, match="EGD violation"):
            self.san.check_egd_consistency(branch, onto)

    def test_egd_inverse_functional_seeded(self):
        onto = ontology("forall x,y (R(x,y) -> A(x))")
        onto = type(onto)(onto.sentences, inverse_functional=["R"])
        branch = _branch("R(b,a)", "R(c,a)")
        with pytest.raises(SanitizerError, match="EGD violation"):
            self.san.check_egd_consistency(branch, onto)

    def test_chase_green_end_to_end(self):
        onto = ontology(
            "forall x (A(x) -> exists y (R(x,y) & B(y)))\n"
            "forall x,y (R(x,y) -> C(x))",
            functional=["R"])
        result = chase(onto, make_instance("A(a)"), sanitize=True)
        assert result.is_consistent

    # -- quiescence

    CHAIN = [DisjunctiveRule((Atom("A", (x,)),), (Head((Atom("B", (x,)),), ()),)),
             DisjunctiveRule((Atom("B", (x,)),), (Head((Atom("C", (x,)),), ()),))]
    CYCLE = [DisjunctiveRule((Atom("P", (x,)),),
                             (Head((Atom("R", (x, y)), Atom("P", (y,))), (y,)),))]

    def test_quiescent_green(self):
        self.san.check_quiescent(_branch("A(a)", "B(a)", "C(a)"),
                                 self.CHAIN, max_depth=3)
        branch = _branch("P(a)")
        n = branch.fresh_null(1)
        branch.interp.add(Atom("R", (Const("a"), n)))
        branch.interp.add(Atom("P", (n,)))
        branch.complete = False  # n's witness sits beyond depth 1
        self.san.check_quiescent(branch, self.CYCLE, max_depth=1)

    def test_quiescent_missed_horn_trigger_seeded(self):
        with pytest.raises(SanitizerError, match="creates no nulls"):
            self.san.check_quiescent(_branch("A(a)", "B(a)"), self.CHAIN,
                                     max_depth=3)

    def test_quiescent_complete_branch_with_open_trigger_seeded(self):
        with pytest.raises(SanitizerError, match="marked complete"):
            self.san.check_quiescent(_branch("P(a)"), self.CYCLE,
                                     max_depth=3)

    def test_quiescent_trigger_within_the_bound_seeded(self):
        branch = _branch("P(a)")
        branch.complete = False
        with pytest.raises(SanitizerError, match="within the bound 3"):
            self.san.check_quiescent(branch, self.CYCLE, max_depth=3)
        # under a fault plan chase_truncate may cut any trigger
        self.san.check_quiescent(branch, self.CYCLE, max_depth=3,
                                 faulted=True)

    def test_chase_with_a_dropped_trigger_fails_quiescence(self, monkeypatch):
        real = chase_module._discover
        dropped = []

        def discover(agenda, rules, interp, delta=None):
            before = len(agenda.heap)
            real(agenda, rules, interp, delta)
            if delta is not None and not dropped and len(agenda.heap) > before:
                dropped.append(agenda.heap.pop())  # a leaf: still a heap

        monkeypatch.setattr(chase_module, "_discover", discover)
        onto = ontology("forall x (A(x) -> B(x))\nforall x (B(x) -> C(x))")
        with pytest.raises(SanitizerError, match="missed trigger"):
            chase(onto, make_instance("A(a)"), sanitize=True)
        assert len(dropped) == 1

    def test_unpatched_chase_passes_quiescence(self):
        onto = ontology("forall x (A(x) -> B(x))\nforall x (B(x) -> C(x))")
        (branch,) = chase(onto, make_instance("A(a)"), sanitize=True).branches
        assert Atom("C", (Const("a"),)) in branch.interp
        cyclic = ontology(
            "forall x (P(x) -> exists y (R(x,y) & P(y)))")
        (branch,) = chase(cyclic, make_instance("P(a)"), max_depth=2,
                          sanitize=True).branches
        assert not branch.complete


class TestCdclSanitizer:
    san = CdclSanitizer()

    def _solver(self, num_vars=3, clauses=((1, 2, 3),)):
        return Solver(num_vars, [list(c) for c in clauses], sanitize=False)

    # -- watches

    def test_watches_green(self):
        self.san.check_watches(self._solver())

    def test_watches_wrong_literal_seeded(self):
        solver = self._solver()
        # move a watch to a literal that is not one of the first two
        solver.watches[-1].remove(0)
        solver.watches.setdefault(-3, []).append(0)
        with pytest.raises(SanitizerError, match="two-watched-literal"):
            self.san.check_watches(solver)

    def test_watches_stray_index_seeded(self):
        solver = self._solver()
        solver.watches.setdefault(-2, []).append(99)
        with pytest.raises(SanitizerError, match="unknown clause indices"):
            self.san.check_watches(solver)

    def test_watches_short_clause_seeded(self):
        solver = self._solver()
        solver.clauses.append([1])
        with pytest.raises(SanitizerError, match="length 1"):
            self.san.check_watches(solver)

    # -- trail

    def test_trail_green(self):
        solver = self._solver(2, [(1, 2), (-1, 2)])
        solver.trail_lim.append(len(solver.trail))
        assert solver._enqueue(-1, None)
        assert solver._propagate() is None  # forces 2 via (1, 2)
        self.san.check_trail(solver)

    def test_trail_duplicate_var_seeded(self):
        solver = self._solver()
        solver.assign[1] = 1
        solver.trail = [1, 1]
        with pytest.raises(SanitizerError, match="assigned twice"):
            self.san.check_trail(solver)

    def test_trail_false_literal_seeded(self):
        solver = self._solver()
        solver.assign[1] = -1
        solver.trail = [1]
        with pytest.raises(SanitizerError, match="evaluate to true"):
            self.san.check_trail(solver)

    def test_trail_level_mismatch_seeded(self):
        solver = self._solver()
        solver.assign[1] = 1
        solver.level[1] = 3  # but no decision was taken
        solver.trail = [1]
        with pytest.raises(SanitizerError, match="trail level"):
            self.san.check_trail(solver)

    def test_trail_non_propagating_reason_seeded(self):
        solver = self._solver()
        solver.assign[1] = 1
        solver.assign[2] = 1
        solver.trail = [1, 2]
        solver.reason[2] = [2, 1]  # literal 1 is true, so not propagating
        with pytest.raises(SanitizerError, match="not propagating"):
            self.san.check_trail(solver)

    def test_trail_reason_missing_literal_seeded(self):
        solver = self._solver()
        solver.assign[1] = 1
        solver.trail = [1]
        solver.reason[1] = [2, 3]
        with pytest.raises(SanitizerError, match="does not contain"):
            self.san.check_trail(solver)

    def test_trail_assigned_but_absent_seeded(self):
        solver = self._solver()
        solver.assign[2] = -1  # never enqueued
        with pytest.raises(SanitizerError, match="absent from the trail"):
            self.san.check_trail(solver)

    # -- learned clauses

    def _learned_state(self):
        solver = self._solver(3, [(1, 2, 3),])
        solver.trail_lim.append(0)
        solver._enqueue(-2, None)   # decision at level 1
        return solver

    def test_learned_green(self):
        solver = self._learned_state()
        self.san.check_learned(solver, [1, 2], 1)

    def test_learned_duplicate_var_seeded(self):
        solver = self._learned_state()
        with pytest.raises(SanitizerError, match="twice"):
            self.san.check_learned(solver, [1, -1], 0)

    def test_learned_asserting_literal_assigned_seeded(self):
        solver = self._learned_state()
        with pytest.raises(SanitizerError, match="already assigned"):
            self.san.check_learned(solver, [-2, 1], 0)

    def test_learned_other_literal_not_false_seeded(self):
        solver = self._learned_state()
        with pytest.raises(SanitizerError, match="not false"):
            self.san.check_learned(solver, [1, 3], 0)

    def test_learned_wrong_backjump_level_seeded(self):
        solver = self._learned_state()
        with pytest.raises(SanitizerError, match="assertion level"):
            self.san.check_learned(solver, [1, 2], 0)  # should be 1

    # -- model

    def test_model_green(self):
        solver = self._solver(2, [(1, 2)])
        solver.assign[1] = 1
        solver.assign[2] = -1
        self.san.check_model(solver)

    def test_model_unassigned_seeded(self):
        solver = self._solver(2, [(1, 2)])
        solver.assign[1] = 1
        with pytest.raises(SanitizerError, match="unassigned"):
            self.san.check_model(solver)

    def test_model_falsified_clause_seeded(self):
        solver = self._solver(2, [(1, 2)])
        solver.assign[1] = -1
        solver.assign[2] = -1
        with pytest.raises(SanitizerError, match="falsifies clause"):
            self.san.check_model(solver)

    # -- end to end

    def test_solver_green_with_conflicts(self):
        # needs learning: the all-False default assignment conflicts
        clauses = [[1, 2], [-1, 2], [1, -2], [2, 3], [-3, 1]]
        model = Solver(3, clauses, sanitize=True).solve()
        assert model is not None
        assert model[1] and model[2]

    def test_solver_green_unsat(self):
        clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
        assert Solver(2, clauses, sanitize=True).solve() is None
