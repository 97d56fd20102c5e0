"""Fault-injection coverage: every injectable fault exercised on Horn and
non-Horn ontologies, with the escalation ladder converging to the verdict
the unbudgeted engines give."""

import pytest

from repro.csp import clique_template, random_graph_instance, solve
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.syntax import Const
from repro.queries.cq import parse_cq, parse_ucq
from repro.runtime import (
    Budget, BudgetExceeded, FaultPlan, FaultSpec, ResourceExhausted, Verdict,
    parse_faults,
)
from repro.semantics.certain import CertainEngine
from repro.tm import BLANK, TM, Transition, blank_partial_run, fits

HORN = ontology("""
forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))
forall x,y (hasFinger(x,y) -> Digit(y))
""")
NON_HORN = ontology("""
forall x (P(x) -> (A(x) | B(x)))
forall x (x = x -> (A(x) -> exists y (R(x,y) & P(y))))
forall x (x = x -> (B(x) -> exists y (S(x,y) & Q(y))))
""")

# Q clashes with P, and Q facts come only from existential witnesses:
# whether an instance is consistent depends on the existential triggers.
CONSTRAINED = NON_HORN.union(ontology("forall x (Q(x) -> ~P(x))"))

# (ontology, data, query, answer) tier-1-style fixtures; expected verdicts
# come from the unbudgeted engines at runtime, not from hard-coded truth.
WORKLOADS = [
    (HORN, make_instance("Hand(h)"),
     parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)"), (Const("h"),)),
    (HORN, make_instance("Hand(h)"),
     parse_cq("q(x) <- hasFinger(x,y) & Digit(y)"), (Const("h"),)),
    (HORN, make_instance("Hand(h)"),
     parse_cq("q(x) <- hasFinger(x,y) & Index(y)"), (Const("h"),)),
    (NON_HORN, make_instance("P(a)"),
     parse_cq("q() <- R(x,y) & P(y)"), ()),
    (NON_HORN, make_instance("P(a)"),
     parse_cq("q(x) <- P(x)"), (Const("a"),)),
    (NON_HORN, make_instance("P(a)"),
     parse_ucq("q() <- R(x,y) ; q() <- S(x,y)"), ()),
]


class TestFaultPlanParsing:
    def test_rate_becomes_period(self):
        plan = parse_faults("chase_truncate:0.2")
        assert plan.specs["chase_truncate"].period == 5
        fires = [plan.hit("chase_truncate") for _ in range(10)]
        assert fires == [False] * 4 + [True] + [False] * 4 + [True]

    def test_at_fires_exactly_once(self):
        plan = parse_faults("deadline:@3")
        assert [plan.hit("deadline") for _ in range(5)] == [
            False, False, True, False, False]

    def test_bare_site_fires_always(self):
        plan = parse_faults("cdcl_conflicts")
        assert all(plan.hit("cdcl_conflicts") for _ in range(3))

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("warp_core:0.5")
        with pytest.raises(ValueError):
            parse_faults("deadline:2.0")
        with pytest.raises(ValueError):
            parse_faults("deadline:@0")

    def test_empty_plan_is_none(self):
        assert parse_faults("") is None
        assert parse_faults(" , ") is None

    def test_unlisted_site_never_fires(self):
        plan = parse_faults("deadline")
        assert not plan.hit("chase_truncate")

    def test_env_plan_is_cached_per_value(self, monkeypatch):
        import repro.runtime.faults as faults
        monkeypatch.setattr(faults, "_cache", None)
        monkeypatch.setenv("REPRO_FAULTS", "deadline:@1")
        first = faults.active_plan()
        assert faults.active_plan() is first
        monkeypatch.setenv("REPRO_FAULTS", "cdcl_conflicts")
        assert faults.active_plan() is not first


class TestChaseTruncationFault:
    """Injected depth exhaustion: the engine must fall back (observably)
    and still converge to the unbudgeted verdict."""

    @pytest.mark.parametrize("onto,data,query,answer", WORKLOADS)
    def test_ladder_converges_under_truncation(self, onto, data, query, answer):
        engine = CertainEngine(onto)
        expected = engine.entails(data, query, answer)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        outcome = engine.entails_outcome(data, query, answer, budget=budget)
        assert outcome.verdict is (Verdict.YES if expected else Verdict.NO)
        # every chase rung was truncated, so SAT must have answered —
        # except when the query holds on the truncated branches (chase
        # *yes* answers survive truncation by the universality argument).
        if outcome.engine == "sat":
            assert outcome.fallback is not None
            assert "truncated" in outcome.fallback

    @pytest.mark.parametrize("onto,data,query,answer", WORKLOADS[:2])
    def test_partial_truncation_rate(self, onto, data, query, answer):
        engine = CertainEngine(onto)
        expected = engine.entails(data, query, answer)
        budget = Budget(
            timeout=60,
            faults=FaultPlan([FaultSpec("chase_truncate", period=2)]))
        outcome = engine.entails_outcome(data, query, answer, budget=budget)
        assert outcome.verdict is (Verdict.YES if expected else Verdict.NO)

    def test_consistency_under_truncation(self):
        engine = CertainEngine(CONSTRAINED)
        data = make_instance("P(a)")
        expected = engine.is_consistent(data)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        assert engine.is_consistent(data, budget=budget) == expected
        # every existential trigger was truncated, so no complete branch
        # could witness consistency: SAT must have answered.
        assert engine.last_outcome.engine == "sat"
        assert "truncated" in engine.last_outcome.fallback

    def test_consistency_without_constraints_needs_no_existentials(self):
        # NON_HORN has no constraint and no functional role, so no rule
        # can make an instance inconsistent: the chase fires none and
        # answers even when every existential trigger would be truncated.
        engine = CertainEngine(NON_HORN)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        outcome = engine.consistency_outcome(make_instance("P(a)"),
                                             budget=budget)
        assert outcome.verdict is Verdict.YES and outcome.definitive
        assert outcome.engine == "chase" and len(outcome.attempts) == 1

    def test_truncation_cannot_fake_consistency(self):
        """A truncated consistent branch is not a model witness: the
        contradiction sits behind an existential trigger, and injected
        truncation must not turn it into a YES."""
        deep_bad = ontology("""
forall x (x = x -> (P(x) -> exists y (R(x,y) & Bad(y))))
forall x (x = x -> (Bad(x) -> false))
""")
        engine = CertainEngine(deep_bad)
        data = make_instance("P(a)")
        assert not engine.is_consistent(data)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        assert not engine.is_consistent(data, budget=budget)


class TestDeadlineFault:
    @pytest.mark.parametrize("onto", [HORN, NON_HORN])
    def test_injected_expiry_yields_unknown(self, onto):
        engine = CertainEngine(onto)
        data = make_instance(*(["Hand(h)"] if onto is HORN else ["P(a)"]))
        query = parse_cq("q() <- Z(z)")
        budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]))
        outcome = engine.entails_outcome(data, query, (), budget=budget)
        assert outcome.verdict is Verdict.UNKNOWN
        assert "deadline" in outcome.reason
        with pytest.raises(ResourceExhausted):
            engine.entails(data, query, (),
                           budget=Budget(faults=FaultPlan(
                               [FaultSpec("deadline", at=1)])))

    def test_late_injection_lets_easy_instances_finish(self):
        engine = CertainEngine(HORN)
        data = make_instance("Hand(h)")
        budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=10_000)]))
        assert engine.entails(
            data, parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)"),
            (Const("h"),), budget=budget)


class TestCdclConflictFault:
    def test_injected_conflict_cap_yields_unknown(self):
        # UNSAT countermodel search guarantees conflicts: 2-coloring K3.
        from repro.csp import encode_template
        template = clique_template(2).with_precoloring()
        enc = encode_template(template, style="eq")
        triangle = random_graph_instance(3, [(0, 1), (1, 2), (2, 0)])
        data = enc.omq_instance(triangle)
        engine = CertainEngine(enc.ontology)
        expected = engine.entails(data, enc.query, ())
        assert expected is True  # not 2-colorable: the query is certain
        budget = Budget(faults=FaultPlan([FaultSpec("cdcl_conflicts", at=1)]))
        outcome = engine.entails_outcome(data, enc.query, (), budget=budget)
        assert outcome.verdict is Verdict.UNKNOWN
        assert "conflicts" in outcome.reason
        # the ladder trace records the budgeted SAT rung
        assert outcome.attempts[-1].result == "budget"

    def test_conflict_cap_on_horn_ontology_is_harmless(self):
        # Horn + chase answer: the CDCL checkpoint is never reached.
        engine = CertainEngine(HORN)
        budget = Budget(faults=FaultPlan([FaultSpec("cdcl_conflicts", at=1)]))
        assert engine.entails(
            make_instance("Hand(h)"),
            parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)"),
            (Const("h"),), budget=budget)


class TestBacktrackFaults:
    def test_csp_backtrack_fault(self):
        template = clique_template(3)
        graph = random_graph_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert solve(graph, template) is not None
        budget = Budget(faults=FaultPlan([FaultSpec("csp_backtracks", at=1)]))
        with pytest.raises(BudgetExceeded) as err:
            solve(graph, template, budget=budget)
        assert err.value.resource == "backtracks"

    def test_csp_backtrack_limit(self):
        template = clique_template(3)
        graph = random_graph_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(BudgetExceeded):
            solve(graph, template, budget=Budget(backtracks=1))
        assert solve(graph, template, budget=Budget(backtracks=10_000))

    @staticmethod
    def _flip_machine():
        return TM(
            states={"S", "A"},
            alphabet={"0", "1"},
            transitions=[
                Transition("S", "0", "S", "1", "R"),
                Transition("S", "1", "S", "0", "R"),
                Transition("S", BLANK, "A", BLANK, "R"),
            ],
            start="S",
            accept="A",
        )

    def test_rf_backtrack_fault(self):
        tm = self._flip_machine()
        partial = blank_partial_run(width=5, steps=3)
        assert fits(tm, partial) is not None
        budget = Budget(faults=FaultPlan([FaultSpec("rf_backtracks", at=1)]))
        with pytest.raises(BudgetExceeded) as err:
            fits(tm, partial, budget=budget)
        assert err.value.resource == "backtracks"

    def test_rf_late_fault_lets_search_finish(self):
        tm = self._flip_machine()
        partial = blank_partial_run(width=5, steps=3)
        budget = Budget(faults=FaultPlan(
            [FaultSpec("rf_backtracks", at=10_000)]))
        assert fits(tm, partial, budget=budget) is not None


class TestKillFaults:
    """The kill: fault kind: parsing, independent counters, and the hard
    exit (stubbed — real process deaths are covered by the serving
    resilience suite)."""

    def test_parse_kill_prefix(self):
        plan = parse_faults("kill:chase_truncate:@2")
        assert not plan.specs  # no limit spec
        assert plan.kills["chase_truncate"].at == 2
        assert plan.kills["chase_truncate"].kind == "kill"
        assert bool(plan)

    def test_kill_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            parse_faults("kill:warp_core:@1")

    def test_kill_fires_hard_kill_at_the_scheduled_hit(self, monkeypatch):
        import repro.runtime.faults as faults
        killed = []
        monkeypatch.setattr(faults, "hard_kill", killed.append)
        plan = parse_faults("kill:deadline:@3")
        for _ in range(5):
            plan.hit("deadline")
        assert killed == ["deadline"]  # exactly once, on the 3rd hit

    def test_kill_and_limit_counters_are_independent(self, monkeypatch):
        import repro.runtime.faults as faults
        killed = []
        monkeypatch.setattr(faults, "hard_kill", killed.append)
        plan = parse_faults("deadline:@2,kill:deadline:@5")
        fired = [plan.hit("deadline") for _ in range(6)]
        assert fired == [False, True, False, False, False, False]
        assert killed == ["deadline"]
        assert plan.kill_hits["deadline"] == 6

    def test_kill_specs_ship_through_to_kwargs(self, no_ambient_faults):
        budget = Budget(faults=parse_faults("kill:chase_truncate:@1"))
        clone = Budget(**budget.to_kwargs())
        assert clone.faults is not budget.faults
        assert clone.faults.kills["chase_truncate"].at == 1
        assert clone.faults.kill_hits == {"chase_truncate": 0}

    def test_kill_specs_survive_split_and_escalated(self, no_ambient_faults):
        budget = Budget(chase_steps=10,
                        faults=parse_faults("kill:deadline:@4"))
        child = budget.split(2)[0]
        assert child.faults.kills["deadline"].at == 4
        retry = budget.escalated(2.0)
        assert retry.faults.kills["deadline"].at == 4
        assert retry.faults.kill_hits == {"deadline": 0}  # counters restart

    def test_kill_exit_code_is_distinctive(self):
        from repro.runtime import KILL_EXIT_CODE
        assert KILL_EXIT_CODE == 87


class TestBudgetEscalated:
    def test_limits_scale_and_spent_pools_reset(self, no_ambient_faults):
        base = Budget(chase_steps=10, nulls=4, conflicts=8, backtracks=6,
                      timeout=2.0, escalate=False)
        # Burn most of the base allocation, as a failed attempt would.
        base.spent_chase_steps = 9
        base.spent_nulls = 4
        retry = base.escalated(2.0)
        assert retry.max_chase_steps == 20
        assert retry.max_nulls == 8
        assert retry.max_conflicts == 16
        assert retry.max_backtracks == 12
        assert retry.timeout == pytest.approx(4.0)
        assert retry.escalate is False
        # The regression that motivated this method: the retry starts from
        # a *fresh* allocation, not the base's spent pools.
        assert retry.spent_chase_steps == 0
        assert retry.spent_nulls == 0
        for _ in range(15):
            retry.tick_chase_step()  # would blow a spent-pool carry-over

    def test_escalated_child_is_lazy(self, no_ambient_faults):
        retry = Budget(timeout=1.0).escalated(2.0)
        assert retry._start is None  # deadline anchors at first checkpoint

    def test_unlimited_stays_unlimited(self, no_ambient_faults):
        retry = Budget().escalated(3.0)
        assert retry.timeout is None and retry.max_chase_steps is None

    def test_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            Budget().escalated(0)

    def test_not_after_survives_escalation_and_split(self, no_ambient_faults):
        now = [100.0]
        base = Budget(timeout=1.0, time_left=0.5, clock=lambda: now[0])
        assert base.not_after == 100.5
        assert base.remaining() == pytest.approx(0.5)
        retry = base.escalated(16.0)
        assert retry.timeout == pytest.approx(16.0)
        assert retry.not_after == 100.5
        shares = base.split(2)
        assert [b.not_after for b in shares] == [100.5, 100.5]
        assert [b.timeout for b in shares] == [pytest.approx(0.25)] * 2
        now[0] = 100.4
        retry.check_deadline("test")  # 0.1 s left of the request
        assert retry.to_kwargs()["time_left"] == pytest.approx(0.1)
        now[0] = 100.5
        for budget in (retry, *shares):
            with pytest.raises(BudgetExceeded) as exc:
                budget.check_deadline("test")
            assert exc.value.resource == "deadline"
        assert Budget(**base.to_kwargs()).remaining() == 0.0

    def test_retry_after_starved_split_child_succeeds(self, no_ambient_faults):
        # End to end: a split child too small to answer, escalated into one
        # that is.  This is the satellite regression — retries must never
        # inherit the spent pools of the failed attempt.
        from repro.runtime import ResourceExhausted
        from repro.semantics.certain import CertainEngine
        onto = HORN
        data = make_instance("Hand(h1)", "Hand(h2)", "Hand(h3)")
        query = parse_cq("q(x) <- hasFinger(x,y) & Thumb(y)")
        child = Budget(nulls=2, chase_steps=2, conflicts=2,
                       escalate=False).split(2)[0]
        engine = CertainEngine(onto)
        with pytest.raises(ResourceExhausted):
            engine.certain_answers(data, query, budget=child)
        retry = child.escalated(64.0)
        assert engine.certain_answers(data, query, budget=retry) == {
            (Const("h1"),), (Const("h2"),), (Const("h3"),)}
