"""CompiledOMQ plans: compile-once semantics, answer caching, parity."""

import pytest

from repro.analysis import LintError
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.syntax import Const
from repro.queries.cq import parse_cq
from repro.runtime import Budget, FaultPlan, FaultSpec
from repro.semantics.certain import CertainEngine
from repro.serving import (
    AnswerCache, clear_caches, compile_omq, parse_query, plan_cache_stats,
)

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))")
HAND_QUERY = "q(x) <- hasFinger(x,y) & Thumb(y)"
DATA = make_instance("Hand(h)", "Arm(a)")

NON_HORN = ontology(
    "forall x (x = x -> (Coin(x) -> Heads(x) | Tails(x)))")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestParseQuery:
    def test_cq(self):
        q = parse_query("q(x) <- Hand(x)")
        assert q.arity == 1

    def test_ucq(self):
        q = parse_query("q(x) <- Heads(x) ; q(x) <- Tails(x)")
        assert len(q.disjuncts) == 2


class TestCompileMemo:
    def test_same_omq_returns_same_plan(self):
        p1 = compile_omq(HAND, HAND_QUERY)
        p2 = compile_omq(HAND, parse_cq(HAND_QUERY))
        assert p1 is p2
        assert plan_cache_stats()["hits"] == 1

    def test_different_options_get_different_plans(self):
        p1 = compile_omq(HAND, HAND_QUERY, chase_depth=6)
        p2 = compile_omq(HAND, HAND_QUERY, chase_depth=8)
        assert p1 is not p2

    def test_describe_reports_compiled_facts(self):
        plan = compile_omq(HAND, HAND_QUERY)
        d = plan.describe()
        assert d["backend"] == "chase"
        assert d["rules"] == 1
        assert d["arity"] == 1
        assert d["fingerprint"] == plan.fingerprint

    def test_preflight_lint_rejects_broken_omq_at_compile_time(self):
        # OMQ012: answer variable without a body binding (error severity)
        with pytest.raises(LintError):
            compile_omq(HAND, "q(x) <- Hand(y)", preflight=True)


class TestEvaluate:
    def test_cold_then_warm_are_identical(self):
        plan, cache = compile_omq(HAND, HAND_QUERY), AnswerCache()
        cold = plan.evaluate(DATA, cache=cache)
        warm = plan.evaluate(DATA, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.verdict == warm.verdict == "ok"
        assert cold.answers == warm.answers
        assert cold.definitive and warm.definitive

    def test_answers_match_fresh_engine(self):
        plan = compile_omq(HAND, HAND_QUERY)
        got = plan.evaluate(DATA, cache=AnswerCache()).answers
        fresh = CertainEngine(HAND).certain_answers(DATA,
                                                    parse_cq(HAND_QUERY))
        expected = tuple(sorted(tuple(repr(e) for e in a) for a in fresh))
        assert got == expected
        assert got == (("h",),)

    def test_boolean_query_verdicts(self):
        plan, cache = compile_omq(HAND, "q() <- Hand(x)"), AnswerCache()
        assert plan.evaluate(DATA, cache=cache).verdict == "yes"
        assert plan.evaluate(make_instance("Arm(a)"),
                             cache=cache).verdict == "no"
        # both verdicts land in the cache
        assert plan.evaluate(DATA, cache=cache).cache_hit

    def test_entails_passthrough(self):
        plan = compile_omq(HAND, HAND_QUERY)
        assert plan.entails(DATA, (Const("h"),))
        assert not plan.entails(DATA, (Const("a"),))

    def test_evaluate_without_cache_still_works(self):
        plan = compile_omq(HAND, HAND_QUERY)
        r1, r2 = plan.evaluate(DATA), plan.evaluate(DATA)
        assert r1.answers == r2.answers
        assert not r1.cache_hit and not r2.cache_hit

    def test_metrics_accumulate(self):
        plan, cache = compile_omq(HAND, HAND_QUERY), AnswerCache()
        first = plan.evaluate(DATA, cache=cache)
        second = plan.evaluate(DATA, cache=cache)
        assert (first.path, second.path) == ("ladder", "cache")
        memory = cache.stats()["memory"]
        assert memory["misses"] == 1  # only the engine run
        assert memory["hits"] == 1
        assert memory["size"] == 1


class TestSharedPlan:
    """The memoized plan is shared: per-caller state never lives on it."""

    def test_two_callers_share_one_plan_with_their_own_caches(self):
        mine, theirs = AnswerCache(), AnswerCache()
        p1 = compile_omq(HAND, HAND_QUERY)
        p2 = compile_omq(HAND, HAND_QUERY)
        assert p1 is p2
        other = make_instance("Hand(g)")
        assert not p1.evaluate(DATA, cache=mine).cache_hit
        assert not p2.evaluate(other, cache=theirs).cache_hit
        # Each evaluate read and wrote only the cache passed to it.
        assert len(mine.memory) == len(theirs.memory) == 1
        assert not p2.evaluate(DATA, cache=theirs).cache_hit
        assert not p1.evaluate(other, cache=mine).cache_hit
        assert len(mine.memory) == len(theirs.memory) == 2
        # Later compiles of the same OMQ, with or without a cache of their
        # own, change nothing either caller sees.
        assert compile_omq(HAND, HAND_QUERY) is p1
        third = AnswerCache()
        assert compile_omq(HAND, parse_cq(HAND_QUERY)).evaluate(
            DATA, cache=third).cache_hit is False
        assert p1.evaluate(DATA, cache=mine).cache_hit
        assert p2.evaluate(other, cache=theirs).cache_hit
        assert len(mine.memory) == len(theirs.memory) == 2
        assert len(third.memory) == 1
        # A caller asking for uncached evaluation (e.g. a cold benchmark)
        # never gets another caller's cached answers.
        assert p1.evaluate(DATA).cache_hit is False
        assert not hasattr(p1, "answer_cache")


class TestUnknownResults:
    def test_exhausted_budget_yields_unknown_and_is_not_cached(
            self, no_ambient_faults):
        cache = AnswerCache()
        plan = compile_omq(HAND, HAND_QUERY)
        starved = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]),
                         escalate=False)
        out = plan.evaluate(DATA, budget=starved, cache=cache)
        assert out.verdict == "unknown"
        assert not out.definitive
        assert out.outcome["verdict"] == "unknown"
        assert "deadline" in out.outcome["reason"]
        assert len(cache.memory) == 0  # non-definitive: never cached
        # a healthy retry on the same plan now succeeds and caches
        retry = plan.evaluate(DATA, cache=cache)
        assert retry.verdict == "ok" and not retry.cache_hit
        assert plan.evaluate(DATA, cache=cache).cache_hit


class TestUnderFaultInjection:
    """Cold and cached runs agree even when the chase is being truncated."""

    def test_cold_vs_cached_identical_under_repro_faults(self, monkeypatch):
        import repro.runtime.faults as faults
        monkeypatch.setattr(faults, "_cache", None)
        monkeypatch.setenv("REPRO_FAULTS", "chase_truncate")
        plan = compile_omq(NON_HORN,
                           "q(x) <- Heads(x) ; q(x) <- Tails(x)")
        cache = AnswerCache()
        data = make_instance("Coin(c)")
        cold = plan.evaluate(data, budget=Budget(timeout=60), cache=cache)
        warm = plan.evaluate(data, budget=Budget(timeout=60), cache=cache)
        assert warm.cache_hit
        assert cold.verdict == warm.verdict == "ok"
        assert cold.answers == warm.answers == (("c",),)

    def test_budget_carried_fault_plan_converges(self, no_ambient_faults):
        plan = compile_omq(HAND, HAND_QUERY)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        out = plan.evaluate(DATA, budget=budget, cache=AnswerCache())
        assert out.verdict == "ok"
        assert out.answers == (("h",),)
