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
from repro.serving.fingerprint import fingerprint_instance
from repro.serving.plan import BACKENDS, check_options

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


# compile_omq parameters with values its one option check refuses: each
# one was once coerced (int(), bool()) or forwarded unchecked by the
# serving daemon.
MALFORMED = [
    ("backend", "bogus"),
    ("preflight", "no"),
    ("chase_depth", "abc"),
    ("chase_depth", -1),
    ("chase_depth", True),
    ("sat_extra", -5),
    ("fastpath", "force"),
]


class TestOptionCheck:
    @pytest.mark.parametrize("name,value", MALFORMED)
    def test_compile_refuses_a_malformed_option(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            compile_omq(HAND, HAND_QUERY, **{name: value})

    def test_compile_takes_every_accepted_value(self):
        for backend in BACKENDS:
            assert compile_omq(HAND, HAND_QUERY, backend=backend)
        plan = compile_omq(HAND, HAND_QUERY, preflight=True, chase_depth=0,
                           sat_extra=0, fastpath="auto")
        assert plan.evaluate(DATA).verdict == "ok"

    def test_refusals_name_what_is_accepted(self):
        with pytest.raises(ValueError, match="auto or chase or sat"):
            check_options({"backend": "bogus"})
        with pytest.raises(ValueError, match="an integer >= 0, got '6'"):
            check_options({"chase_depth": "6"})
        with pytest.raises(ValueError, match="unknown evaluation option "
                                             "'depth' .*chase_depth"):
            check_options({"depth": 6})
        check_options({})


class TestEvaluate:
    def test_cold_then_warm_are_identical(self, cacheable):
        plan, cache = compile_omq(HAND, HAND_QUERY), AnswerCache()
        cold = plan.evaluate(DATA, cache=cache)
        warm = plan.evaluate(DATA, cache=cache)
        assert not cold.cache_hit
        assert warm.cache_hit == cacheable(cold.outcome)
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

    def test_metrics_accumulate(self, cacheable):
        plan, cache = compile_omq(HAND, HAND_QUERY), AnswerCache()
        first = plan.evaluate(DATA, cache=cache)
        second = plan.evaluate(DATA, cache=cache)
        cached = cacheable(first.outcome)
        assert first.path == "ladder"
        assert second.path == ("cache" if cached else "ladder")
        memory = cache.stats()["memory"]
        assert memory["misses"] == 2 - cached  # one per engine run
        assert memory["hits"] == cached
        assert memory["size"] == (cached or cacheable(second.outcome))


class TestSharedPlan:
    """The memoized plan is shared: per-caller state never lives on it."""

    def test_two_callers_share_one_plan_with_their_own_caches(
            self, cacheable):
        mine, theirs, third = AnswerCache(), AnswerCache(), AnswerCache()
        p1 = compile_omq(HAND, HAND_QUERY)
        p2 = compile_omq(HAND, HAND_QUERY)
        assert p1 is p2
        data = {"h": DATA, "g": make_instance("Hand(g)")}
        # The instances each cache holds an answer for: those whose
        # answer was definitive when evaluated through it, nothing else.
        held = {id(mine): set(), id(theirs): set(), id(third): set()}

        def run(plan, name, cache):
            result = plan.evaluate(data[name], cache=cache)
            assert result.answers == ((name,),)
            assert result.cache_hit == (name in held[id(cache)])
            if cacheable(result.outcome):
                held[id(cache)].add(name)
            # Each evaluate read and wrote only the cache passed to it.
            assert len(cache.memory) == len(held[id(cache)])
            return result.cache_hit

        assert not run(p1, "h", mine) and not run(p2, "g", theirs)
        assert not run(p2, "h", theirs) and not run(p1, "g", mine)
        # Later compiles of the same OMQ, with or without a cache of their
        # own, change nothing either caller sees.
        assert compile_omq(HAND, HAND_QUERY) is p1
        assert not run(compile_omq(HAND, parse_cq(HAND_QUERY)), "h", third)
        # Each caller hits on what its own cache holds.
        run(p1, "h", mine)
        run(p2, "g", theirs)
        assert len(third.memory) == len(held[id(third)])
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

    def test_bound_relative_answer_is_not_cached(self):
        # With no spare nulls the SAT search finds no countermodel, so it
        # returns (a) relative to that bound; the key holds no bound.
        onto = ontology("forall x (A(x) -> exists y (R(x,y) & B(y)))")
        data = make_instance("A(a)")
        cache = AnswerCache()
        bounded = compile_omq(onto, "q(x) <- B(x)", backend="sat",
                              sat_extra=0).evaluate(data, cache=cache)
        assert bounded.answers == (("a",),)
        assert bounded.outcome["definitive"] is False
        assert len(cache.memory) == 0
        default = compile_omq(onto, "q(x) <- B(x)").evaluate(data, cache=cache)
        assert default.answers == ()
        assert default.cache_hit is False
        assert len(cache.memory) == 1  # the definitive answer is cached

    def test_stored_bound_relative_answer_is_recomputed(self, cacheable):
        # A store written while bound-relative answers were still cached.
        onto = ontology("forall x (A(x) -> exists y (R(x,y) & B(y)))")
        data = make_instance("A(a)")
        plan, cache = compile_omq(onto, "q(x) <- B(x)"), AnswerCache()
        key = AnswerCache.key(plan.fingerprint, fingerprint_instance(data))
        cache.memory.put(key, {"verdict": "ok", "answers": [["a"]],
                               "outcome": {"definitive": False}})
        fresh = plan.evaluate(data, cache=cache)
        assert fresh.answers == () and not fresh.cache_hit
        if cacheable(fresh.outcome):  # the real answer replaced it
            assert cache.get(key)["answers"] == []


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

    def test_fault_truncated_answer_is_not_cached(self, monkeypatch):
        # The truncated chase leaves h to the SAT rung, whose yes holds
        # only up to its null bound: the same answer, never cached.
        import repro.runtime.faults as faults
        monkeypatch.setattr(faults, "_cache", None)
        monkeypatch.setenv("REPRO_FAULTS", "chase_truncate")
        plan, cache = compile_omq(HAND, HAND_QUERY), AnswerCache()
        cold = plan.evaluate(DATA, cache=cache)
        warm = plan.evaluate(DATA, cache=cache)
        assert cold.outcome["definitive"] is False
        assert not warm.cache_hit and len(cache.memory) == 0
        assert cold.answers == warm.answers == (("h",),)

    def test_budget_carried_fault_plan_converges(self, no_ambient_faults):
        plan = compile_omq(HAND, HAND_QUERY)
        budget = Budget(timeout=60,
                        faults=FaultPlan([FaultSpec("chase_truncate")]))
        out = plan.evaluate(DATA, budget=budget, cache=AnswerCache())
        assert out.verdict == "ok"
        assert out.answers == (("h",),)
