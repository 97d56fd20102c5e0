"""Compiled OMQ plans: prepare once, evaluate many times.

The paper's central object is the OMQ (O, Σ, q) evaluated against many data
instances — exactly the workload shape of a query service.  A
:class:`CompiledOMQ` performs everything that depends only on the
(ontology, query) pair **once**:

* lint preflight (:mod:`repro.analysis`) — a broken OMQ fails at compile
  time, not per instance;
* rule conversion through the content-addressed conversion cache
  (:func:`repro.serving.cache.convert_ontology_cached`);
* ontology classification (the Figure-1 band, without the materializability
  search — that is a research procedure, not a serving preflight);
* construction of the budgeted :class:`~repro.semantics.certain.CertainEngine`
  whose escalation ladder then serves every instance.

:func:`compile_omq` is itself memoized per (ontology, query, options)
fingerprint, so compiling the same OMQ twice in one process returns the
same warm plan.  ``CompiledOMQ.evaluate`` consults an optional
:class:`~repro.serving.cache.AnswerCache` before running the engine and
never caches non-definitive (``UNKNOWN``) results.

**The dichotomy-aware fast path.**  With ``fastpath="auto"`` the compiler
additionally tries to *prove* the plan can skip the escalation ladder:
if the OMQ sits in a Figure-1 DICHOTOMY fragment, is Horn (hence
materializable, hence unravelling tolerant — the PTIME side of the paper's
dichotomy), and the Theorem-5 Datalog≠ rewriting both emits and passes the
static admissibility analysis of :mod:`repro.analysis.program`, the plan
becomes a ``datalog-fastpath`` plan: evaluation is one stratified
semi-naive fixpoint instead of the ladder's chase and SAT rungs.  Every
refusal records its reason (``fastpath_reason``) and falls back to the
ladder — the fast path is an optimization gate, never a soundness risk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..obs import current_tracer
from ..queries.cq import CQ, UCQ, parse_cq, parse_ucq
from ..runtime import Budget, ResourceExhausted
from ..semantics.certain import Backend, CertainEngine
from ..semantics.rules import DisjunctiveRule
from .cache import AnswerCache, LRUCache, convert_ontology_cached
from .fingerprint import (
    fingerprint_instance, fingerprint_omq, fingerprint_ontology,
    fingerprint_query,
)
from .metrics import MetricsRegistry


def parse_query(text: str) -> CQ | UCQ:
    """Parse a CQ, or a ``;``-separated UCQ (the CLI convention)."""
    return parse_ucq(text) if ";" in text else parse_cq(text)


@dataclass(frozen=True)
class EvalResult:
    """One instance evaluated under a compiled plan.

    ``verdict`` is ``yes``/``no`` for Boolean queries, ``ok`` for open
    queries that completed, ``unknown`` when the budget ran out.  Answers
    are rendered element tuples (sorted), identical between cold and
    cached evaluations.
    """

    verdict: str
    answers: tuple[tuple[str, ...], ...] = ()
    outcome: dict[str, Any] | None = None
    cache_hit: bool = False
    elapsed: float = 0.0
    path: str = "ladder"  # "ladder" | "fastpath" | "cache"

    @property
    def definitive(self) -> bool:
        return self.verdict != "unknown"

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "answers": [list(a) for a in self.answers],
            "outcome": self.outcome,
            "cache_hit": self.cache_hit,
            "elapsed": round(self.elapsed, 6),
            "path": self.path,
        }


@dataclass
class CompiledOMQ:
    """A reusable evaluation plan for one (ontology, query) pair."""

    onto: Ontology
    query: CQ | UCQ
    engine: CertainEngine
    rules: "list[DisjunctiveRule] | None"
    ontology_fingerprint: str
    query_fingerprint: str
    fingerprint: str
    band: str | None = None
    answer_cache: AnswerCache | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Fast-path state: a statically-verified Datalog≠ rewriting.  When
    # plan_kind == "datalog-fastpath" evaluation runs `program` (already
    # optimized) under `strata`; the ladder engine stays compiled as the
    # documented fallback.  `fastpath_reason` records why the gate
    # accepted ("" == accepted) or refused the fast path.
    plan_kind: str = "ladder"
    program: Any = None                   # repro.datalog.Program | None
    strata: tuple = ()
    program_report: Any = None            # repro.analysis.ProgramReport | None
    program_meta: dict[str, Any] | None = None
    fastpath_reason: str = ""

    @property
    def uses_chase(self) -> bool:
        return self.engine.uses_chase

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary of what was compiled."""
        out = {
            "fingerprint": self.fingerprint,
            "ontology": self.ontology_fingerprint,
            "query": self.query_fingerprint,
            "backend": "chase" if self.uses_chase else "sat",
            "rules": len(self.rules) if self.rules is not None else None,
            "band": self.band,
            "arity": self.query.arity,
            "plan_kind": self.plan_kind,
        }
        if self.fastpath_reason:
            out["fastpath_reason"] = self.fastpath_reason
        if self.program is not None:
            out["program_rules"] = len(self.program.rules)
            out["program_strata"] = len(self.strata)
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        instance: Interpretation,
        budget: Budget | None = None,
    ) -> EvalResult:
        """Certain answers (or the Boolean verdict) for one instance.

        Consults the answer cache first; on a miss runs the engine and —
        when the result is definitive — populates the cache, so the next
        evaluation of the same (plan, instance) pair is a lookup.

        Cache hits observe the dedicated ``cache_hit_seconds`` histogram
        (microseconds of lookup, not engine time), so ``eval_seconds``
        stays an honest engine-latency distribution.
        """
        with current_tracer().span("plan.evaluate", arity=self.query.arity) as span:
            start = time.perf_counter()
            key = None
            if self.answer_cache is not None:
                key = AnswerCache.key(
                    self.fingerprint, fingerprint_instance(instance))
                hit = self.answer_cache.get(key)
                if hit is not None:
                    self.metrics.counter("answer_cache_hits").inc()
                    elapsed = time.perf_counter() - start
                    self.metrics.histogram("cache_hit_seconds").observe(elapsed)
                    span.set(cache_hit=True, verdict=hit["verdict"])
                    return EvalResult(
                        verdict=hit["verdict"],
                        answers=tuple(tuple(a) for a in hit["answers"]),
                        outcome=hit["outcome"],
                        cache_hit=True,
                        elapsed=elapsed,
                        path="cache",
                    )
                self.metrics.counter("answer_cache_misses").inc()

            path = "ladder"
            try:
                if self.plan_kind == "datalog-fastpath":
                    path = "fastpath"
                    verdict, answers, outcome = self._run_fastpath(
                        instance, budget)
                elif self.query.arity == 0:
                    holds = self.engine.entails(instance, self.query, (),
                                                budget=budget)
                    verdict = "yes" if holds else "no"
                    answers: tuple[tuple[str, ...], ...] = ()
                    outcome = self._ladder_outcome()
                else:
                    raw = self.engine.certain_answers(instance, self.query,
                                                      budget=budget)
                    answers = tuple(sorted(
                        tuple(repr(e) for e in a) for a in raw))
                    verdict = "ok"
                    outcome = self._ladder_outcome()
            except ResourceExhausted as exc:
                self.metrics.counter("unknown_results").inc()
                span.set(cache_hit=False, verdict="unknown", path=path)
                return EvalResult(
                    verdict="unknown",
                    outcome=exc.outcome.to_dict(),
                    elapsed=time.perf_counter() - start,
                    path=path,
                )

            self.metrics.counter(f"{path}_evals").inc()
            result = EvalResult(
                verdict=verdict, answers=answers, outcome=outcome,
                elapsed=time.perf_counter() - start, path=path)
            if key is not None:
                self.answer_cache.put(key, {
                    "verdict": verdict,
                    "answers": [list(a) for a in answers],
                    "outcome": outcome,
                })
            self.metrics.histogram("eval_seconds").observe(result.elapsed)
            span.set(cache_hit=False, verdict=verdict, path=path)
            return result

    def _ladder_outcome(self) -> dict[str, Any] | None:
        last = self.engine.last_outcome
        if last is None:
            return None
        self.metrics.counter(f"engine_{last.engine}").inc()
        self.metrics.counter("escalation_rungs").inc(
            max(0, len(last.attempts) - 1))
        return last.to_dict()

    def _run_fastpath(
        self,
        instance: Interpretation,
        budget: Budget | None,
    ) -> tuple[str, tuple[tuple[str, ...], ...], dict[str, Any]]:
        """Evaluate via the statically-verified Datalog≠ rewriting.

        One stratified semi-naive fixpoint; a budget deadline raises
        :class:`ResourceExhausted` exactly like a ladder rung.  If the
        fixpoint derives an empty-type fact (``empty_pred``), the instance
        is inconsistent with the ontology, so *every* element is a certain
        answer — the emitted goal rules alone under-report that case.
        """
        from ..datalog.engine import evaluate as datalog_evaluate
        from ..runtime.budget import BudgetExceeded
        from ..runtime.outcome import Attempt, Outcome, Verdict

        try:
            fixpoint = datalog_evaluate(
                self.program, instance,
                strata=self.strata or None, budget=budget)
        except ResourceExhausted:
            raise
        except BudgetExceeded as exc:
            raise ResourceExhausted(Outcome.exhausted_outcome(exc)) from exc
        empty_pred = (self.program_meta or {}).get("empty_pred")
        if empty_pred is not None and any(True for _ in
                                          fixpoint.tuples(empty_pred)):
            raw = {(e,) for e in instance.dom()}
            detail = "inconsistent instance: every element is certain"
        else:
            raw = set(fixpoint.tuples(self.program.goal))
            detail = ""
        answers = tuple(sorted(tuple(repr(e) for e in a) for a in raw))
        outcome = Outcome(
            verdict=Verdict.YES if answers else Verdict.NO,
            definitive=True,
            engine="datalog",
            reason="datalog-fastpath (statically-verified Theorem 5 "
                   "rewriting)",
            attempts=(Attempt(engine="datalog", bound=len(self.strata),
                              result="ok", detail=detail),),
        )
        self.metrics.counter("engine_datalog").inc()
        return "ok", answers, outcome.to_dict()

    def entails(
        self,
        instance: Interpretation,
        answer: Sequence[Any] = (),
        budget: Budget | None = None,
    ) -> bool:
        """Uncached passthrough to the compiled engine (full parity)."""
        return self.engine.entails(instance, self.query, answer,
                                   budget=budget)

    def reset_metrics(self) -> MetricsRegistry:
        """Detach and return the accumulated metrics, installing a fresh
        registry (used by callers that snapshot per-job metrics)."""
        snapshot = self.metrics
        self.metrics = MetricsRegistry()
        return snapshot

    def stats(self) -> dict[str, Any]:
        out = self.metrics.to_dict()
        if self.answer_cache is not None:
            out["answer_cache"] = self.answer_cache.stats()
        return out


# -- compilation -------------------------------------------------------------

_plan_cache = LRUCache(maxsize=64)


def clear_plan_cache() -> None:
    _plan_cache.clear()


def plan_cache_stats() -> dict[str, int | float]:
    return _plan_cache.stats()


def compile_omq(
    onto: Ontology,
    query: CQ | UCQ | str,
    backend: Backend = "auto",
    preflight: bool = False,
    classify: bool = False,
    chase_depth: int = 6,
    sat_extra: int = 3,
    answer_cache: AnswerCache | str | None = None,
    fastpath: str = "off",
) -> CompiledOMQ:
    """Compile (or fetch the memoized plan for) one OMQ.

    With ``preflight=True`` the ontology and query are linted and an
    error-level diagnostic raises :class:`repro.analysis.LintError` here —
    per-instance evaluation then needs no further static checks.  A plan
    fetched from the memo starts each caller with a *fresh* metrics
    registry (a shared plan must not leak one caller's latency histograms
    into another's report); likewise the *answer_cache* argument
    (including ``None``) replaces the memoized plan's cache handle.
    *answer_cache* also accepts a storage-backend URI string
    (``dir:PATH``, ``sqlite:PATH``, ``shard:PATH?shards=N``): it is
    opened via :func:`repro.storage.base.open_backend` and wrapped in a
    fresh :class:`AnswerCache`, which the returned plan then owns.

    *fastpath* gates the ``datalog-fastpath`` plan kind (see the module
    docstring): ``"off"`` (default — rewriting construction costs seconds
    per OMQ, so it is strictly opt-in), ``"auto"`` (attempt the fast path,
    but only after a cheap static PTIME proof: Figure-1 DICHOTOMY band +
    Horn), or ``"force"`` (skip the PTIME classification and trust the
    caller — still sound for PTIME OMQs; for others the rewriting
    over-approximates and ``certain`` may over-report, which is why force
    is a testing knob, not a serving default).
    """
    if fastpath not in ("off", "auto", "force"):
        raise ValueError(f"fastpath must be off/auto/force, got {fastpath!r}")
    if isinstance(answer_cache, str):
        from ..storage.base import open_backend

        answer_cache = AnswerCache(backend=open_backend(answer_cache))
    with current_tracer().span("plan.compile", backend=str(backend)) as span:
        if isinstance(query, str):
            if preflight:
                # Query-text lint at compile time (the engine's own preflight
                # covers the ontology and per-workload signature checks).
                from ..analysis import LintError, has_errors, lint_query_text

                diags = lint_query_text(query)
                if has_errors(diags):
                    raise LintError(diags)
            query = parse_query(query)
        onto_fp = fingerprint_ontology(onto)
        query_fp = fingerprint_query(query)
        memo_key = AnswerCache.key(
            onto_fp, query_fp,
            f"{backend}|{preflight}|{classify}|{chase_depth}|{sat_extra}"
            f"|{fastpath}")
        plan = _plan_cache.get(memo_key)
        if plan is not None:
            # The caller's cache handle replaces the memoized plan's —
            # including None: a caller expecting uncached evaluation (e.g. a
            # cold benchmark) must not inherit a previous caller's warm
            # cache.  The metrics registry is replaced for the same reason:
            # a memo hit hands the caller warm *compilation*, not another
            # caller's accumulated observations.
            plan.answer_cache = answer_cache
            plan.metrics = MetricsRegistry()
            span.set(memo_hit=True)
            return plan

        # preflight=True makes the engine lint the ontology at construction
        # (LintError here, once per plan) and cross-check every workload.
        rules = convert_ontology_cached(onto)
        engine = CertainEngine(onto, backend=backend, chase_depth=chase_depth,
                               sat_extra=sat_extra, preflight=preflight,
                               rules=rules)
        band: str | None = None
        if classify:
            from ..core.classify import classify_ontology

            band = classify_ontology(onto, check_mat=False).band.name

        plan = CompiledOMQ(
            onto=onto,
            query=query,
            engine=engine,
            rules=rules,
            ontology_fingerprint=onto_fp,
            query_fingerprint=query_fp,
            fingerprint=fingerprint_omq(onto, query),
            band=band,
            answer_cache=answer_cache,
        )
        if fastpath != "off":
            _try_fastpath(plan, mode=fastpath)
        _plan_cache.put(memo_key, plan)
        span.set(memo_hit=False, plan_kind=plan.plan_kind)
        return plan


def _try_fastpath(plan: CompiledOMQ, mode: str) -> None:
    """Upgrade *plan* to ``datalog-fastpath`` when that is provably sound.

    The gate, in increasing cost order; the first failing step records its
    reason in ``plan.fastpath_reason`` and leaves the ladder plan intact:

    1. the query is a unary rooted-acyclic CQ (the shape Theorem 5 and the
       program emission cover);
    2. (``auto`` only) a static PTIME proof: the ontology profiles into a
       Figure-1 DICHOTOMY fragment **and** is Horn — Horn ontologies are
       materializable (the paper's Section 6 shortcut), and in a DICHOTOMY
       band materializable == unravelling tolerant == PTIME, so the
       rewriting is *exact*, not an over-approximation;
    3. the type rewriting is constructible and non-trivial — if every
       element type is query-positive the program under-reports elements
       that appear only outside the ontology signature, so the ladder keeps
       those semantics instead;
    4. the emitted program passes :func:`repro.analysis.analyze_program`'s
       admissibility verdict after optimization.
    """
    from ..analysis.program import analyze_program, optimize_program
    from ..queries.cq import CQ as _CQ

    def refuse(reason: str) -> None:
        plan.fastpath_reason = reason

    query = plan.query
    if not isinstance(query, _CQ):
        return refuse("fastpath needs a CQ (UCQs use the ladder)")
    if query.arity != 1:
        return refuse(f"fastpath needs a unary query (arity {query.arity})")
    if not query.is_rooted_acyclic():
        return refuse("fastpath needs a rooted acyclic query")
    if mode == "auto":
        from ..core.dichotomy import Status, classify_profile
        from ..core.materializability import is_horn
        from ..guarded.fragments import profile_ontology

        _, band_status = classify_profile(profile_ontology(plan.onto))
        if band_status is not Status.DICHOTOMY:
            return refuse(
                f"ontology profiles outside the DICHOTOMY band "
                f"({band_status.name}): no static PTIME proof")
        if not is_horn(plan.onto):
            return refuse(
                "ontology is not Horn: materializability is not "
                "statically evident, the ladder decides per instance")
    from ..core.rewriting import TypeRewriting

    try:
        rewriting = TypeRewriting(plan.onto, query)
    except ValueError as exc:
        return refuse(f"type rewriting not constructible: {exc}")
    try:
        program, meta = rewriting.to_datalog_program_with_meta()
    except ValueError as exc:
        return refuse(f"program emission failed: {exc}")
    if meta["trivial"]:
        return refuse(
            "trivially-certain OMQ (every element type is query-positive): "
            "the program cannot see out-of-signature elements")
    optimized = optimize_program(program)
    report = analyze_program(optimized.program)
    if not report.admissible:
        return refuse(
            "optimized program fails admissibility: "
            + "; ".join(report.reasons))
    plan.plan_kind = "datalog-fastpath"
    plan.program = optimized.program
    plan.strata = optimized.strata
    plan.program_report = report
    plan.program_meta = meta
    plan.fastpath_reason = ""
