"""Unified certain-answer engine.

Backend selection:

* **chase** — used when the ontology converts to disjunctive existential
  rules; polynomial per branch and exact whenever the chase terminates
  within the depth bound (and for *yes* answers even when truncated).
* **sat** — bounded finite-countermodel search; the general fallback, exact
  for *no* answers, and exact for *yes* relative to the domain bound
  (the guarded fragment has the finite model property).

Arbitration is **observable and budgeted**: every decision produces a
:class:`repro.runtime.Outcome` (verdict, definitiveness, answering engine,
fallback provenance, escalation-ladder trace, resources consumed), exposed
via ``entails_outcome`` / ``consistency_outcome`` and ``last_outcome``.
``certain_answers`` decides every candidate tuple in **one** ladder — one
chase per chase rung, one countermodel search per still-pending tuple per
SAT rung — and its outcome covers the whole candidate set.  Each chase
rung fires only the rules the question can see, split once per query
predicates (:func:`repro.semantics.rules.split_rules`): rules that feed
the query branch, rules that only feed constraints are searched for one
consistent completion, the rest never fire.  Consistency is the
empty-query case, and ``explain`` keeps every rule, because its
countermodel must be a model of O.
Under a :class:`repro.runtime.Budget` the engine climbs an escalation
ladder — geometrically growing chase depths and SAT domain bounds under
the remaining budget — and degrades to an explicit
``UNKNOWN(resource_exhausted)`` instead of hanging or guessing; the
boolean APIs then raise :class:`repro.runtime.ResourceExhausted`.

``CertainEngine`` also provides consistency checking and O-saturation
(the saturation of an instance with all entailed facts over its domain,
used by the decision procedures of Section 8).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Literal, Sequence

from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Element
from ..obs import current_tracer
from ..queries.cq import CQ, UCQ
from ..runtime import (
    Attempt, Budget, BudgetExceeded, Outcome, ResourceExhausted, Verdict,
    chase_rungs, sat_rungs,
)
from .chase import ChaseError, ChaseResult, answer_from_chase, chase
from .modelsearch import certain_answer as sat_certain_answer
from .modelsearch import find_model
from .rules import DisjunctiveRule, RuleSplit, split_rules

Backend = Literal["auto", "chase", "sat"]

# settle(chase_result, item) -> ("yes" | "no" | "truncated", witness);
# search(item, extra) -> (holds, witness).  Witnesses are models.
_Settle = Callable[[ChaseResult, Hashable],
                   tuple[str, "Interpretation | None"]]
_Search = Callable[[Hashable, int], tuple[bool, "Interpretation | None"]]


@dataclass(frozen=True)
class Decision:
    """How the ladder settled one pending item (a candidate tuple, or the
    consistency question): the verdict, whether it is definitive (else
    bound-relative to the final SAT rung), and the model behind it."""

    holds: bool
    definitive: bool
    witness: Interpretation | None = None


@dataclass
class CertainEngine:
    """Certain-answer computation for a fixed ontology.

    With ``preflight=True`` the engine lints the ontology at construction
    time and every (instance, query) workload before evaluation, raising
    :class:`repro.analysis.LintError` with the full diagnostic list when an
    error-level finding fires — instead of a deep traceback (or a silently
    wrong verdict) later.

    Every evaluation method accepts an optional ``budget``
    (:class:`repro.runtime.Budget`); without one the engine falls back to
    ``Budget.from_env()`` (the ``REPRO_TIMEOUT`` / ``REPRO_BUDGET``
    variables) and, failing that, to an unlimited accounting-only budget
    with the classic one-shot bounds.  ``last_outcome`` always holds the
    :class:`repro.runtime.Outcome` of the most recent decision.
    """

    onto: Ontology
    backend: Backend = "auto"
    chase_depth: int = 6
    sat_extra: int = 3
    preflight: bool = False
    rules: "list[DisjunctiveRule] | None" = field(default=None, repr=False)
    last_outcome: Outcome | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.preflight:
            from ..analysis import LintError, has_errors, lint_ontology
            diags = lint_ontology(self.onto)
            if has_errors(diags):
                raise LintError(diags)
        if self.rules is not None:
            # A compiled plan (repro.serving) hands the conversion in.
            self._rules = self.rules
        else:
            # Memoized per ontology fingerprint: fresh engines over the
            # same ontology share one conversion (repro.serving.cache).
            from ..serving.cache import convert_ontology_cached
            self._rules = convert_ontology_cached(self.onto)
        if self.backend == "chase" and self._rules is None:
            raise ValueError("ontology is not rule-convertible; use backend='sat'")
        self._splits: dict[frozenset[str], RuleSplit] = {}

    def _preflight_workload(
        self, instance: Interpretation, query: CQ | UCQ | None = None,
    ) -> None:
        """Cross-check the workload signature against the ontology's."""
        if not self.preflight:
            return
        from ..analysis import Diagnostic, LintError, Severity
        seen = dict(self.onto.sig())
        diags: list[Diagnostic] = []

        def check(pred: str, arity: int, where: str) -> None:
            known = seen.setdefault(pred, arity)
            if known != arity:
                diags.append(Diagnostic(
                    "OMQ019", Severity.ERROR,
                    f"predicate {pred} has arity {arity} in the {where} but "
                    f"arity {known} in the ontology",
                    source=where))

        for pred, arity in sorted(instance.sig().items()):
            check(pred, arity, "data")
        if query is not None:
            disjuncts = query.disjuncts if isinstance(query, UCQ) else (query,)
            for cq in disjuncts:
                for atom in sorted(cq.atoms, key=repr):
                    check(atom.pred, atom.arity, "query")
        if diags:
            raise LintError(diags)

    @property
    def uses_chase(self) -> bool:
        return self.backend != "sat" and self._rules is not None

    def _split(self, query: CQ | UCQ | None) -> RuleSplit:
        """The chase's rule split for *query* (``None``: consistency
        only), memoised on the predicates it depends on."""
        visible = frozenset(self.onto.functional) | frozenset(
            self.onto.inverse_functional)
        if query is not None:
            disjuncts = query.disjuncts if isinstance(query, UCQ) else (query,)
            visible |= {atom.pred for cq in disjuncts for atom in cq.atoms}
        split = self._splits.get(visible)
        if split is None:
            split = self._splits[visible] = split_rules(self._rules or (),
                                                        visible)
        return split

    # -- budgeted arbitration core -------------------------------------------

    def _resolve_budget(self, budget: Budget | None) -> Budget:
        if budget is not None:
            return budget
        env_budget = Budget.from_env()
        if env_budget is not None:
            return env_budget
        # Unlimited accounting-only budget: classic one-shot bounds.
        return Budget(escalate=False)

    def _decide(
        self,
        instance: Interpretation,
        budget: Budget,
        items: Sequence[Hashable],
        split: RuleSplit,
        settle: _Settle,
        search: _Search,
        sat_terminal: bool,
        chase_reasons: dict[str, str],
        sat_reasons: tuple[str, str],
    ) -> tuple[Outcome, dict[Hashable, Decision]]:
        """The escalation ladder shared by entailment and consistency.

        The ladder settles a set of pending *items* rung by rung.  Each
        chase rung runs the chase of *instance* once, with the rule
        *split* of the question asked, and reads every pending item off
        that one result with *settle*; items it leaves truncated move on.
        Each SAT rung then runs *search* once per item
        still pending: an answer equal to *sat_terminal* is definitive (a
        concrete (counter)model was found), the final rung's other answer
        is bound-relative.  Budget exhaustion yields verdict UNKNOWN for
        the whole set.

        The returned :class:`Outcome` covers every item: YES when some
        item holds, definitive only when every item was settled
        definitively, engine ``sat`` when a SAT rung settled any item, and
        one attempt per rung carrying the number of items it settled.  An
        empty item set yields a fresh NO without running a rung.

        Observability: the whole decision is one ``certain.decide`` span,
        each rung a ``rung.chase``/``rung.sat`` child span (failed rungs —
        budget expiry, chase errors — are marked as such), and per-phase
        wall time is accumulated on the budget so it lands in
        ``Outcome.usage.phases`` even with tracing disabled.
        """
        with current_tracer().span("certain.decide",
                                   candidates=len(items)) as span:
            outcome, decided = self._decide_rungs(
                instance, budget, items, split, settle, search,
                sat_terminal, chase_reasons, sat_reasons)
            span.set(verdict=outcome.verdict.value, engine=outcome.engine,
                     definitive=outcome.definitive,
                     rungs=len(outcome.attempts))
            return outcome, decided

    def _decide_rungs(
        self,
        instance: Interpretation,
        budget: Budget,
        items: Sequence[Hashable],
        split: RuleSplit,
        settle: _Settle,
        search: _Search,
        sat_terminal: bool,
        chase_reasons: dict[str, str],
        sat_reasons: tuple[str, str],
    ) -> tuple[Outcome, dict[Hashable, Decision]]:
        tracer = current_tracer()
        attempts: list[Attempt] = []
        decided: dict[Hashable, Decision] = {}
        reasons: dict[str, None] = {}  # insertion-ordered set
        pending = list(items)
        fallback: str | None = None
        sat_settled = False

        def exhausted(exc: BudgetExceeded) -> tuple[Outcome, dict]:
            return Outcome.exhausted_outcome(
                exc, tuple(attempts), budget.usage()), decided

        if not pending:
            return Outcome(
                verdict=Verdict.NO, definitive=True, engine="none",
                reason="no candidate tuples: the domain is empty",
                usage=budget.usage()), decided

        if self.uses_chase:
            for depth in chase_rungs(self.chase_depth, budget.escalate):
                rung_start = time.perf_counter()
                with tracer.span("rung.chase", bound=depth,
                                 pending=len(pending)) as rung:
                    still: list[Hashable] = []
                    answers: set[str] = set()
                    try:
                        try:
                            budget.check_deadline("certain.chase")
                            result = chase(
                                self.onto, instance, rules=split.exhaustive,
                                deferred=split.deferred,
                                pruned=len(split.pruned),
                                max_depth=depth, budget=budget)
                            for item in pending:
                                budget.check_deadline("certain.chase")
                                verdict, witness = settle(result, item)
                                if verdict == "truncated":
                                    still.append(item)
                                    continue
                                answers.add(verdict)
                                reasons[chase_reasons[verdict]] = None
                                decided[item] = Decision(
                                    verdict == "yes", True, witness)
                        finally:
                            budget.add_phase(
                                "chase", time.perf_counter() - rung_start)
                    except ChaseError as exc:
                        rung.fail(f"chase error: {exc}")
                        attempts.append(Attempt(
                            "chase", depth, "error", str(exc), settled=0))
                        fallback = f"chase error at depth {depth}: {exc}"
                        break
                    except BudgetExceeded as exc:
                        rung.fail(f"budget: {exc}")
                        attempts.append(Attempt(
                            "chase", depth, "budget", str(exc), settled=0))
                        if exc.resource == "deadline":
                            return exhausted(exc)
                        fallback = (f"chase budget exhausted at depth "
                                    f"{depth}: {exc}")
                        break
                    settled = len(pending) - len(still)
                    label = ("truncated" if still
                             else "yes" if "yes" in answers else "no")
                    rung.set(result=label, settled=settled)
                    attempts.append(Attempt(
                        "chase", depth, label, settled=settled))
                    pending = still
                    if not pending:
                        break
                    fallback = f"chase truncated at depth {depth}"

        if pending:
            rungs = sat_rungs(self.sat_extra, budget.escalate)
            for index, extra in enumerate(rungs):
                final = index == len(rungs) - 1
                rung_start = time.perf_counter()
                with tracer.span("rung.sat", bound=extra,
                                 pending=len(pending)) as rung:
                    still = []
                    any_holds = False
                    try:
                        try:
                            for item in pending:
                                budget.check_deadline("certain.sat")
                                holds, witness = search(item, extra)
                                any_holds |= holds
                                if holds == sat_terminal:
                                    reasons[sat_reasons[0]] = None
                                    decided[item] = Decision(
                                        holds, True, witness)
                                elif final:
                                    reasons[sat_reasons[1].format(
                                        extra=extra)] = None
                                    decided[item] = Decision(
                                        holds, False, witness)
                                else:
                                    still.append(item)
                        finally:
                            budget.add_phase(
                                "sat", time.perf_counter() - rung_start)
                    except BudgetExceeded as exc:
                        rung.fail(f"budget: {exc}")
                        attempts.append(Attempt(
                            "sat", extra, "budget", str(exc), settled=0))
                        return exhausted(exc)
                    settled = len(pending) - len(still)
                    sat_settled |= settled > 0
                    label = "yes" if any_holds else "no"
                    rung.set(result=label, settled=settled)
                    attempts.append(Attempt(
                        "sat", extra, label, settled=settled))
                    pending = still
                    if not pending:
                        break

        return Outcome(
            verdict=(Verdict.YES if any(d.holds for d in decided.values())
                     else Verdict.NO),
            definitive=all(d.definitive for d in decided.values()),
            engine="sat" if sat_settled else "chase",
            reason="; ".join(reasons),
            fallback=fallback if sat_settled else None,
            attempts=tuple(attempts),
            usage=budget.usage(),
        ), decided

    # -- entailment ----------------------------------------------------------

    def entails_outcome(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        answer: Sequence[Element] = (),
        budget: Budget | None = None,
    ) -> Outcome:
        """Decide ``O, D |= q(answer)`` with full provenance."""
        outcome, _ = self._entailment(instance, query, [tuple(answer)],
                                      budget)
        return outcome

    def _entailment(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        candidates: Sequence[tuple[Element, ...]],
        budget: Budget | None,
        keep_witness: bool = False,
    ) -> tuple[Outcome, dict[Hashable, Decision]]:
        """Decide ``O, D |= q(t)`` for every candidate tuple *t* in one
        ladder (see :meth:`_decide`).

        The chase fires only the rules q can see (:meth:`_split`): the
        other rules add no fact q reads, so a definitive verdict is one
        the chase of every rule would reach too.  A kept witness must be
        a model of O, so with *keep_witness* every rule stays exhaustive."""
        self._preflight_workload(instance, query)
        budget = self._resolve_budget(budget)

        def settle(result: ChaseResult, answer: Hashable,
                   ) -> tuple[str, Interpretation | None]:
            ans = answer_from_chase(result, query, answer)
            if ans.holds:
                # a chase *yes* is definitive even on truncated branches
                witness = None
                if keep_witness:
                    branches = result.consistent_branches()
                    witness = branches[0].interp if branches else None
                return "yes", witness
            if ans.definitive:
                return "no", ans.refuting_branch
            return "truncated", None

        def search(answer: Hashable, extra: int,
                   ) -> tuple[bool, Interpretation | None]:
            result = sat_certain_answer(
                self.onto, instance, query, answer, extra=extra,
                budget=budget)
            return result.holds, result.countermodel

        split = (RuleSplit(tuple(self._rules or ()), (), ()) if keep_witness
                 else self._split(query))
        outcome, decided = self._decide(
            instance, budget, candidates, split, settle, search,
            sat_terminal=False,
            chase_reasons={
                "yes": "query holds in every consistent chase branch",
                "no": "chase branch refutes the query",
            },
            sat_reasons=(
                "finite countermodel found",
                "no countermodel over dom(D) + {extra} nulls",
            ),
        )
        self.last_outcome = outcome
        return outcome, decided

    def entails(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        answer: Sequence[Element] = (),
        budget: Budget | None = None,
    ) -> bool:
        """Decide ``O, D |= q(answer)``.

        Raises :class:`repro.runtime.ResourceExhausted` when the budget ran
        out before a verdict — never guesses.
        """
        return self.entails_outcome(instance, query, answer, budget).holds

    def certain_answers(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        budget: Budget | None = None,
    ) -> set[tuple[Element, ...]]:
        """All certain answer tuples over dom(D), in one ladder.

        Every tuple of dom(D)^arity is a candidate, and each chase rung
        runs the chase **once** for all of them (the consistent branches
        form a universal family, so one run decides every tuple it does
        not leave truncated); only the tuples still pending reach the SAT
        rungs.  A supplied *budget* is shared across the rungs, so a
        deadline bounds the whole enumeration.  ``last_outcome`` then
        describes the whole candidate set; raises
        :class:`repro.runtime.ResourceExhausted` when the budget ran out.
        """
        domain = sorted(instance.dom(), key=repr)
        return self._certain(
            instance, query,
            list(itertools.product(domain, repeat=query.arity)), budget)

    def _certain(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        candidates: Sequence[tuple[Element, ...]],
        budget: Budget | None,
    ) -> set[tuple[Element, ...]]:
        """The certain tuples among *candidates*, in one ladder."""
        outcome, decided = self._entailment(instance, query, candidates,
                                            budget)
        if outcome.exhausted:
            raise ResourceExhausted(outcome)
        return {t for t, d in decided.items() if d.holds}

    # -- consistency ---------------------------------------------------------

    def consistency_outcome(
        self,
        instance: Interpretation,
        budget: Budget | None = None,
    ) -> Outcome:
        """Is there a model of D and O? — with full provenance."""
        self._preflight_workload(instance)
        budget = self._resolve_budget(budget)

        def settle(result: ChaseResult, _item: Hashable,
                   ) -> tuple[str, Interpretation | None]:
            # A *complete* consistent branch extends to a model: its
            # deferred search found a complete consistent completion, and
            # the pruned rules reach no constraint.  A consistent-but-
            # truncated branch is not a witness: firing the skipped
            # existential triggers may yet derive an inconsistency, so
            # escalate.
            complete = [b for b in result.consistent_branches()
                        if b.complete]
            if complete:
                return "yes", complete[0].interp
            if result.fully_chased:
                return "no", None
            return "truncated", None

        def search(_item: Hashable, extra: int,
                   ) -> tuple[bool, Interpretation | None]:
            model = find_model(self.onto, instance, extra, budget=budget)
            return model is not None, model

        outcome, _ = self._decide(
            instance, budget, [()], self._split(None), settle, search,
            sat_terminal=True,
            chase_reasons={
                "yes": "chase produced a consistent branch",
                "no": "every chase branch is inconsistent",
            },
            sat_reasons=(
                "finite model found",
                "no model over dom(D) + {extra} nulls",
            ),
        )
        self.last_outcome = outcome
        return outcome

    def is_consistent(
        self,
        instance: Interpretation,
        budget: Budget | None = None,
    ) -> bool:
        """Is there a model of D and O?

        Raises :class:`repro.runtime.ResourceExhausted` when the budget ran
        out before a verdict.
        """
        return self.consistency_outcome(instance, budget).holds

    # -- explanation ---------------------------------------------------------

    def explain(
        self,
        instance: Interpretation,
        query: CQ | UCQ,
        answer: Sequence[Element] = (),
        budget: Budget | None = None,
    ) -> "Explanation":
        """Decide and justify ``O, D |= q(answer)``.

        A negative answer carries a concrete countermodel; a positive
        answer carries, when available, a (chase branch) model in which
        the query match can be inspected.  The chase runs **once** per
        rung — the witness branch is read off the same run that decided
        the verdict.  Raises :class:`repro.runtime.ResourceExhausted` on
        budget exhaustion.
        """
        answer = tuple(answer)
        outcome, decided = self._entailment(
            instance, query, [answer], budget, keep_witness=True)
        holds = outcome.holds  # raises ResourceExhausted on UNKNOWN
        return Explanation(holds, decided[answer].witness, outcome.reason,
                           outcome)

    # -- saturation ----------------------------------------------------------

    def saturate(self, instance: Interpretation,
                 budget: Budget | None = None) -> Interpretation:
        """The O-saturation D_O: add all entailed facts over dom(D).

        (Section 8: the unique minimal O-saturated instance containing D.)
        Only relations from sig(O) ∪ sig(D) are considered; each relation
        is one certain-answer ladder over the tuples of dom(D)^arity that
        are not already facts of D.  A supplied *budget* is shared across
        the whole saturation.
        """
        budget = self._resolve_budget(budget)
        sig = dict(instance.sig())
        for pred, arity in self.onto.sig().items():
            sig.setdefault(pred, arity)
        out = instance.copy()
        domain = sorted(instance.dom(), key=repr)
        for pred, arity in sorted(sig.items()):
            candidates = [combo for combo in
                          itertools.product(domain, repeat=arity)
                          if Atom(pred, combo) not in instance]
            for combo in self._certain(instance, _atom_query(pred, arity),
                                       candidates, budget):
                out.add(Atom(pred, combo))
        return out


@dataclass(frozen=True)
class Explanation:
    """A certain-answer verdict together with its justifying model."""

    holds: bool
    witness: Interpretation | None
    reason: str
    outcome: Outcome | None = None

    def __bool__(self) -> bool:
        return self.holds


def _atom_query(pred: str, arity: int) -> CQ:
    from ..logic.syntax import Var

    variables = tuple(Var(f"x{i}") for i in range(arity))
    return CQ(variables, [Atom(pred, variables)])
