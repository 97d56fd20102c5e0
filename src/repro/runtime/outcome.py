"""Structured evaluation outcomes: verdict + provenance + resources.

An :class:`Outcome` is what :class:`repro.semantics.certain.CertainEngine`
actually computed: the verdict (*yes*, *no*, or an explicit *unknown* when
the resource budget ran out), whether it is definitive, which engine
produced it, why any chase→SAT fallback happened, the full escalation-
ladder trace, and a :class:`repro.runtime.ResourceUsage` snapshot.  It
replaces the engine's old silent ``except ChaseError: pass`` arbitration —
every fallback and every truncated attempt is now recorded.

``Outcome.holds`` deliberately *raises* :class:`ResourceExhausted` on an
unknown verdict: boolean call sites can never mistake "ran out of budget"
for "the query is not certain".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .budget import BudgetExceeded, ResourceUsage


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Attempt:
    """One rung of the escalation ladder.

    ``engine`` is ``chase`` or ``sat``; ``bound`` the rung's chase depth or
    SAT extra-null count; ``result`` one of ``yes``, ``no``, ``truncated``
    (chase depth bound reached without a definitive *no*), ``error`` (the
    solver raised, e.g. a branch explosion) or ``budget`` (the budget ran
    out mid-rung).  Over a set of candidate tuples, a chase rung reads
    ``truncated`` when it passed tuples on to the next rung; otherwise a
    rung reads ``yes`` when the query holds for some tuple it examined
    (for SAT: no countermodel at its bound) and ``no`` when it holds for
    none.  ``settled`` counts the tuples the rung decided (None outside
    the ladder).
    """

    engine: str
    bound: int
    result: str
    detail: str = ""
    settled: int | None = None

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "engine": self.engine, "bound": self.bound, "result": self.result}
        if self.detail:
            out["detail"] = self.detail
        if self.settled is not None:
            out["settled"] = self.settled
        return out


@dataclass(frozen=True)
class Outcome:
    """A verdict with full provenance (see module docstring)."""

    verdict: Verdict
    definitive: bool
    engine: str  # "chase" | "sat" | "none"
    reason: str
    fallback: str | None = None
    attempts: tuple[Attempt, ...] = ()
    usage: ResourceUsage | None = None

    @property
    def holds(self) -> bool:
        """The boolean verdict; raises :class:`ResourceExhausted` on UNKNOWN."""
        if self.verdict is Verdict.UNKNOWN:
            raise ResourceExhausted(self)
        return self.verdict is Verdict.YES

    @property
    def exhausted(self) -> bool:
        return self.verdict is Verdict.UNKNOWN

    def to_dict(self) -> dict[str, object]:
        return {
            "verdict": self.verdict.value,
            "definitive": self.definitive,
            "engine": self.engine,
            "reason": self.reason,
            "fallback": self.fallback,
            "attempts": [a.to_dict() for a in self.attempts],
            "usage": self.usage.to_dict() if self.usage is not None else None,
        }

    @classmethod
    def exhausted_outcome(
        cls,
        exc: BudgetExceeded,
        attempts: tuple[Attempt, ...] = (),
        usage: ResourceUsage | None = None,
    ) -> "Outcome":
        return cls(
            verdict=Verdict.UNKNOWN,
            definitive=False,
            engine="none",
            reason=f"resource_exhausted: {exc.resource} ({exc})",
            fallback=None,
            attempts=attempts,
            usage=usage,
        )


class ResourceExhausted(BudgetExceeded):
    """A boolean engine API was asked for a verdict it could not afford.

    Carries the full :class:`Outcome` (verdict UNKNOWN) so callers can
    inspect the ladder trace and resource usage of the failed evaluation.
    """

    def __init__(self, outcome: Outcome):
        resource = "resources"
        # "resource_exhausted: deadline (...)" -> "deadline"
        reason = outcome.reason
        if reason.startswith("resource_exhausted: "):
            resource = reason[len("resource_exhausted: "):].split(" ", 1)[0]
        super().__init__(resource, outcome.reason)
        self.outcome = outcome
