"""Resource budgets and cooperative cancellation for the solvers.

A :class:`Budget` is a shared pool of resources — wall-clock time, chase
steps, fresh nulls, CDCL conflicts, CSP/RF(M) backtracks — handed to every
solver invocation of one logical request.  The solvers *cooperate*: at
their natural checkpoints (a chase rule firing, a learnt conflict, a
backtracking node) they tick the corresponding counter and the budget
raises :class:`BudgetExceeded` the moment a limit is crossed, so a request
can never hang or silently burn unbounded resources.

Wall-clock checks are strided (one ``monotonic()`` call per
:data:`Budget.DEADLINE_STRIDE` ticks) to keep checkpoint overhead
negligible on easy instances.

The same checkpoints double as the engine's fault-injection surface: every
budget carries the process' :class:`repro.runtime.faults.FaultPlan` (parsed
from ``REPRO_FAULTS``) and consults it before the real limit, so deadline
expiry and conflict-cap hits can be forced deterministically in tests and
CI without ever sleeping.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .faults import FaultPlan, active_plan


class BudgetExceeded(RuntimeError):
    """A resource limit was crossed at a cooperative checkpoint.

    ``resource`` names the pool that ran dry: ``deadline``, ``chase_steps``,
    ``nulls``, ``conflicts`` or ``backtracks``.
    """

    def __init__(self, resource: str, message: str):
        super().__init__(message)
        self.resource = resource


@dataclass(frozen=True)
class ResourceUsage:
    """A point-in-time snapshot of what a budget's holders consumed.

    ``phases`` decomposes ``elapsed`` into named per-engine phases
    (``chase``, ``sat``, ...) accumulated by the escalation ladder; it is
    None when no phase ever reported.
    """

    elapsed: float
    chase_steps: int
    nulls: int
    conflicts: int
    backtracks: int
    solver_runs: int
    phases: Mapping[str, float] | None = None

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "elapsed_seconds": round(self.elapsed, 6),
            "chase_steps": self.chase_steps,
            "nulls": self.nulls,
            "conflicts": self.conflicts,
            "backtracks": self.backtracks,
            "solver_runs": self.solver_runs,
        }
        if self.phases:
            out["phases"] = {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phases.items())
            }
        return out


_SPEC_KEYS = ("timeout", "chase_steps", "nulls", "conflicts", "backtracks")


class Budget:
    """A cooperative resource budget shared by every solver of one request.

    All limits are optional; an unlimited budget still *accounts* (its
    counters feed :class:`repro.runtime.Outcome.usage`) at near-zero cost.

    ``escalate`` selects the engine strategy under this budget: ``True``
    (the default for user-supplied budgets) makes :class:`CertainEngine`
    climb the escalation ladder — geometrically growing chase depths and
    SAT domain bounds under the remaining budget — while ``False`` keeps
    the classic one-shot evaluation at the engine's configured bounds.
    """

    DEADLINE_STRIDE = 64

    def __init__(
        self,
        timeout: float | None = None,
        chase_steps: int | None = None,
        nulls: int | None = None,
        conflicts: int | None = None,
        backtracks: int | None = None,
        escalate: bool = True,
        faults: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
        lazy_start: bool = False,
        time_left: float | None = None,
    ):
        self.timeout = timeout
        self.max_chase_steps = chase_steps
        self.max_nulls = nulls
        self.max_conflicts = conflicts
        self.max_backtracks = backtracks
        self.escalate = escalate
        self.faults = faults if faults is not None else active_plan()
        self._clock = clock
        # A lazy budget anchors its clock (and deadline) at the first
        # checkpoint instead of at construction, so per-job children of
        # split() don't burn wall time while earlier jobs run.
        self._start: float | None = None if lazy_start else clock()
        self.deadline: float | None = None
        if timeout is not None and self._start is not None:
            self.deadline = self._start + timeout
        # A request's deadline: the time on *clock*, *time_left* seconds
        # after construction, past which no checkpoint passes.  Unlike the
        # timeout it is absolute, so escalated() and split() hand it on
        # unchanged and no retry runs past it.
        self.not_after: float | None = (
            None if time_left is None else clock() + time_left)
        self.spent_chase_steps = 0
        self.spent_nulls = 0
        self.spent_conflicts = 0
        self.spent_backtracks = 0
        self.solver_runs = 0
        self.phase_seconds: dict[str, float] = {}
        self._stride = 0

    # -- introspection -------------------------------------------------------

    def _anchor(self) -> float:
        """The clock anchor; a lazy budget starts at its first checkpoint."""
        if self._start is None:
            self._start = self._clock()
            if self.timeout is not None:
                self.deadline = self._start + self.timeout
        return self._start

    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return self._clock() - self._start

    def remaining(self) -> float | None:
        """Seconds until the deadline or the not-after time, whichever
        comes first; None when there is neither."""
        left = None
        if self.timeout is not None:
            left = (self.timeout if self._start is None
                    else max(0.0, self.deadline - self._clock()))
        if self.not_after is not None:
            until = max(0.0, self.not_after - self._clock())
            left = until if left is None else min(left, until)
        return left

    def add_phase(self, name: str, seconds: float) -> None:
        """Attribute *seconds* of wall time to the named phase (``chase``,
        ``sat``, ...); totals surface in :attr:`ResourceUsage.phases`."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def usage(self) -> ResourceUsage:
        return ResourceUsage(
            elapsed=self.elapsed(),
            chase_steps=self.spent_chase_steps,
            nulls=self.spent_nulls,
            conflicts=self.spent_conflicts,
            backtracks=self.spent_backtracks,
            solver_runs=self.solver_runs,
            phases=dict(self.phase_seconds) or None,
        )

    # -- checkpoints ---------------------------------------------------------

    def _fail(self, resource: str, detail: str) -> None:
        raise BudgetExceeded(resource, detail)

    def inject(self, site: str) -> bool:
        """Consult the fault plan for *site* (deterministic, counted)."""
        return self.faults is not None and self.faults.hit(site)

    def check_deadline(self, where: str = "") -> None:
        """Unconditional deadline checkpoint (also the ``deadline`` fault site)."""
        if self.inject("deadline"):
            self._fail("deadline", f"injected deadline expiry at {where or 'checkpoint'}")
        self._anchor()
        now = self._clock()
        at = f" at {where}" if where else ""
        if self.deadline is not None and now >= self.deadline:
            self._fail("deadline",
                       f"wall-clock budget of {self.timeout:.3f}s exhausted{at}")
        if self.not_after is not None and now >= self.not_after:
            self._fail("deadline", f"request deadline passed{at}")

    def poll(self, where: str = "") -> None:
        """Strided deadline checkpoint for hot loops."""
        if self._start is None:
            self._anchor()
        self._stride += 1
        if self._stride >= self.DEADLINE_STRIDE:
            self._stride = 0
            self.check_deadline(where)

    def tick_chase_step(self) -> None:
        """One chase rule firing."""
        self.spent_chase_steps += 1
        if (self.max_chase_steps is not None
                and self.spent_chase_steps > self.max_chase_steps):
            self._fail("chase_steps",
                       f"chase-step budget of {self.max_chase_steps} exhausted")
        self.poll("chase")

    def tick_nulls(self, count: int = 1) -> None:
        """*count* fresh labelled nulls created by the chase."""
        self.spent_nulls += count
        if self.max_nulls is not None and self.spent_nulls > self.max_nulls:
            self._fail("nulls", f"null budget of {self.max_nulls} exhausted")

    def tick_conflict(self) -> None:
        """One learnt CDCL conflict (also the ``cdcl_conflicts`` fault site)."""
        self.spent_conflicts += 1
        if self.inject("cdcl_conflicts"):
            self._fail("conflicts", "injected CDCL conflict-limit hit")
        if (self.max_conflicts is not None
                and self.spent_conflicts > self.max_conflicts):
            self._fail("conflicts",
                       f"CDCL conflict budget of {self.max_conflicts} exhausted")
        self.poll("cdcl")

    def tick_backtrack(self, site: str) -> None:
        """One backtracking-search node (*site*: ``csp_backtracks`` or
        ``rf_backtracks``, which double as fault sites)."""
        self.spent_backtracks += 1
        if self.inject(site):
            self._fail("backtracks", f"injected backtrack-limit hit at {site}")
        if (self.max_backtracks is not None
                and self.spent_backtracks > self.max_backtracks):
            self._fail("backtracks",
                       f"backtrack budget of {self.max_backtracks} exhausted")
        self.poll(site)

    # -- splitting (batch evaluation) ----------------------------------------

    def to_kwargs(self) -> dict[str, object]:
        """Constructor kwargs reproducing this budget's *limits*.

        Used to ship per-job budgets to worker processes: the clock
        restarts in the receiving process, the limits carry over, the
        not-after time ships as the seconds left of it now, and the
        fault plan ships as a fresh copy (same specs, restarted hit
        counters) so a programmatically supplied plan survives the
        process boundary exactly like an env-derived one.
        """
        kwargs: dict[str, object] = {
            "timeout": self.timeout,
            "chase_steps": self.max_chase_steps,
            "nulls": self.max_nulls,
            "conflicts": self.max_conflicts,
            "backtracks": self.max_backtracks,
            "escalate": self.escalate,
        }
        if self.faults:
            kwargs["faults"] = FaultPlan(self.faults.all_specs())
        if self.not_after is not None:
            kwargs["time_left"] = max(0.0, self.not_after - self._clock())
        return kwargs

    def _child(self, **limits) -> "Budget":
        """A fresh, lazily started budget with *limits*, this budget's
        clock, ``escalate`` and not-after time, and a fresh copy of its
        fault plan (same specs, restarted hit counters)."""
        specs = self.faults.all_specs() if self.faults else ()
        child = Budget(escalate=self.escalate,
                       faults=FaultPlan(specs) if specs else None,
                       clock=self._clock, lazy_start=True, **limits)
        child.not_after = self.not_after
        return child

    def escalated(self, factor: float) -> "Budget":
        """A fresh budget with every limit scaled by *factor* and nothing
        spent.

        Built for retries (:mod:`repro.resilience`): the new budget starts
        from a full *escalated* allocation — it scales this budget's
        configured **limits**, never inherits its spent pools or burnt
        wall-clock, and anchors its own clock lazily at its first
        checkpoint.  The not-after time is kept, so a request's deadline
        bounds its retries too.  An injected fault plan propagates as a
        fresh copy (same specs, restarted hit counters) so every attempt
        sees the same deterministic fault schedule.
        """
        if factor <= 0:
            raise ValueError("escalation factor must be positive")

        def scale(limit: int | None) -> int | None:
            return None if limit is None else max(1, int(limit * factor))

        return self._child(
            timeout=None if self.timeout is None else self.timeout * factor,
            chase_steps=scale(self.max_chase_steps),
            nulls=scale(self.max_nulls),
            conflicts=scale(self.max_conflicts),
            backtracks=scale(self.max_backtracks),
        )

    def split(self, n: int) -> "list[Budget]":
        """Split this budget into *n* independent per-job budgets.

        The remaining wall-clock time and each configured counter pool
        are divided evenly (counters get at least 1 each), so a batch of
        jobs run under the children respects the parent's envelope.
        Each child's clock starts *lazily* at its first checkpoint, not
        at split time: in a serial batch job k's deadline does not burn
        down while jobs 0..k-1 run, matching the parallel path where
        workers rebuild their budgets with fresh clocks.  Every child
        keeps the parent's not-after time.  Counters already spent on the
        parent stay on the parent.  An injected fault plan propagates as
        a *fresh* per-child plan (same specs, restarted hit counters) so
        every job sees the same deterministic fault schedule.
        """
        if n <= 0:
            raise ValueError("cannot split a budget into <= 0 parts")

        def share(limit: int | None) -> int | None:
            return None if limit is None else max(1, limit // n)

        remaining = self.remaining()
        return [
            self._child(
                timeout=None if remaining is None else remaining / n,
                chase_steps=share(self.max_chase_steps),
                nulls=share(self.max_nulls),
                conflicts=share(self.max_conflicts),
                backtracks=share(self.max_backtracks),
            )
            for _ in range(n)
        ]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, **overrides) -> "Budget":
        """Parse ``key=value,...`` (keys: timeout, chase_steps, nulls,
        conflicts, backtracks, escalate) into a budget."""
        kwargs: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"budget entry {part!r} is not key=value")
            if key == "escalate":
                kwargs[key] = value.strip().lower() in ("1", "true", "yes", "on")
                continue
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"unknown budget key {key!r} (expected one of "
                    f"{', '.join(_SPEC_KEYS + ('escalate',))})")
            try:
                kwargs[key] = float(value) if key == "timeout" else int(value)
            except ValueError:
                raise ValueError(f"budget entry {part!r}: bad number {value!r}")
        kwargs.update(overrides)
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Budget | None":
        """A budget from ``REPRO_TIMEOUT`` (seconds) and/or ``REPRO_BUDGET``
        (a ``from_spec`` string); None when neither is set."""
        env = os.environ if environ is None else environ
        spec = env.get("REPRO_BUDGET", "").strip()
        timeout = env.get("REPRO_TIMEOUT", "").strip()
        if not spec and not timeout:
            return None
        budget = cls.from_spec(spec) if spec else cls()
        if timeout:
            try:
                seconds = float(timeout)
            except ValueError:
                raise ValueError(f"REPRO_TIMEOUT: bad number {timeout!r}")
            budget.timeout = seconds
            budget.deadline = budget._start + seconds
        return budget
