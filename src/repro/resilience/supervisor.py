"""The retrying supervisor: attempts, histories, quarantine decisions.

The :class:`Supervisor` is the policy brain; execution is injected.  It
hands waves of :class:`Task`\\ s (job key, attempt number, budget
escalation factor) to an ``execute_wave`` callable and classifies what
comes back:

* ``ok`` / ``error`` — terminal; errors are deterministic (bad input),
  retrying them wastes budget;
* ``unknown`` — transient (budget exhaustion): re-dispatched with an
  escalated budget until ``max_attempts``;
* ``crash`` — the attempt killed its worker (or died on an unexpected
  exception): re-dispatched like a transient failure, but *also* counted
  against ``max_crashes`` — a job that keeps killing workers is poison
  and ends **quarantined** so the batch can finish without it.

Every attempt is recorded as an :class:`AttemptRecord` so the final job
result carries its full history, and each final decision is reported
through ``on_final`` the moment it is made — that is the hook the batch
journal writes from, which is what makes mid-batch death recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .retry import RetryPolicy


@dataclass(frozen=True)
class Task:
    """One attempt to schedule: which job, which attempt, what budget scale."""

    key: Any
    attempt: int
    escalation: float = 1.0


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt as it happened (kept on the final job result)."""

    attempt: int
    status: str  # "ok" | "error" | "unknown" | "crash"
    reason: str = ""
    elapsed: float = 0.0
    escalation: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "attempt": self.attempt,
            "status": self.status,
            "elapsed": round(self.elapsed, 6),
        }
        if self.reason:
            out["reason"] = self.reason
        if self.escalation != 1.0:
            out["escalation"] = round(self.escalation, 6)
        return out


@dataclass
class AttemptOutcome:
    """What one executed attempt produced (built by the executor)."""

    task: Task
    status: str  # "ok" | "error" | "unknown" | "crash"
    result: Any = None  # the executor's payload; None for crashes
    reason: str = ""
    elapsed: float = 0.0


# Final dispositions handed to on_final / returned from run():
#   "done"        ok or error result, as produced
#   "exhausted"   still unknown after max_attempts
#   "crashed"     crashed, retries exhausted before the quarantine threshold
#   "quarantined" crashed max_crashes times — poison, batch moves on
Disposition = str


@dataclass
class Final:
    disposition: Disposition
    outcome: AttemptOutcome
    attempts: tuple[AttemptRecord, ...]


class Supervisor:
    """Drive jobs to a terminal state under a :class:`RetryPolicy`.

    ``execute_wave(tasks)`` runs a list of :class:`Task`\\ s and returns
    an iterable of one :class:`AttemptOutcome` per task (any order; a
    generator streams them, and outcomes are classified as they arrive).
    ``on_final(key, final)`` fires as soon as a job reaches a terminal
    state — before other jobs finish — so callers can journal progress
    crash-safely.  A wave's retries go out as the next wave at once.
    """

    def __init__(
        self,
        policy: RetryPolicy | None,
        execute_wave: Callable[[list[Task]], "list[AttemptOutcome]"],
        on_final: Callable[[Any, Final], None] | None = None,
    ):
        self.policy = policy or RetryPolicy.none()
        self.execute_wave = execute_wave
        self.on_final = on_final
        self.retries = 0
        self.crashes = 0
        self.quarantined = 0
        self.history: dict[Any, list[AttemptRecord]] = {}

    def _finalize(self, finals: dict, key: Any, disposition: Disposition,
                  outcome: AttemptOutcome) -> None:
        final = Final(disposition, outcome, tuple(self.history[key]))
        finals[key] = final
        if disposition == "quarantined":
            self.quarantined += 1
        if self.on_final is not None:
            self.on_final(key, final)

    def run(self, keys: Sequence[Any]) -> "dict[Any, Final]":
        policy = self.policy
        self.history = {key: [] for key in keys}
        crash_counts = {key: 0 for key in keys}
        finals: dict[Any, Final] = {}
        wave = [Task(key, 1, 1.0) for key in keys]
        while wave:
            outcomes = self.execute_wave(wave)
            retry_tasks: list[Task] = []
            for out in outcomes:
                key, attempt = out.task.key, out.task.attempt
                self.history[key].append(AttemptRecord(
                    attempt=attempt, status=out.status, reason=out.reason,
                    elapsed=out.elapsed, escalation=out.task.escalation))
                if out.status in ("ok", "error"):
                    self._finalize(finals, key, "done", out)
                    continue
                if out.status == "crash":
                    self.crashes += 1
                    crash_counts[key] += 1
                    if crash_counts[key] >= policy.max_crashes:
                        self._finalize(finals, key, "quarantined", out)
                        continue
                    if attempt >= policy.max_attempts:
                        self._finalize(finals, key, "crashed", out)
                        continue
                else:  # "unknown": transient, budget-bound
                    if attempt >= policy.max_attempts:
                        self._finalize(finals, key, "exhausted", out)
                        continue
                retry_tasks.append(Task(
                    key, attempt + 1, policy.escalation_for(attempt + 1)))
            self.retries += len(retry_tasks)
            wave = retry_tasks
        return finals

    def stats(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "crashes": self.crashes,
            "quarantined": self.quarantined,
        }
