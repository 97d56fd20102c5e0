"""Admission control for the serving daemon: principled load shedding.

Most query services shed load blind — every request looks the same until
it has already burned a worker.  The paper's dichotomy gives this daemon
a *static* per-request cost signal: an ontology either profiles into a
Figure-1 DICHOTOMY fragment **and** is Horn (the PTIME side — the same
static proof that gates the ``datalog-fastpath`` plan kind), or it does
not, in which case its workload may sit on the coNP-hard side of
Theorem 7/8/11.  :func:`repro.serving.plan.classify_band` computes that
signal once per ontology (memoized by content fingerprint); the
:class:`AdmissionController` uses it for graceful degradation: when the
bounded queue passes its high-water mark, *hard*-band submissions are
shed with 429 while *ptime*-band traffic keeps flowing until the queue
is truly full.  Collapse is never an option — the queue is bounded, so
memory stays bounded no matter how fast clients submit.

Those are the only limits: a submission is refused while the daemon
drains, when the queue cannot hold it, or above high water when it is
hard-band — and for good when it has more jobs than the whole queue.
It keeps no per-client state: the ``X-Client`` header is the client's
own choice, so it only labels job sets.

Everything is thread-safe (one lock per controller).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from ..serving.plan import BAND_PTIME

#: The ``Retry-After`` hint, in seconds, of every shed submission.
RETRY_AFTER = 1.0


@dataclass(frozen=True)
class Decision:
    """The controller's verdict on one submission."""

    accepted: bool
    status: int = 202  # HTTP: 202 accepted, 429/503 shed, 413 never fits
    reason: str = ""
    retry_after: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"accepted": self.accepted,
                               "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.retry_after is not None:
            out["retry_after"] = round(self.retry_after, 3)
        return out


class AdmissionController:
    """Bounded admission with band-aware graceful degradation.

    Capacity is counted in **jobs** (queued plus running), not jobsets —
    a thousand-job submission weighs a thousand times a one-job probe.
    A submission of more jobs than ``max_queued_jobs`` could never be
    admitted, so it is refused first with 413 and no ``Retry-After``.
    The shedding ladder, cheapest signal first:

    1. **draining** — 503: the daemon is going away;
    2. **queue full** — admitting would exceed ``max_queued_jobs``: 429;
    3. **high water** — the queue is above ``high_water`` of capacity
       and the submission is *hard*-band: 429.  PTIME-band work keeps
       being admitted until the queue is truly full — graceful
       degradation, not collapse.

    Every refusal carries ``Retry-After`` :data:`RETRY_AFTER`.
    """

    def __init__(self, max_queued_jobs: int = 256, high_water: float = 0.5):
        if max_queued_jobs < 1:
            raise ValueError("max_queued_jobs must be >= 1")
        if not 0.0 < high_water <= 1.0:
            raise ValueError("high_water must be in (0, 1]")
        self.max_queued_jobs = max_queued_jobs
        self.high_water = high_water
        self._lock = threading.Lock()
        self.queued_jobs = 0
        self.draining = False
        self.shed: dict[str, int] = {
            "draining": 0, "queue_full": 0, "hard_band": 0}

    def _shed(self, kind: str, status: int, reason: str) -> Decision:
        self.shed[kind] += 1
        return Decision(False, status, reason, RETRY_AFTER)

    def admit(self, jobs: int, band: str) -> Decision:
        """Admit or shed a submission of *jobs* jobs in *band*."""
        if jobs < 1:
            return Decision(False, 400, "a submission needs at least one job")
        if jobs > self.max_queued_jobs:
            return Decision(
                False, 413, f"a submission of {jobs} jobs can never fit the "
                            f"admission queue ({self.max_queued_jobs} jobs); "
                            f"split it")
        with self._lock:
            if self.draining:
                return self._shed(
                    "draining", 503,
                    "daemon is draining; resubmit to its successor")
            after = self.queued_jobs + jobs
            if after > self.max_queued_jobs:
                return self._shed(
                    "queue_full", 429,
                    f"admission queue full "
                    f"({self.queued_jobs}/{self.max_queued_jobs} jobs)")
            if (band != BAND_PTIME
                    and after > self.max_queued_jobs * self.high_water):
                return self._shed(
                    "hard_band", 429,
                    "over high water: shedding potentially-coNP "
                    "(hard-band) work first; PTIME-band submissions "
                    "are still admitted")
            self.queued_jobs = after
            return Decision(True, 202)

    def adopt(self, jobs: int) -> None:
        """Account capacity for a submission admitted in a previous life
        (journal resume): it was already accepted once, so it re-enters
        the queue unconditionally — no capacity or band checks apply."""
        with self._lock:
            self.queued_jobs += jobs

    def release(self, jobs: int) -> None:
        """Return *jobs* capacity when a jobset finishes (or is
        cancelled)."""
        with self._lock:
            self.queued_jobs = max(0, self.queued_jobs - jobs)

    def start_drain(self) -> None:
        with self._lock:
            self.draining = True

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "queued_jobs": self.queued_jobs,
                "max_queued_jobs": self.max_queued_jobs,
                "high_water": self.high_water,
                "draining": self.draining,
                "shed": dict(self.shed),
            }
