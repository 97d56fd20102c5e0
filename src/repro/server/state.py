"""Daemon-side job-set state: what a submission becomes once admitted.

A :class:`JobSet` is one accepted ``POST /v1/jobsets`` body — an
ontology, a workload of jobs, evaluation options — plus its lifecycle:
``queued → running → done | failed``, or ``cancelled`` while still
queued.  The :class:`JobSetStore` is the daemon's only shared mutable
index of them; every access goes through its lock, so HTTP handler
threads, the dispatcher thread and the watchdog can all look without
stepping on each other.

Job sets carry everything needed to *re-create* themselves from the
daemon journal (the raw payload) and everything needed to *serve*
results (the finished :class:`~repro.serving.batch.BatchReport`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..logic.ontology import Ontology
from ..serving.batch import BatchReport, Job

#: Lifecycle states.  ``queued`` and ``running`` are live; the other
#: three are terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

LIVE_STATES = (QUEUED, RUNNING)

#: Finished job sets the store keeps for ``GET /v1/jobsets/ID/result``;
#: the earliest-finished one goes first.  A finished one-job job set
#: holds about 5.5 KB, report included, so this caps them at ~5.6 MB, and
#: a client has 1,024 later finishes' time to collect its result.
MAX_FINISHED = 1024


@dataclass
class JobSet:
    """One admitted workload and its lifecycle."""

    id: str
    client: str
    band: str
    band_detail: str
    onto: Ontology | None  # released (None) once the job set finishes
    jobs: list[Job]
    payload: dict[str, Any]  # the journalable raw submission body
    options: dict[str, Any] = field(default_factory=dict)  # evaluation
    budget: Any = None  # options.budget, a Budget.from_spec spec
    deadline: float | None = None  # seconds from submission, queue wait included
    submitted: float = field(default_factory=time.monotonic)
    started: float | None = None
    finished: float | None = None
    status: str = QUEUED
    report: BatchReport | None = None
    error: str = ""
    completed_jobs: int = 0
    resume_results: dict[str, dict] = field(default_factory=dict)
    resumed: bool = False

    def deadline_remaining(self, now: float) -> float | None:
        """Seconds of deadline left at *now*; None when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - (now - self.submitted)

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "client": self.client,
            "band": self.band,
            "band_detail": self.band_detail,
            "status": self.status,
            "jobs": len(self.jobs),
            "completed_jobs": self.completed_jobs,
        }
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.started is not None and self.finished is not None:
            out["elapsed"] = round(self.finished - self.started, 6)
        if self.error:
            out["error"] = self.error
        if self.resumed:
            out["resumed"] = True
        return out


class JobSetStore:
    """Thread-safe registry of the job sets this daemon serves: every live
    one, and the :data:`MAX_FINISHED` that finished last.  An evicted id
    reads like an unknown one."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_id: dict[str, JobSet] = {}  # in submission order
        self._finished: deque[str] = deque()  # in finishing order
        self._seq = 0

    def next_id(self, fingerprint: str) -> str:
        """A fresh job-set id: monotone sequence + content fingerprint
        prefix (readable in logs, unique across resumes because the
        sequence is re-seeded past every adopted id)."""
        with self._lock:
            self._seq += 1
            return f"js-{self._seq:06d}-{fingerprint[:8]}"

    def adopt_id(self, jobset_id: str) -> None:
        """Advance the sequence past a journal-replayed id so fresh ids
        never collide with resumed ones."""
        with self._lock:
            try:
                seq = int(jobset_id.split("-")[1])
            except (IndexError, ValueError):
                return
            self._seq = max(self._seq, seq)

    def add(self, jobset: JobSet) -> None:
        with self._lock:
            self._by_id[jobset.id] = jobset

    def finish(self, jobset: JobSet) -> None:
        """Record that *jobset* reached a terminal state; evicts the
        earliest-finished job sets past :data:`MAX_FINISHED`."""
        with self._lock:
            self._finished.append(jobset.id)
            while len(self._finished) > MAX_FINISHED:
                self._by_id.pop(self._finished.popleft(), None)

    def get(self, jobset_id: str) -> JobSet | None:
        with self._lock:
            return self._by_id.get(jobset_id)

    def all(self) -> list[JobSet]:
        with self._lock:
            return list(self._by_id.values())

    def live_count(self) -> int:
        with self._lock:
            return sum(1 for js in self._by_id.values()
                       if js.status in LIVE_STATES)

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, CANCELLED: 0}
            for js in self._by_id.values():
                out[js.status] = out.get(js.status, 0) + 1
            return out
