"""The invariants every chaos episode is checked against.

Each check is a pure function from observed state (a batch report dict, a
pair of reports, a storage backend URI) to a list of
:class:`Violation` — empty means the invariant held.  The driver never
interprets reports itself; everything it asserts lives here, so the same
checks back the unit tests and the CI chaos smoke.

The invariants, in the order an episode typically applies them:

1. **Job accounting** — every submitted job id appears in the report
   exactly once (nothing lost, nothing duplicated), every status is a
   known terminal status, and the stats block agrees with the per-job
   statuses (a job cannot be both quarantined and counted ok).
2. **Comparable equality** — two runs that must agree (determinism,
   resume-after-kill, fastpath on/off, concurrent drivers) are compared
   via :func:`~repro.serving.batch.comparable_report`, which strips the
   volatile fields (latency, engine provenance) and keeps the answers.
3. **Only definitive results cached** — an ``UNKNOWN`` verdict is a
   budget artifact and a bound-relative answer depends on a bound the
   key leaves out; finding either in a durable tier means one run's
   artifact became every later caller's answer.  Checked by scanning and
   re-reading every entry through
   :func:`~repro.storage.base.check_storable`.
4. **Backend integrity** — ``verify()`` returns no corrupt keys once
   the fault schedule is over and the read path has had its chance to
   evict (torn writes may legitimately leave corruption *between* runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..serving.batch import comparable_report
from ..storage import (
    UnstorableValue, backend_exists, check_storable, open_backend,
)

__all__ = [
    "Violation", "check_backend_clean", "check_job_accounting",
    "check_no_unknown_cached", "check_reports_comparable",
]

#: Terminal statuses a job may legally end in (one each).
_TERMINAL = ("ok", "unknown", "error", "quarantined")

#: stats keys that must equal the per-job status tallies.
_STATUS_STATS = ("ok", "unknown", "error", "quarantined")


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which one, and what was observed."""

    invariant: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def check_job_accounting(report: dict[str, Any],
                         expected_ids: Sequence[str]) -> list[Violation]:
    """Invariant 1: no job lost, duplicated, or inconsistently counted."""
    out: list[Violation] = []
    jobs = report.get("jobs", [])
    seen: dict[str, int] = {}
    for job in jobs:
        seen[job.get("id", "?")] = seen.get(job.get("id", "?"), 0) + 1
    for job_id, count in sorted(seen.items()):
        if count > 1:
            out.append(Violation(
                "job-accounting", f"job {job_id!r} reported {count} times"))
    missing = sorted(set(expected_ids) - set(seen))
    if missing:
        out.append(Violation(
            "job-accounting", f"job(s) lost: {', '.join(missing)}"))
    extra = sorted(set(seen) - set(expected_ids))
    if extra:
        out.append(Violation(
            "job-accounting", f"unexpected job(s): {', '.join(extra)}"))
    statuses: dict[str, int] = {}
    for job in jobs:
        status = job.get("status")
        if status not in _TERMINAL:
            out.append(Violation(
                "job-accounting",
                f"job {job.get('id')!r} has non-terminal status {status!r}"))
        else:
            statuses[status] = statuses.get(status, 0) + 1
    stats = report.get("stats", {})
    if stats.get("jobs") != len(jobs):
        out.append(Violation(
            "job-accounting",
            f"stats.jobs={stats.get('jobs')} but report carries "
            f"{len(jobs)} jobs"))
    for key in _STATUS_STATS:
        if stats.get(key, 0) != statuses.get(key, 0):
            out.append(Violation(
                "job-accounting",
                f"stats.{key}={stats.get(key, 0)} but {statuses.get(key, 0)} "
                f"job(s) ended {key}"))
    return out


def check_reports_comparable(reference: dict[str, Any],
                             observed: dict[str, Any],
                             label: str) -> list[Violation]:
    """Invariant 2: the comparable projections of two reports agree."""
    ref, obs = comparable_report(reference), comparable_report(observed)
    if ref == obs:
        return []
    # Name the first divergence precisely — "reports differ" is useless
    # in a CI log at 3am.
    for index, (rj, oj) in enumerate(zip(ref["jobs"], obs["jobs"])):
        if rj != oj:
            keys = [k for k in rj if rj.get(k) != oj.get(k)]
            return [Violation(
                "comparable-equality",
                f"{label}: job #{index} ({rj.get('id')!r}) differs on "
                f"{', '.join(keys)}: "
                + "; ".join(f"{k}: {rj.get(k)!r} != {oj.get(k)!r}"
                            for k in keys))]
    if len(ref["jobs"]) != len(obs["jobs"]):
        return [Violation(
            "comparable-equality",
            f"{label}: {len(ref['jobs'])} vs {len(obs['jobs'])} jobs")]
    return [Violation(
        "comparable-equality",
        f"{label}: stats differ: {ref['stats']} != {obs['stats']}")]


def check_no_unknown_cached(backend_uri: str) -> list[Violation]:
    """Invariant 3: no durable tier holds a non-definitive result."""
    if not backend_exists(backend_uri):
        return []
    out: list[Violation] = []
    with open_backend(backend_uri) as backend:
        for entry in backend.scan():
            try:
                check_storable(backend.get(entry.key))
            except UnstorableValue as exc:
                out.append(Violation(
                    "no-unknown-cached",
                    f"{backend_uri}: entry {entry.key}: {exc}"))
    return out


def check_backend_clean(backend_uri: str) -> list[Violation]:
    """Invariant 4: the backend's own verify() finds nothing corrupt."""
    if not backend_exists(backend_uri):
        return []
    with open_backend(backend_uri) as backend:
        corrupt = backend.verify()
    if corrupt:
        return [Violation(
            "backend-integrity",
            f"{backend_uri}: {len(corrupt)} corrupt entr"
            f"{'y' if len(corrupt) == 1 else 'ies'}: "
            f"{', '.join(corrupt[:5])}")]
    return []
