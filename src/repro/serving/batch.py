"""Parallel batch evaluation of OMQ workloads.

A *workload* is a list of jobs, each an (instance, query) pair evaluated
against one shared ontology.  :func:`evaluate_batch` compiles one
:class:`~repro.serving.plan.CompiledOMQ` per distinct query, splits the
caller's :class:`~repro.runtime.Budget` evenly across jobs, and fans the
jobs out over a ``concurrent.futures`` process pool.  Failure stays
first-class: a job whose budget runs out reports ``unknown``, a job whose
input is broken reports ``error``, and a worker process that dies takes
down only its own jobs — they come back as ``unknown`` outcomes with the
crash reason, never as lost work.

The resulting :class:`BatchReport` aggregates per-job outcomes with the
serving metrics the operator actually wants: cache hit rate, engine
selection, escalation rungs climbed, and a per-job latency histogram.

Workload files are JSON::

    [
      {"query": "q(x) <- hasFinger(x,y)", "data": "db0.facts"},
      {"query": "q() <- Thumb(y)", "facts": ["Hand(h)", "Arm(a)"]},
      ...
    ]

``data`` paths are resolved relative to the workload file.  Results are
deterministic: job order, answer order and verdicts are identical whether
the batch runs with 1 worker or many.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from ..logic.instance import Interpretation, make_instance
from ..logic.ontology import Ontology
from ..obs import Tracer, current_tracer
from ..queries.cq import QueryError
from ..resilience import (
    AttemptOutcome, Journal, PoolSupervisor, RetryPolicy, Supervisor, Task,
)
from ..runtime import Budget
from ..storage.base import StorageBackend, open_backend
from .cache import AnswerCache, conversion_cache_stats
from .fingerprint import fingerprint_ontology
from .metrics import Histogram
from .plan import check_options, compile_omq


@dataclass(frozen=True)
class Job:
    """One unit of work: a query over an instance (path or inline facts)."""

    query: str
    data: str | None = None
    facts: tuple[str, ...] = ()
    job_id: str = ""

    def data_ref(self) -> str:
        return self.data if self.data is not None else f"<{len(self.facts)} inline fact(s)>"


def jobs_from_entries(entries: Any, base: Path | None = None,
                      where: str = "workload") -> list[Job]:
    """Validate parsed workload entries into :class:`Job`\\ s.

    Shared by :func:`load_workload` (entries from a JSON file, ``data``
    paths resolved against *base*) and the serving daemon (entries from a
    request body).  Raises ``ValueError`` naming *where* on bad input.
    """
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{where}: workload must be a non-empty JSON list")
    jobs: list[Job] = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "query" not in entry:
            raise ValueError(
                f"{where}: job {idx} must be an object with a 'query'")
        data = entry.get("data")
        facts = entry.get("facts")
        if (data is None) == (facts is None):
            raise ValueError(
                f"{where}: job {idx} needs exactly one of 'data' or 'facts'")
        if data is not None:
            data = str(base / data) if base is not None else str(data)
        if facts is not None and not isinstance(facts, list):
            raise ValueError(f"{where}: job {idx}: 'facts' must be a list")
        jobs.append(Job(
            query=str(entry["query"]),
            data=data,
            facts=tuple(str(f) for f in facts) if facts is not None else (),
            job_id=str(entry.get("id", idx)),
        ))
    return jobs


def load_workload(path: str | Path) -> list[Job]:
    """Parse a JSON workload file; raises ValueError on malformed input."""
    import json

    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    return jobs_from_entries(entries, base=path.parent, where=str(path))


@dataclass(frozen=True)
class JobResult:
    """One job's outcome inside a batch report.

    ``status`` lifecycle (see ``docs/serving.md``): ``ok`` (answered),
    ``unknown`` (budget exhausted, or crashed without reaching the
    quarantine threshold), ``error`` (broken input, never retried) and
    ``quarantined`` (the job crashed its worker ``max_crashes`` times and
    was isolated so the batch could finish).  ``attempts`` is the
    per-attempt history recorded by the retrying supervisor; ``resumed``
    marks results replayed from a ``--journal`` instead of recomputed.
    """

    index: int
    job_id: str
    query: str
    data: str
    status: str  # "ok" | "unknown" | "error" | "quarantined"
    verdict: str  # "ok" | "yes" | "no" | "unknown" | "error"
    answers: tuple[tuple[str, ...], ...] = ()
    cache_hit: bool = False
    engine: str | None = None
    path: str = "ladder"  # which evaluation path ran: ladder/fastpath/cache
    rungs: int = 0
    elapsed: float = 0.0
    reason: str = ""
    outcome: dict[str, Any] | None = None
    attempts: tuple[dict, ...] = ()
    resumed: bool = False

    def signature(self) -> tuple:
        """The worker-count-invariant part (for 1-vs-N comparisons)."""
        return (self.index, self.status, self.verdict, self.answers)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "index": self.index,
            "id": self.job_id,
            "query": self.query,
            "data": self.data,
            "status": self.status,
            "verdict": self.verdict,
            "answers": [list(a) for a in self.answers],
            "cache_hit": self.cache_hit,
            "engine": self.engine,
            "path": self.path,
            "rungs": self.rungs,
            "elapsed": round(self.elapsed, 6),
        }
        if self.reason:
            out["reason"] = self.reason
        if self.outcome is not None:
            out["outcome"] = self.outcome
        if self.attempts:
            out["attempts"] = [dict(a) for a in self.attempts]
        if self.resumed:
            out["resumed"] = True
        return out


@dataclass
class BatchReport:
    """Per-job outcomes plus aggregated serving metrics."""

    results: list[JobResult]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every job produced a definitive verdict."""
        return all(r.status == "ok" for r in self.results)

    def signatures(self) -> list[tuple]:
        return [r.signature() for r in self.results]

    def to_dict(self) -> dict[str, Any]:
        return {"jobs": [r.to_dict() for r in self.results],
                "stats": self.stats}

    def comparable_dict(self) -> dict[str, Any]:
        """The timing-, cache- and resume-invariant view (see
        :func:`comparable_report`)."""
        return comparable_report(self.to_dict())

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            what = {"ok": f"{len(r.answers)} answer(s)",
                    "yes": "certain: True", "no": "certain: False"}.get(
                        r.verdict, r.reason or r.verdict)
            cache = "hit" if r.cache_hit else "miss"
            lines.append(
                f"[{r.index:>3}] {r.status:<7} {what:<20} "
                f"cache={cache:<4} {r.elapsed * 1000:8.1f}ms  {r.query}")
        s = self.stats
        quarantined = (f" / {s['quarantined']} quarantined"
                       if s.get("quarantined") else "")
        resilience = s.get("resilience", {})
        retried = (f"; {resilience['retries']} retried attempt(s)"
                   if resilience.get("retries") else "")
        resumed = (f"; {resilience['resumed']} resumed from journal"
                   if resilience.get("resumed") else "")
        lines.append(
            f"batch: {s.get('jobs', len(self.results))} job(s), "
            f"{s.get('ok', 0)} ok / {s.get('unknown', 0)} unknown / "
            f"{s.get('error', 0)} error{quarantined}; "
            f"cache hit rate {s.get('cache', {}).get('hit_rate', 0.0):.0%}; "
            f"wall {s.get('wall_seconds', 0.0):.2f}s "
            f"({s.get('workers', 1)} worker(s)){retried}{resumed}")
        return "\n".join(lines)


# Job and stat fields that must be identical between an uninterrupted run
# and a crash/resume (or 1-vs-N-worker) run.  Everything else — timings,
# cache hit flags, attempt histories, resume markers, engine provenance
# that legitimately shifts with cache state — is volatile.
_COMPARABLE_JOB_KEYS = ("index", "id", "query", "data", "status", "verdict",
                        "answers")
_COMPARABLE_STAT_KEYS = ("jobs", "ok", "unknown", "error", "quarantined")


def comparable_report(payload: dict[str, Any]) -> dict[str, Any]:
    """Strip a :meth:`BatchReport.to_dict` payload down to the fields a
    resumed run must reproduce byte-for-byte (the CI crash-resume smoke
    compares two of these)."""
    return {
        "jobs": [{key: job.get(key) for key in _COMPARABLE_JOB_KEYS}
                 for job in payload.get("jobs", ())],
        "stats": {key: payload.get("stats", {}).get(key, 0)
                  for key in _COMPARABLE_STAT_KEYS},
    }


# -- job execution -----------------------------------------------------------


def _load_instance(job: Job) -> Interpretation:
    if job.data is not None:
        lines = [line.split("#", 1)[0].strip()
                 for line in Path(job.data).read_text().splitlines()]
        return make_instance(*(line for line in lines if line))
    return make_instance(*job.facts)


def _execute_job(
    index: int,
    job: Job,
    onto: Ontology,
    budget: Budget | None,
    options: dict[str, Any],
    answer_cache: AnswerCache | None,
) -> JobResult:
    """Run one job in the current process (shared by serial and worker
    paths).  ``options["compile"]`` holds the evaluation options the
    batch's caller set, forwarded to :func:`compile_omq` as they are."""
    start = time.perf_counter()

    def failed(reason: str, status: str = "error") -> JobResult:
        return JobResult(
            index=index, job_id=job.job_id, query=job.query,
            data=job.data_ref(), status=status, verdict=status,
            reason=reason, elapsed=time.perf_counter() - start)

    with current_tracer().span("batch.job", index=index, job=job.job_id,
                               attempt=options.get("attempt", 1)) as span:
        try:
            instance = _load_instance(job)
        except (OSError, ValueError) as exc:
            span.set(status="error")
            return failed(f"data: {exc}")
        try:
            plan = compile_omq(onto, job.query, **options["compile"])
        except (QueryError, ValueError) as exc:
            span.set(status="error")
            return failed(f"query: {exc}")
        except Exception as exc:  # LintError from preflight, etc.
            span.set(status="error")
            return failed(f"compile: {exc}")

        result = plan.evaluate(instance, budget=budget, cache=answer_cache)
        outcome = result.outcome
        status = "ok" if result.definitive else "unknown"
        span.set(status=status, verdict=result.verdict,
                 cache_hit=result.cache_hit)
        return JobResult(
            index=index, job_id=job.job_id, query=job.query,
            data=job.data_ref(),
            status=status,
            verdict=result.verdict,
            answers=result.answers,
            cache_hit=result.cache_hit,
            engine=outcome.get("engine") if outcome else None,
            path=result.path,
            rungs=len(outcome.get("attempts", ())) if outcome else 0,
            elapsed=time.perf_counter() - start,
            reason="" if result.definitive else str(
                (outcome or {}).get("reason", "resource exhausted")),
            outcome=outcome,
        )


# Worker processes reuse one answer cache (and, transitively, the
# per-process plan/conversion caches) across all jobs they execute.
# Keyed by the storage-backend URI so one worker can serve batches with
# different durable tiers without cross-pollination.
_WORKER_CACHE: dict[str, AnswerCache] = {}


def _worker_cache(cache_uri: str | None) -> AnswerCache:
    key = cache_uri or ""
    cache = _WORKER_CACHE.get(key)
    if cache is None:
        cache = AnswerCache(
            backend=open_backend(cache_uri) if cache_uri else None)
        _WORKER_CACHE[key] = cache
    return cache


def _run_job(payload: tuple) -> dict[str, Any]:
    """Process-pool entry point: JobResult + spans, all plain dicts.

    The worker traces into a fresh per-job :class:`repro.obs.Tracer`
    (enabled only when the driver's tracer is) and ships the spans back
    with the result; the driver rebases and merges them in job order so
    the final trace is identical across worker counts.
    """
    index, job, onto, budget_kwargs, options = payload
    budget = Budget(**budget_kwargs) if budget_kwargs is not None else None
    cache = _worker_cache(options.get("cache_backend"))
    tracer = Tracer(enabled=bool(options.get("trace")))
    with tracer.activate():
        result = _execute_job(index, job, onto, budget, options, cache)
    return {
        "result": result.to_dict(),
        "spans": tracer.to_dicts() if tracer.enabled else [],
        # The durable tier's circuit breaker trips per *process*; ship the
        # flag back so the driver can surface it in BatchReport.stats.
        "cache_tripped": (cache.backend is not None
                          and cache.backend.tripped),
    }


def _result_from_dict(data: dict[str, Any]) -> JobResult:
    return JobResult(
        index=data["index"], job_id=data["id"], query=data["query"],
        data=data["data"], status=data["status"], verdict=data["verdict"],
        answers=tuple(tuple(a) for a in data["answers"]),
        cache_hit=data["cache_hit"], engine=data.get("engine"),
        path=data.get("path", "ladder"),
        rungs=data.get("rungs", 0), elapsed=data.get("elapsed", 0.0),
        reason=data.get("reason", ""), outcome=data.get("outcome"),
        attempts=tuple(dict(a) for a in data.get("attempts", ())),
        resumed=bool(data.get("resumed", False)),
    )


def quarantined_result(index: int, job: Job, crashes: int,
                       reason: str) -> JobResult:
    """A poison job: it crashed its worker *crashes* times and was
    isolated so the rest of the batch could finish."""
    return JobResult(
        index=index, job_id=job.job_id, query=job.query,
        data=job.data_ref(), status="quarantined", verdict="unknown",
        reason=f"quarantined after {crashes} worker crash(es): {reason}",
    )


def job_key(index: int, job: Job) -> str:
    """A stable identity for (position, job content) — what the journal
    keys finished results by, so resume never skips the wrong job."""
    payload = json.dumps(
        {"index": index, "id": job.job_id, "query": job.query,
         "data": job.data, "facts": list(job.facts)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def make_worker_pool(workers: int) -> PoolSupervisor:
    """A :class:`~repro.resilience.PoolSupervisor` wired to the batch
    worker entry point, for embedders that keep one pool alive across
    many :func:`evaluate_batch` calls (the ``repro serve`` daemon).
    Pass it via ``evaluate_batch(..., pool=...)``; the caller owns its
    lifecycle (``close()`` / context manager)."""
    return PoolSupervisor(_run_job, workers)


# -- the batch executor ------------------------------------------------------


class _BatchRunner:
    """Executes supervisor waves for one batch (serial or pooled) and
    finalizes results into the report/journal.  Private glue between
    :func:`evaluate_batch` and :class:`repro.resilience.Supervisor`."""

    def __init__(self, onto, jobs, options, budgets, tracer, cache,
                 pool_supervisor, retry, journal, keys, on_result=None):
        self.onto = onto
        self.jobs = jobs
        self.options = options
        self.budgets = budgets  # index -> base per-job Budget | None
        self.tracer = tracer
        self.cache = cache  # serial-path answer cache (None when pooled)
        self.pool = pool_supervisor  # None when serial
        self.retry = retry
        self.journal = journal
        self.keys = keys  # index -> journal job key
        self.on_result = on_result  # callable(job_key, JobResult) | None
        self.results: dict[int, JobResult] = {}
        self.cache_tripped = False  # any worker's write breaker tripped

    def _task_budget(self, task: Task) -> Budget | None:
        base = self.budgets.get(task.key)
        if base is None or task.escalation == 1.0:
            return base
        return base.escalated(task.escalation)

    def _task_options(self, task: Task) -> dict[str, Any]:
        if task.attempt == 1:
            return self.options
        return {**self.options, "attempt": task.attempt}

    def execute_wave(self, tasks: "list[Task]") -> "list[AttemptOutcome]":
        if self.pool is None:
            return self._execute_serial(tasks)
        return self._execute_pooled(tasks)

    def _execute_serial(self, tasks):
        # A generator on purpose: the supervisor consumes outcomes as they
        # are produced, so each finished job is finalized (and journaled)
        # before the next one runs — a driver killed mid-wave loses only
        # the job it was on, which is what makes serial --resume work.
        for task in tasks:
            idx = task.key
            start = time.perf_counter()
            try:
                result = _execute_job(
                    idx, self.jobs[idx], self.onto, self._task_budget(task),
                    self._task_options(task), self.cache)
            except Exception as exc:
                # Same contract as the pool path: an unexpected crash
                # takes down only its own attempt, never the batch.
                yield AttemptOutcome(
                    task, "crash", reason=f"{type(exc).__name__}: {exc}",
                    elapsed=time.perf_counter() - start)
                continue
            yield AttemptOutcome(
                task, result.status, result=result, reason=result.reason,
                elapsed=result.elapsed)

    def _execute_pooled(self, tasks):
        payloads = []
        for task in tasks:
            task_budget = self._task_budget(task)
            payloads.append((task.key, (
                task.key, self.jobs[task.key], self.onto,
                task_budget.to_kwargs() if task_budget is not None else None,
                self._task_options(task))))
        by_key = {task.key: task for task in tasks}
        outs = []
        for key, kind, value in self.pool.run_wave(payloads):
            task = by_key[key]
            if kind == "crash":
                outs.append(AttemptOutcome(
                    task, "crash",
                    reason=f"{type(value).__name__}: {value}"))
                continue
            result = _result_from_dict(value["result"])
            if value.get("spans"):
                self.tracer.merge(value["spans"])
            if value.get("cache_tripped"):
                self.cache_tripped = True
            outs.append(AttemptOutcome(
                task, result.status, result=result, reason=result.reason,
                elapsed=result.elapsed))
        return outs

    def finalize(self, key, final) -> None:
        """Build the job's terminal :class:`JobResult` and journal it —
        called by the supervisor the moment the job is decided, so a
        killed batch loses at most the jobs still in flight."""
        idx = key
        job = self.jobs[idx]
        out = final.outcome
        if final.disposition == "quarantined":
            result = quarantined_result(
                idx, job, crashes=sum(
                    1 for a in final.attempts if a.status == "crash"),
                reason=out.reason)
        elif final.disposition == "crashed":
            result = JobResult(
                index=idx, job_id=job.job_id, query=job.query,
                data=job.data_ref(), status="unknown", verdict="unknown",
                reason=f"worker crashed: {out.reason}")
        else:  # "done" (ok/error) and "exhausted" (unknown) keep the result
            result = out.result
        if self.retry is not None and final.attempts:
            result = replace(
                result, attempts=tuple(a.to_dict() for a in final.attempts))
        self.results[idx] = result
        if self.journal is not None:
            # The journal is a resume artifact, not a provenance store:
            # replay must reproduce the comparable_report view (plus the
            # display fields), while the nested outcome is per-process
            # detail and the bulk of the record's bytes — dropping it
            # keeps the per-record cost inside the 5% journal budget.
            record = result.to_dict()
            record.pop("outcome", None)
            self.journal.append({"kind": "result", "key": self.keys[idx],
                                 "result": record})
        if self.on_result is not None:
            # The daemon's streaming hook: fires the moment a job is
            # decided (same timing as the journal append), so an external
            # journal can record progress crash-safely.
            self.on_result(self.keys[idx], result)


def evaluate_batch(
    onto: Ontology,
    jobs: Sequence[Job],
    workers: int = 1,
    budget: Budget | None = None,
    cache_backend: str | None = None,
    answer_cache: AnswerCache | None = None,
    tracer: Tracer | None = None,
    retry: RetryPolicy | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    pool: PoolSupervisor | None = None,
    on_result: "Any | None" = None,
    resume_results: "dict[str, dict] | None" = None,
    **options: Any,
) -> BatchReport:
    """Evaluate a workload of (instance, query) jobs against one ontology.

    With ``workers > 1`` jobs fan out over a process pool; a shared
    *budget* is split evenly per job (:meth:`repro.runtime.Budget.split`),
    so the whole batch respects one resource envelope.  Results are
    returned in job order and are identical across worker counts.

    *retry* applies a :class:`repro.resilience.RetryPolicy`: transient
    (``unknown``) outcomes and worker crashes are re-dispatched at once
    with a fresh escalated budget and recorded in each result's attempt
    history; a job that crashes its worker ``max_crashes`` times ends
    ``quarantined`` and the batch continues.  A broken process pool is
    rebuilt (poison attribution via single-in-flight cautious dispatch)
    and execution degrades to in-driver serial after the pool
    supervisor's ``max_pool_deaths`` consecutive pool deaths.

    *journal* names an append-only JSONL file that durably records every
    finished job the moment it is decided; with ``resume=True`` results
    already journaled (matched by :func:`job_key`) are replayed instead
    of recomputed, so a batch killed mid-run finishes with a report whose
    :func:`comparable_report` view equals an uninterrupted run's.

    The durable answer tier is named by *cache_backend*, a
    :func:`repro.storage.base.open_backend` URI (``dir:PATH`` or a bare
    path, ``sqlite:PATH?max_bytes=N&ttl=S``, ``shard:PATH?shards=N``);
    worker processes each open their own handle on it, which is what the
    sqlite and sharded backends exist for.  The backend's own accounting
    lands in ``stats["cache"]["backend"]``, and ``stats["cache"]["tripped"]``
    reports whether any process's write circuit breaker tripped during
    the batch (also logged once as a ``storage.breaker`` span).

    The evaluation *options* (``backend``, ``preflight``, ``chase_depth``,
    ``sat_extra``, ``fastpath``) are checked once, before any job runs
    (:func:`~repro.serving.plan.check_options`: ``ValueError``), and
    forwarded to :func:`~repro.serving.plan.compile_omq`, whose defaults
    hold for every option left out.  Jobs whose plan upgraded to
    ``datalog-fastpath`` (``fastpath="auto"``) record ``path="fastpath"``
    in their results and the report counts paths under
    ``stats["paths"]``.

    The last three parameters exist for long-lived embedders (the
    ``repro serve`` daemon): *pool* is an externally-owned
    :class:`~repro.resilience.PoolSupervisor` reused across batches (its
    worker processes — and their per-process plan/answer caches — stay
    warm; the caller owns its lifecycle, this function never closes it);
    *on_result* is a ``callable(job_key, JobResult)`` fired the moment
    each job is decided (the daemon journals from it); *resume_results*
    maps :func:`job_key` to result dicts already computed in a previous
    life — matching jobs are replayed (``resumed=True``) instead of
    recomputed, exactly like ``--resume`` but from the caller's own
    journal.

    *tracer* defaults to the ambient :func:`repro.obs.current_tracer`.
    Worker processes trace into fresh per-job tracers and ship their spans
    back with each result; the driver merges them in job order, so span
    counts match between ``workers=1`` and ``workers=N``.
    """
    check_options(options)
    if tracer is None:
        tracer = current_tracer()
    if not jobs:
        return BatchReport(results=[], stats={"jobs": 0, "workers": workers})
    wall_start = time.perf_counter()
    job_options = {"compile": options, "cache_backend": cache_backend,
                   "trace": tracer.enabled}

    keys = {idx: job_key(idx, job) for idx, job in enumerate(jobs)}
    onto_fp = fingerprint_ontology(onto)
    jrnl: Journal | None = None
    replayed: dict[int, JobResult] = {}
    if journal is not None:
        # No fsync: the journal is a redo log whose loss is always safe —
        # resume recomputes any missing suffix — and the unbuffered
        # O_APPEND write already survives driver death (SIGKILL /
        # os._exit), which is the recovery model.  fsync would only trim
        # recomputation after a *machine* crash, at ~10x the append cost
        # (bench_serving's 5% journal gate); embedders who want that can
        # journal through Journal(path, fsync=True) themselves.
        jrnl = Journal(journal, replay=resume, fsync=False)
        if resume:
            by_journal_key: dict[str, dict] = {}
            for record in jrnl.replayed:
                kind = record.get("kind")
                if kind == "header":
                    if record.get("ontology") != onto_fp:
                        jrnl.close()
                        raise ValueError(
                            f"{journal}: journal was written for a "
                            f"different ontology (fingerprint "
                            f"{record.get('ontology')!r}, expected "
                            f"{onto_fp!r})")
                elif kind == "result" and "key" in record:
                    by_journal_key[record["key"]] = record["result"]
            for idx in range(len(jobs)):
                stored = by_journal_key.get(keys[idx])
                if stored is not None:
                    replayed[idx] = replace(
                        _result_from_dict(stored), resumed=True)
        if not any(r.get("kind") == "header" for r in jrnl.replayed):
            jrnl.append({"kind": "header", "version": 1,
                         "ontology": onto_fp, "jobs": len(jobs)})
    if resume_results:
        for idx in range(len(jobs)):
            if idx in replayed:
                continue
            stored = resume_results.get(keys[idx])
            if stored is not None:
                replayed[idx] = replace(
                    _result_from_dict(stored), resumed=True)

    to_run = [idx for idx in range(len(jobs)) if idx not in replayed]
    split = (budget.split(len(to_run))
             if budget is not None and to_run else [])
    budgets: dict[int, Budget | None] = {
        idx: (split[pos] if split else None)
        for pos, idx in enumerate(to_run)}

    pool_supervisor: PoolSupervisor | None = None
    owns_pool = False
    cache: AnswerCache | None = None
    storage: StorageBackend | None = None  # driver-side handle (stats)
    owns_storage = False
    if pool is not None:
        pool_supervisor = pool
        workers = pool.workers
    elif workers <= 1:
        cache = answer_cache
        if cache is None:
            cache = AnswerCache(backend=open_backend(cache_backend)
                                if cache_backend else None)
            owns_storage = cache.backend is not None
        storage = cache.backend
    else:
        pool_supervisor = make_worker_pool(workers)
        owns_pool = True
    if pool_supervisor is not None and cache_backend is not None:
        # Open the backend in the driver too: a bad URI fails fast here
        # instead of crashing N workers, and the handle provides the
        # end-of-run backend stats (concurrency-safe by construction —
        # WAL for sqlite, atomic renames for the directory flavors).
        storage = open_backend(cache_backend)
        owns_storage = True

    runner = _BatchRunner(onto, jobs, job_options, budgets, tracer, cache,
                          pool_supervisor, retry, jrnl, keys,
                          on_result=on_result)
    supervisor = Supervisor(retry, runner.execute_wave,
                            on_final=runner.finalize)
    try:
        if to_run:
            if pool_supervisor is None:
                with tracer.activate():
                    supervisor.run(to_run)
            elif owns_pool:
                with pool_supervisor:
                    supervisor.run(to_run)
            else:
                # An externally-owned pool (the serving daemon's): use it
                # but leave its lifecycle to the owner.
                supervisor.run(to_run)
    finally:
        if jrnl is not None:
            jrnl.close()

    results = [replayed.get(idx) or runner.results[idx]
               for idx in range(len(jobs))]

    latency = Histogram("job_seconds")
    for r in results:
        latency.observe(r.elapsed)
    engines: dict[str, int] = {}
    for r in results:
        if r.engine:
            engines[r.engine] = engines.get(r.engine, 0) + 1
    paths: dict[str, int] = {}
    for r in results:
        paths[r.path] = paths.get(r.path, 0) + 1
    hits = sum(1 for r in results if r.cache_hit)
    cache_stats: dict[str, Any] = {
        "hits": hits,
        "misses": len(results) - hits,
        "hit_rate": round(hits / len(results), 4),
    }
    tripped = runner.cache_tripped or (
        storage is not None and storage.tripped)
    if storage is not None:
        try:
            cache_stats["backend"] = storage.stats()
        except Exception:
            pass  # stats are best-effort, like the tier itself
        if owns_storage:
            storage.close()
    cache_stats["tripped"] = tripped
    if tripped:
        # A tripped write breaker silences the tier for the rest of the
        # process; make it visible exactly once per batch in the trace.
        with tracer.span("storage.breaker",
                         backend=cache_backend or "memory") as span:
            span.set(tripped=True)
    stats: dict[str, Any] = {
        "jobs": len(results),
        "workers": workers,
        "ok": sum(1 for r in results if r.status == "ok"),
        "unknown": sum(1 for r in results if r.status == "unknown"),
        "error": sum(1 for r in results if r.status == "error"),
        "quarantined": sum(1 for r in results if r.status == "quarantined"),
        "cache": cache_stats,
        "engines": engines,
        "paths": paths,
        "escalation_rungs": sum(max(0, r.rungs - 1) for r in results),
        "distinct_queries": len({r.query for r in results}),
        "latency": latency.summary(),
        "conversion_cache": conversion_cache_stats(),
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
    }
    resilience: dict[str, Any] = dict(supervisor.stats())
    resilience["resumed"] = len(replayed)
    if pool_supervisor is not None:
        resilience["pool"] = pool_supervisor.stats()
    if jrnl is not None:
        resilience["journal"] = jrnl.stats()
    stats["resilience"] = resilience
    return BatchReport(results=results, stats=stats)
