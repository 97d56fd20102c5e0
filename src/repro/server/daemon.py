"""The ``repro serve`` daemon: a long-lived, overload-safe OMQ service.

One process, four kinds of thread, no dependencies beyond the standard
library:

* **HTTP threads** (``ThreadingHTTPServer``) parse requests, consult the
  :class:`~repro.server.admission.AdmissionController` and enqueue
  accepted job sets — they never evaluate anything, so the API stays
  responsive under any load;
* **the dispatcher thread** pops job sets in admission order and runs
  them through :func:`~repro.serving.batch.evaluate_batch`, reusing one
  long-lived worker pool (whose per-process plan/answer caches stay warm
  across requests) and one shared :class:`~repro.serving.cache.AnswerCache`;
* **the watchdog thread** watches a heartbeat the dispatcher touches on
  every finished job; a pool that stops making progress past
  ``wedge_timeout`` gets its worker processes killed, which surfaces as
  ``BrokenProcessPool`` and flows into the existing rebuild / cautious /
  quarantine machinery of :mod:`repro.resilience`;
* **the signal path** (wired by the CLI): SIGTERM/SIGINT trigger
  :meth:`ReproServer.begin_drain` — admission starts refusing with 503,
  ``/readyz`` flips, the dispatcher finishes what was accepted, then the
  process exits 0.

Crash safety piggybacks on :mod:`repro.resilience`: with ``--journal``
every accepted submission and every finished job is appended to an
append-only JSONL journal *the moment it happens*; a daemon SIGKILLed
mid-batch and restarted with ``--journal --resume`` re-creates the same
job sets, replays the finished jobs and recomputes only the interrupted
suffix — the final report is :func:`~repro.serving.batch.comparable_report`-equal
to an uninterrupted run's.

See ``docs/serving.md`` for the endpoint table and the admission /
backpressure / drain state diagram.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..dl.parser import parse_dl_ontology
from ..dl.translate import dl_to_ontology
from ..logic.ontology import Ontology, ontology
from ..logic.parser import ParseError
from ..resilience import Journal, RetryPolicy
from ..runtime import Budget
from ..serving.batch import evaluate_batch, job_key, jobs_from_entries, make_worker_pool
from ..serving.cache import AnswerCache, conversion_cache_stats
from ..storage.base import open_backend
from ..serving.fingerprint import fingerprint_ontology
from ..serving.metrics import MetricsRegistry, render_prometheus
from ..serving.plan import check_options, classify_band, plan_cache_stats
from .admission import RETRY_AFTER, AdmissionController
from .state import (
    CANCELLED, DONE, FAILED, QUEUED, RUNNING, JobSet, JobSetStore,
)

class RequestError(ValueError):
    """A malformed submission; rendered as HTTP 400."""


def _parse_ontology(text: str, dl: bool) -> Ontology:
    try:
        if dl:
            return dl_to_ontology(parse_dl_ontology(text, name="request"))
        return ontology(text, name="request")
    except (ParseError, ValueError) as exc:
        raise RequestError(f"ontology: {exc}") from exc


def _deadline_seconds(value: Any) -> float:
    """A submission's ``deadline``: a JSON number of seconds, finite and
    positive — ``true`` is not 1 and ``"30"`` is not 30."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:  # an integer too large for a float
            seconds = math.inf
        if 0 < seconds < math.inf:
            return seconds
    raise RequestError(
        "'deadline' must be a finite positive number of seconds")


class ReproServer:
    """The serving daemon.  ``start()`` binds and spins up the threads;
    ``begin_drain()`` + ``drain()`` + ``stop()`` is the graceful exit.

    Everything time-related takes the injectable *clock* so overload and
    watchdog behaviour is unit-testable without sleeping.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        journal: str | None = None,
        resume: bool = False,
        cache_backend: str | None = None,
        retry: RetryPolicy | None = None,
        max_queued_jobs: int = 256,
        high_water: float = 0.5,
        wedge_timeout: float = 60.0,
        watchdog_interval: float = 1.0,
        clock: Any = time.monotonic,
    ):
        self.host = host
        self.port = port  # rebound to the real port by start()
        self.workers = max(1, workers)
        self.journal_path = journal
        self.resume = resume
        # One durable-tier URI for both the daemon's own AnswerCache and
        # the worker processes (each opens its own handle on it).
        self.cache_uri = cache_backend
        self.retry = retry
        self.wedge_timeout = wedge_timeout
        self.watchdog_interval = watchdog_interval
        self._clock = clock

        self.store = JobSetStore()
        self.admission = AdmissionController(
            max_queued_jobs=max_queued_jobs, high_water=high_water)
        self.metrics = MetricsRegistry()
        self.answer_cache = AnswerCache(
            backend=open_backend(self.cache_uri) if self.cache_uri else None)
        self.pool = None  # built by start() when workers > 1
        self.journal: Journal | None = None
        self._journal_lock = threading.Lock()

        self._queue: deque[JobSet] = deque()
        self._cond = threading.Condition()
        self._stop_event = threading.Event()
        self.draining = False
        self._heartbeat = clock()
        self.watchdog_pool_kills = 0
        self.started_at = clock()

        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind, resume the journal, and start all daemon threads."""
        self.started_at = self._clock()
        if self.workers > 1:
            self.pool = make_worker_pool(self.workers)
        if self.journal_path is not None:
            self.journal = Journal(self.journal_path, replay=self.resume,
                                   fsync=False)
            if self.resume:
                self._resume_from_journal()
        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.repro = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        for name, target in (
                ("repro-serve-http", self._httpd.serve_forever),
                ("repro-serve-dispatch", self._dispatch_loop),
                ("repro-serve-watchdog", self._watchdog_loop)):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def begin_drain(self) -> None:
        """Stop accepting work; what was accepted still finishes."""
        self.draining = True
        self.admission.start_drain()
        with self._cond:
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every accepted job set reached a terminal state.
        Returns False if *timeout* elapsed first."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self.store.live_count() > 0:
                remaining = (None if deadline is None
                             else deadline - self._clock())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=0.05 if remaining is None
                                else min(0.05, remaining))
        return True

    def stop(self) -> None:
        """Tear everything down (idempotent)."""
        self._stop_event.set()
        with self._cond:
            self._cond.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        if self.answer_cache.backend is not None:
            # Flushes sqlite's batched hit accounting.
            self.answer_cache.backend.close()

    # -- journal -------------------------------------------------------------

    def _journal_append(self, record: dict) -> None:
        if self.journal is None:
            return
        with self._journal_lock:
            self.journal.append(record)

    def _resume_from_journal(self) -> None:
        """Re-create every journaled job set; finished jobs replay, the
        interrupted suffix recomputes.  Submission order is preserved.  A
        job set journaled with evaluation options that :func:`check_options`
        now refuses (an older daemon took ``fastpath: force`` and coerced
        strings) is re-adopted without them and recomputes in full; one
        journaled with a deadline that is not finite (an older daemon took
        ``"nan"`` and ``"inf"``) is re-adopted without it."""
        assert self.journal is not None
        pending: list[JobSet] = []
        by_id: dict[str, JobSet] = {}
        rerun: set[str] = set()
        for record in self.journal.replayed:
            kind = record.get("kind")
            if kind == "jobset":
                payload = record.get("payload", {})
                options = (payload.get("options")
                           if isinstance(payload, dict) else None)
                if isinstance(options, dict):
                    try:
                        check_options({k: v for k, v in options.items()
                                       if k != "budget"})
                    except ValueError:
                        # What those options answered is not served again.
                        payload = {**payload, "options": {
                            k: v for k, v in options.items()
                            if k == "budget"}}
                        rerun.add(record.get("id"))
                deadline = (payload.get("deadline")
                            if isinstance(payload, dict) else None)
                if (isinstance(deadline, float)
                        and not math.isfinite(deadline)):
                    # It never bounded anything, so what ran stays valid.
                    payload = {**payload, "deadline": None}
                try:
                    jobset = self._build_jobset(
                        payload, jobset_id=record["id"],
                        client=record.get("client", "anonymous"))
                except (KeyError, RequestError) as exc:
                    # A journal written by us never contains a bad
                    # payload; if one shows up, surface it loudly.
                    raise ValueError(
                        f"{self.journal_path}: unreplayable jobset "
                        f"{record.get('id')!r}: {exc}") from exc
                jobset.resumed = True
                self.store.adopt_id(jobset.id)
                pending.append(jobset)
                by_id[jobset.id] = jobset
            elif kind == "job-result":
                jobset = by_id.get(record.get("jobset", ""))
                if (jobset is not None and "key" in record
                        and jobset.id not in rerun):
                    jobset.resume_results[record["key"]] = record["result"]
            elif kind == "jobset-cancelled":
                jobset = by_id.get(record.get("jobset", ""))
                if jobset is not None:
                    jobset.status = CANCELLED
        for jobset in pending:
            self.store.add(jobset)
            if jobset.status == CANCELLED:
                self.store.finish(jobset)
                continue
            self.admission.adopt(len(jobset.jobs))
            with self._cond:
                self._queue.append(jobset)

    # -- submission ----------------------------------------------------------

    def _build_jobset(self, payload: dict, jobset_id: str | None = None,
                      client: str = "anonymous") -> JobSet:
        """Validate a submission body into a :class:`JobSet` (shared by
        live POSTs and journal resume).  Raises :class:`RequestError`."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        text = payload.get("ontology")
        if not isinstance(text, str) or not text.strip():
            raise RequestError("'ontology' must be a non-empty string")
        dl = payload.get("dl", False)
        if not isinstance(dl, bool):
            raise RequestError("'dl' must be true or false")
        onto = _parse_ontology(text, dl)
        try:
            jobs = jobs_from_entries(payload.get("jobs"), where="jobs")
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        if any(job.data is not None for job in jobs):
            raise RequestError(
                "jobs must carry inline 'facts'; server-side 'data' file "
                "paths are not accepted over the API")
        extra = payload.get("options", {})
        if not isinstance(extra, dict):
            raise RequestError("'options' must be an object")
        options = dict(extra)
        budget = options.pop("budget", None)  # the daemon's, not compile's
        try:
            check_options(options)
            if budget is not None:
                Budget.from_spec(str(budget))
        except ValueError as exc:
            raise RequestError(f"options: {exc}") from exc
        deadline = payload.get("deadline")
        if deadline is not None:
            deadline = _deadline_seconds(deadline)
        band, detail = classify_band(onto)
        fingerprint = fingerprint_ontology(onto)
        return JobSet(
            id=jobset_id or self.store.next_id(fingerprint),
            client=client, band=band, band_detail=detail,
            onto=onto, jobs=jobs,
            payload={"ontology": text, "dl": dl,
                     "jobs": payload.get("jobs"),
                     "options": extra, "deadline": deadline},
            options=options, budget=budget, deadline=deadline,
            submitted=self._clock(),
        )

    def handle_submit(self, payload: dict,
                      client: str = "anonymous") -> tuple[int, dict]:
        """The POST /v1/jobsets logic: validate, admit, enqueue.
        Returns ``(http_status, body)``; the transport layer adds the
        ``Retry-After`` header from ``body["retry_after"]``."""
        try:
            jobset = self._build_jobset(payload, client=client)
        except RequestError as exc:
            self.metrics.counter("server.bad_requests").inc()
            return 400, {"error": str(exc)}
        decision = self.admission.admit(len(jobset.jobs), jobset.band)
        if not decision.accepted:
            self.metrics.counter("server.jobsets_rejected").inc()
            body = decision.to_dict()
            body.update({"band": jobset.band, "band_detail": jobset.band_detail})
            return decision.status, body
        self._journal_append({
            "kind": "jobset", "id": jobset.id, "client": client,
            "band": jobset.band, "payload": jobset.payload})
        self.store.add(jobset)
        with self._cond:
            self._queue.append(jobset)
            self._cond.notify_all()
        self.metrics.counter("server.jobsets_accepted").inc()
        return 202, {"id": jobset.id, "status": jobset.status,
                     "band": jobset.band, "band_detail": jobset.band_detail,
                     "jobs": len(jobset.jobs)}

    def handle_cancel(self, jobset_id: str) -> tuple[int, dict]:
        jobset = self.store.get(jobset_id)
        if jobset is None:
            return 404, {"error": f"unknown job set {jobset_id!r}"}
        with self._cond:
            if jobset.status != QUEUED:
                return 409, {"error": f"job set is {jobset.status}; only "
                                      f"queued job sets can be cancelled"}
            jobset.status = CANCELLED
            jobset.onto = None
            try:
                self._queue.remove(jobset)
            except ValueError:
                pass
            self._cond.notify_all()
        self.admission.release(len(jobset.jobs))
        self.store.finish(jobset)
        self._journal_append({"kind": "jobset-cancelled",
                              "jobset": jobset.id})
        self.metrics.counter("server.jobsets_cancelled").inc()
        return 200, {"id": jobset.id, "status": CANCELLED}

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop_event.is_set():
                    self._cond.wait(timeout=0.1)
                if self._stop_event.is_set() and not self._queue:
                    return
                jobset = self._queue.popleft()
            if jobset.status != QUEUED:
                continue  # cancelled while waiting
            self._run_jobset(jobset)
            with self._cond:
                self._cond.notify_all()

    def _jobset_budget(self, jobset: JobSet) -> Budget | None:
        """The evaluation budget: the submission's ``options.budget``
        spec, bounded by whatever remains of its deadline.  The bound is
        the budget's not-after time, which every job's share and every
        retry's escalated budget keep."""
        spec = str(jobset.budget) if jobset.budget else ""
        remaining = jobset.deadline_remaining(self._clock())
        if remaining is None:
            return Budget.from_spec(spec) if spec else None
        return Budget.from_spec(spec, time_left=remaining)

    def _run_jobset(self, jobset: JobSet) -> None:
        with self._cond:
            # Claim under the lock: a concurrent DELETE may have
            # cancelled (and released) this job set after the dispatcher
            # popped it — running it then would double-release capacity.
            if jobset.status != QUEUED:
                return
            jobset.status = RUNNING
        jobset.started = self._clock()
        self._heartbeat = jobset.started
        remaining = jobset.deadline_remaining(jobset.started)
        if remaining is not None and remaining <= 0:
            jobset.status = FAILED
            jobset.error = (f"deadline of {jobset.deadline}s exceeded "
                            f"while queued")
            self.metrics.counter("server.jobsets_failed").inc()
            self._finish(jobset)
            return

        def on_result(key: str, result) -> None:
            jobset.completed_jobs += 1
            self._heartbeat = self._clock()
            self.metrics.counter("server.jobs_completed").inc()
            record = result.to_dict()
            record.pop("outcome", None)
            self._journal_append({"kind": "job-result", "jobset": jobset.id,
                                  "key": key, "result": record})

        try:
            report = evaluate_batch(
                jobset.onto, jobset.jobs,
                workers=self.workers,
                budget=self._jobset_budget(jobset),
                cache_backend=self.cache_uri,
                answer_cache=self.answer_cache,
                retry=self.retry,
                pool=self.pool,
                on_result=on_result,
                resume_results=jobset.resume_results or None,
                **jobset.options,
            )
        except Exception as exc:  # never let one job set kill the daemon
            jobset.status = FAILED
            jobset.error = f"{type(exc).__name__}: {exc}"
            self.metrics.counter("server.jobsets_failed").inc()
        else:
            jobset.report = report
            jobset.completed_jobs = len(jobset.jobs)
            jobset.status = DONE
            self.metrics.counter("server.jobsets_completed").inc()
        self._finish(jobset)

    def _finish(self, jobset: JobSet) -> None:
        # Nothing reads the parsed ontology after the run; the store keeps
        # the job set (and its report) until MAX_FINISHED later ones finish.
        jobset.onto = None
        jobset.finished = self._clock()
        self.store.finish(jobset)
        elapsed = jobset.finished - (jobset.started or jobset.finished)
        self.metrics.histogram("server.jobset_seconds").observe(elapsed)
        self.admission.release(len(jobset.jobs))
        self._heartbeat = jobset.finished

    # -- watchdog ------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop_event.wait(self.watchdog_interval):
            self.check_wedged()

    def check_wedged(self) -> int:
        """Kill the pool's worker processes if a running job set has made
        no progress for *wedge_timeout* seconds.  Death surfaces as
        ``BrokenProcessPool`` inside the dispatcher's ``run_wave``, which
        rebuilds the pool and re-dispatches cautiously — the wedged job
        eventually quarantines, the daemon lives.  Returns processes
        killed."""
        if self.pool is None:
            return 0
        running = any(js.status == RUNNING for js in self.store.all())
        if not running:
            return 0
        if self._clock() - self._heartbeat <= self.wedge_timeout:
            return 0
        killed = self._kill_pool_workers()
        if killed:
            self.watchdog_pool_kills += 1
            self.metrics.counter("server.watchdog_pool_kills").inc()
            self._heartbeat = self._clock()  # one kill per wedge window
        return killed

    def _kill_pool_workers(self) -> int:
        executor = getattr(self.pool, "_pool", None)
        processes = getattr(executor, "_processes", None)
        if not processes:
            return 0
        killed = 0
        for process in list(processes.values()):
            try:
                process.kill()
                killed += 1
            except Exception:
                pass
        return killed

    # -- introspection -------------------------------------------------------

    #: The sentinel key /healthz round-trips through the durable tier.
    #: Not fingerprint hex on purpose: it can never collide with a real
    #: cached answer.
    PROBE_KEY = "healthz-probe"

    def storage_health(self) -> str | None:
        """Probe the durable tier: ``"ok"``, ``"degraded"``, or ``None``
        when the daemon runs without one.

        A sentinel write/read/delete round-trip through the configured
        backend — the same code path every cached answer takes, so a
        full volume, a tripped write breaker or a corrupting disk shows
        up here before it shows up as silent cache misses.  Best-effort
        like the tier itself: a failed probe degrades the report, never
        the daemon.
        """
        backend = self.answer_cache.backend
        if backend is None:
            return None
        if backend.tripped:
            return "degraded"
        token = {"verdict": "probe", "at": round(self._clock(), 6)}
        try:
            backend.put(self.PROBE_KEY, token)
            value = backend.get(self.PROBE_KEY)
            backend.delete(self.PROBE_KEY)
        except Exception:
            return "degraded"
        if backend.tripped or value != token:
            return "degraded"
        return "ok"

    def jobset_status(self, jobset_id: str) -> tuple[int, dict]:
        jobset = self.store.get(jobset_id)
        if jobset is None:
            return 404, {"error": f"unknown job set {jobset_id!r}"}
        return 200, jobset.summary()

    def jobset_result(self, jobset_id: str) -> tuple[int, dict]:
        jobset = self.store.get(jobset_id)
        if jobset is None:
            return 404, {"error": f"unknown job set {jobset_id!r}"}
        if jobset.status in (QUEUED, RUNNING):
            return 202, jobset.summary()
        body = jobset.summary()
        if jobset.report is not None:
            body["report"] = jobset.report.to_dict()
        return 200, body

    def render_metrics(self) -> str:
        """The /metrics payload: server counters/histograms plus
        point-in-time gauges for queue, admission, caches and uptime."""
        snap = self.admission.snapshot()
        counts = self.store.counts()
        gauges: dict[str, float] = {
            "server.queued_jobs": snap["queued_jobs"],
            "server.queue_capacity": snap["max_queued_jobs"],
            "server.jobsets_queued": counts[QUEUED],
            "server.jobsets_running": counts[RUNNING],
            "server.draining": 1.0 if self.draining else 0.0,
            "server.uptime_seconds": self._clock() - self.started_at,
            "server.workers": self.workers,
        }
        for kind, count in snap["shed"].items():
            gauges[f"server.shed.{kind}"] = count
        for name, value in self.answer_cache.stats().get("memory", {}).items():
            gauges[f"cache.answer.{name}"] = float(value)
        backend = self.answer_cache.backend
        if backend is not None:
            # The durable tier's accounting (hits/misses/entries/tripped,
            # plus sqlite's persisted lifetime aggregates), flattened to
            # numeric storage.* gauges; string fields like the scheme
            # name have no Prometheus representation and are skipped.
            for name, value in backend.stats().items():
                if isinstance(value, bool):
                    gauges[f"storage.{name}"] = 1.0 if value else 0.0
                elif isinstance(value, (int, float)):
                    gauges[f"storage.{name}"] = float(value)
                elif isinstance(value, dict):
                    for sub, sval in value.items():
                        if isinstance(sval, (int, float)):
                            gauges[f"storage.{name}.{sub}"] = float(sval)
            # The same sentinel round-trip /healthz reports, as a gauge
            # (repro_storage_healthy) so dashboards can alert on it.
            # Probed AFTER the stats flatten above: the probe's own
            # put/get/delete traffic must not leak into the accounting
            # this very payload reports.
            gauges["storage.healthy"] = (
                1.0 if self.storage_health() == "ok" else 0.0)
        for name, value in plan_cache_stats().items():
            gauges[f"cache.plan.{name}"] = float(value)
        for name, value in conversion_cache_stats().items():
            gauges[f"cache.conversion.{name}"] = float(value)
        if self.pool is not None:
            for name, value in self.pool.stats().items():
                gauges[f"pool.{name}"] = float(value)
        return render_prometheus(self.metrics, extra_gauges=gauges)


# -- the HTTP transport ------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON transport over :class:`ReproServer`'s handler methods."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Buffer each response and send it with one flush, with Nagle off.  An
    # unbuffered handler sends the headers and the body as two small
    # writes, and on a keep-alive connection Nagle's algorithm holds the
    # body until the client's delayed ACK: about 40 ms per response.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def daemon(self) -> ReproServer:
        return self.server.repro  # type: ignore[attr-defined]

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def _send_json(self, status: int, body: dict) -> None:
        data = (json.dumps(body, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        retry_after = body.get("retry_after")
        if status in (429, 503) and retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.999))))
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _client(self) -> str:
        return self.headers.get("X-Client", "anonymous")

    def do_GET(self) -> None:
        daemon = self.daemon
        daemon.metrics.counter("server.http_requests").inc()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            body: dict[str, Any] = {"status": "ok"}
            storage = daemon.storage_health()
            if storage is not None:
                # The daemon itself is healthy either way — the durable
                # tier is best-effort — but a degraded tier is worth a
                # probe's visibility before it becomes silent misses.
                body["storage"] = storage
            self._send_json(200, body)
        elif path == "/readyz":
            if daemon.draining:
                self._send_json(503, {"status": "draining",
                                      "retry_after": RETRY_AFTER})
            else:
                self._send_json(200, {"status": "ready"})
        elif path == "/metrics":
            self._send_text(200, daemon.render_metrics(),
                            "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/v1/jobsets":
            self._send_json(200, {
                "jobsets": [js.summary() for js in daemon.store.all()],
                "admission": daemon.admission.snapshot()})
        elif path.startswith("/v1/jobsets/"):
            rest = path[len("/v1/jobsets/"):]
            if rest.endswith("/result"):
                status, body = daemon.jobset_result(rest[:-len("/result")])
            else:
                status, body = daemon.jobset_status(rest)
            self._send_json(status, body)
        else:
            self._send_json(404, {"error": f"no route for {path}"})

    def do_POST(self) -> None:
        daemon = self.daemon
        daemon.metrics.counter("server.http_requests").inc()
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/jobsets":
            self._send_json(404, {"error": f"no route for {path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, OSError):
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        status, body = daemon.handle_submit(payload, client=self._client())
        self._send_json(status, body)

    def do_DELETE(self) -> None:
        daemon = self.daemon
        daemon.metrics.counter("server.http_requests").inc()
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/v1/jobsets/"):
            status, body = daemon.handle_cancel(path[len("/v1/jobsets/"):])
            self._send_json(status, body)
        else:
            self._send_json(404, {"error": f"no route for {path}"})
