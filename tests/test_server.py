"""The serving daemon: admission control, overload shedding, deadlines,
drain, watchdog, journal resume — unit, in-process HTTP and real-signal
subprocess end-to-end tests (see docs/serving.md)."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.logic.ontology import ontology
from repro.resilience import RetryPolicy
from repro.server import (
    BAND_HARD, BAND_PTIME, AdmissionController, ReproServer, classify_band,
)
from repro.server.state import (
    CANCELLED, DONE, FAILED, MAX_FINISHED, QUEUED, RUNNING, JobSet,
    JobSetStore,
)
from repro.serving import comparable_report, evaluate_batch, jobs_from_entries

# A Horn ontology inside the Figure-1 DICHOTOMY band: statically PTIME.
PTIME_ONTO = ("forall x (Thumb(x) -> Finger(x))\n"
              "forall x (Finger(x) -> exists y (partOf(x,y) & Hand(y)))")
# Disjunctive (not Horn): no static PTIME proof, sheds first.
HARD_ONTO = "forall x (x = x -> (C(x) -> (A(x) | B(x))))"

PTIME_JOBS = [{"query": "q(x) <- Finger(x)", "facts": ["Thumb(t)"]}]
HARD_JOBS = [{"query": "q(x) <- A(x)", "facts": ["C(c)"]}]

# Evaluation options that compile_omq refuses: unknown names, and values
# that an older daemon coerced (int(), bool()) or forwarded unchecked.
MALFORMED_OPTIONS = [
    {"sneaky": 1},
    {"backend": "bogus"},
    {"preflight": "no"},
    {"chase_depth": "abc"},
    {"chase_depth": "6"},
    {"chase_depth": -1},
    {"chase_depth": True},
    {"sat_extra": -5},
    {"fastpath": "force"},
    {"budget": "bogus=1"},
]


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, by: float) -> None:
        self.t += by


# -- band classification ------------------------------------------------------


def test_classify_band_ptime_for_horn_dichotomy():
    band, detail = classify_band(ontology(PTIME_ONTO, name="p"))
    assert band == BAND_PTIME
    assert "PTIME" in detail


def test_classify_band_hard_for_disjunctive():
    band, detail = classify_band(ontology(HARD_ONTO, name="h"))
    assert band == BAND_HARD


def test_classify_band_is_memoized():
    onto = ontology(PTIME_ONTO, name="memo")
    assert classify_band(onto) == classify_band(onto)


# -- admission controller -----------------------------------------------------


def make_controller(**kw):
    defaults = dict(max_queued_jobs=10, high_water=0.5)
    defaults.update(kw)
    return AdmissionController(**defaults)


def test_admission_accepts_until_queue_full_then_429():
    ctl = make_controller(high_water=1.0)
    for _ in range(5):
        assert ctl.admit(2, BAND_PTIME).accepted
    decision = ctl.admit(1, BAND_PTIME)
    assert not decision.accepted
    assert decision.status == 429
    assert decision.retry_after is not None and decision.retry_after > 0
    assert "queue full" in decision.reason
    assert ctl.snapshot()["shed"]["queue_full"] == 1
    # Releasing capacity lets traffic flow again: bounded, not collapsed.
    ctl.release(2)
    assert ctl.admit(1, BAND_PTIME).accepted


def test_admission_sheds_hard_band_above_high_water_only():
    ctl = make_controller(max_queued_jobs=10, high_water=0.5)
    assert ctl.admit(5, BAND_HARD).accepted  # at high water, fine
    hard = ctl.admit(1, BAND_HARD)
    assert not hard.accepted and hard.status == 429
    assert "coNP" in hard.reason or "hard-band" in hard.reason
    # PTIME-band work keeps flowing until the queue is truly full.
    assert ctl.admit(5, BAND_PTIME).accepted
    assert not ctl.admit(1, BAND_PTIME).accepted  # now truly full
    snap = ctl.snapshot()
    assert snap["shed"]["hard_band"] == 1
    assert snap["shed"]["queue_full"] == 1


def test_admission_one_client_is_limited_by_the_queue_alone():
    # 60 back-to-back four-job submissions from one client, none released:
    # only the queue bound (and, for hard-band work, high water) refuses.
    ctl = make_controller(max_queued_jobs=256)
    for n in range(60):
        decision = ctl.admit(4, BAND_PTIME)
        assert decision.accepted, (n, decision)
    assert not ctl.admit(17, BAND_PTIME).accepted  # 240 + 17 > 256
    snap = ctl.snapshot()
    assert snap["queued_jobs"] == 240
    assert snap["shed"] == {"draining": 0, "queue_full": 1, "hard_band": 0}


def test_admission_per_client_inflight_cap():
    # There is no per-client in-flight cap: jobs in flight count against
    # the one queue, whoever sent them, until their job set releases them.
    ctl = make_controller(max_queued_jobs=100)
    assert ctl.admit(6, BAND_PTIME).accepted
    assert ctl.admit(1, BAND_PTIME).accepted
    assert ctl.admit(6, BAND_PTIME).accepted
    assert ctl.snapshot()["queued_jobs"] == 13
    ctl.release(6)
    assert ctl.admit(1, BAND_PTIME).accepted
    assert ctl.snapshot()["queued_jobs"] == 8


def test_admission_draining_returns_503():
    ctl = make_controller()
    ctl.start_drain()
    decision = ctl.admit(1, BAND_PTIME)
    assert decision.status == 503
    assert decision.retry_after is not None


def test_admission_adopt_accounts_without_checks():
    ctl = make_controller(max_queued_jobs=2)
    ctl.start_drain()
    ctl.adopt(5)  # resume path: already accepted in a previous life
    assert ctl.snapshot()["queued_jobs"] == 5


def test_refused_clients_leave_the_admission_snapshot_unchanged():
    # X-Client only labels job sets: a flood of refused submissions under
    # distinct names must not grow the snapshot that every
    # GET /v1/jobsets body carries.
    srv = ReproServer(max_queued_jobs=1)
    body = {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS}
    assert srv.handle_submit(body, client="first")[0] == 202

    def snapshot_size():
        snap = srv.admission.snapshot()
        snap.pop("shed")  # three refusal counters, whoever was refused
        return len(json.dumps(snap))

    before = snapshot_size()
    for n in range(1000):
        assert srv.handle_submit(body, client=f"client-{n}")[0] == 429
    assert srv.admission.snapshot()["shed"]["queue_full"] == 1000
    assert snapshot_size() == before


def test_admission_empty_submission_is_400():
    assert make_controller().admit(0, BAND_PTIME).status == 400


def test_admission_refuses_a_submission_larger_than_the_queue_with_413():
    # More jobs than the whole queue can never be admitted: a 429 with
    # Retry-After would have the client retry forever, even on an empty
    # queue and while draining.
    ctl = AdmissionController(max_queued_jobs=256)
    before = ctl.snapshot()
    for draining in (False, True):
        if draining:
            ctl.start_drain()
        decision = ctl.admit(300, BAND_PTIME)
        assert decision.status == 413 and not decision.accepted
        assert decision.retry_after is None
        assert "256 jobs" in decision.reason
        assert "retry_after" not in decision.to_dict()
    after = ctl.snapshot()
    assert after["queued_jobs"] == 0
    assert after["shed"] == before["shed"]
    assert ctl.admit(300, BAND_HARD).status == 413
    fresh = AdmissionController(max_queued_jobs=256)
    assert fresh.admit(256, BAND_PTIME).accepted  # exactly full fits


# -- job-set store ------------------------------------------------------------


def test_store_ids_are_unique_and_resume_safe():
    store = JobSetStore()
    first = store.next_id("deadbeefcafe")
    assert first == "js-000001-deadbeef"
    store.adopt_id("js-000041-cafecafe")
    assert store.next_id("deadbeefcafe").startswith("js-000042-")
    store.adopt_id("garbage")  # unparseable ids are ignored
    store.adopt_id("js-notanum-zz")


def _jobset(jobset_id, status=QUEUED):
    jobset = JobSet(id=jobset_id, client="c", band=BAND_PTIME,
                    band_detail="", onto=None, jobs=[], payload={})
    jobset.status = status
    return jobset


def test_store_keeps_every_live_and_the_last_finished_jobsets():
    srv = ReproServer()
    store = srv.store
    live = [_jobset("js-live-q"), _jobset("js-live-r", RUNNING)]
    for jobset in live:
        store.add(jobset)
    finished = [_jobset(f"js-{n:06d}", DONE)
                for n in range(MAX_FINISHED + 5)]
    for jobset in finished:
        store.add(jobset)
        store.finish(jobset)
    counts = store.counts()
    assert counts[DONE] == MAX_FINISHED
    assert counts[QUEUED] == 1 and counts[RUNNING] == 1
    assert all(store.get(js.id) is js for js in live)
    # The earliest-finished go first, and an evicted id reads as unknown.
    assert [store.get(js.id) for js in finished[:5]] == [None] * 5
    assert srv.jobset_result(finished[0].id)[0] == 404
    assert srv.jobset_status(finished[0].id)[0] == 404
    assert store.get(finished[5].id) is finished[5]
    assert len(store.all()) == MAX_FINISHED + len(live)


# -- the in-process daemon over HTTP ------------------------------------------


@pytest.fixture
def server(request, tmp_path):
    """A started daemon; parametrize via request.param-style helpers."""
    servers = []

    def start(**kw):
        srv = ReproServer(**kw)
        srv.start()
        servers.append(srv)
        return srv

    yield start
    for srv in servers:
        srv.stop()


def api(srv, method, path, body=None, client="test"):
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        headers = {"X-Client": client}
        data = None
        if body is not None:
            data = body if isinstance(body, (str, bytes)) else json.dumps(body)
            headers["Content-Type"] = "application/json"
        conn.request(method, path, data, headers)
        resp = conn.getresponse()
        raw = resp.read()
        resp_headers = dict(resp.getheaders())
    finally:
        conn.close()
    try:
        parsed = json.loads(raw)
    except ValueError:
        parsed = raw.decode("utf-8", "replace")
    return resp.status, parsed, resp_headers


def wait_terminal(srv, jobset_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = api(srv, "GET", f"/v1/jobsets/{jobset_id}/result")
        if status == 200:
            return body
        time.sleep(0.01)
    raise AssertionError(f"job set {jobset_id} never finished")


def gate_dispatcher(srv):
    """Block the dispatcher before it runs anything, so tests can fill
    the admission queue deterministically.  Returns the release event."""
    gate = threading.Event()
    original = srv._run_jobset

    def gated(jobset):
        gate.wait(30.0)
        original(jobset)

    srv._run_jobset = gated
    return gate


def test_submit_poll_result_end_to_end(server):
    srv = server(workers=1)
    status, body, _ = api(srv, "POST", "/v1/jobsets", {
        "ontology": PTIME_ONTO,
        "jobs": [{"query": "q(x) <- Finger(x)", "facts": ["Thumb(t1)"]},
                 {"query": "q() <- Hand(y)", "facts": ["Thumb(t1)"]}]})
    assert status == 202
    assert body["band"] == BAND_PTIME
    assert body["jobs"] == 2
    result = wait_terminal(srv, body["id"])
    assert result["status"] == DONE
    jobs = result["report"]["jobs"]
    assert [j["verdict"] for j in jobs] == ["ok", "yes"]
    assert jobs[0]["answers"] == [["t1"]]
    # Status endpoint agrees.
    status, summary, _ = api(srv, "GET", f"/v1/jobsets/{body['id']}")
    assert status == 200 and summary["completed_jobs"] == 2
    # The listing shows it too.
    status, listing, _ = api(srv, "GET", "/v1/jobsets")
    assert [js["id"] for js in listing["jobsets"]] == [body["id"]]


def test_finished_jobset_releases_its_ontology(server):
    srv = server()
    accepted = api(srv, "POST", "/v1/jobsets",
                   {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    result = wait_terminal(srv, accepted["id"])
    assert srv.store.get(accepted["id"]).onto is None
    # The report is all /result serves, and it stays.
    assert result["status"] == DONE
    assert result["report"]["jobs"][0]["answers"] == [["t"]]
    status, again, _ = api(srv, "GET", f"/v1/jobsets/{accepted['id']}/result")
    assert status == 200 and again["report"] == result["report"]


def test_health_ready_and_unknown_routes(server):
    srv = server()
    assert api(srv, "GET", "/healthz")[0] == 200
    assert api(srv, "GET", "/readyz")[0] == 200
    assert api(srv, "GET", "/nope")[0] == 404
    assert api(srv, "POST", "/nope", {})[0] == 404
    assert api(srv, "DELETE", "/nope")[0] == 404
    assert api(srv, "GET", "/v1/jobsets/zzz")[0] == 404
    assert api(srv, "GET", "/v1/jobsets/zzz/result")[0] == 404
    assert api(srv, "DELETE", "/v1/jobsets/zzz")[0] == 404


def test_keep_alive_responses_are_not_held_back(server):
    # Headers and body sent as two small writes let Nagle's algorithm hold
    # the body until the client's delayed ACK (about 40 ms per response).
    srv = server()
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        times = []
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", "/readyz")
            resp = conn.getresponse()
            resp.read()
            times.append(time.perf_counter() - start)
            assert resp.status == 200
    finally:
        conn.close()
    times.sort()
    median_ms = 1000 * (times[9] + times[10]) / 2
    assert median_ms < 20, median_ms


def test_bad_submissions_are_400(server, tmp_path):
    journal = tmp_path / "serve.jsonl"
    srv = server(journal=str(journal))
    cases = [
        "{not json",
        {"jobs": PTIME_JOBS},  # no ontology
        {"ontology": "forall x (", "jobs": PTIME_JOBS},  # parse error
        {"ontology": PTIME_ONTO, "jobs": []},
        {"ontology": PTIME_ONTO, "jobs": [{"facts": ["A(a)"]}]},  # no query
        {"ontology": PTIME_ONTO,  # server-side paths refused
         "jobs": [{"query": "q(x) <- A(x)", "data": "/etc/passwd"}]},
        {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS, "deadline": -1},
        {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS, "deadline": "soon"},
        {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS, "options": []},
    ] + [
        # Every malformed evaluation option is refused where it enters,
        # never coerced: a forced fast path would skip the static PTIME
        # proof, and bool("no") is True.
        {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS, "options": options}
        for options in MALFORMED_OPTIONS
    ]
    for payload in cases:
        status, body, _ = api(srv, "POST", "/v1/jobsets", payload)
        assert status == 400, payload
        assert "error" in body
    # dl is a JSON boolean and deadline a finite positive JSON number,
    # never coerced: bool("false") is True, and a NaN deadline never fires.
    for field, value in [("deadline", "nan"), ("deadline", "inf"),
                         ("deadline", True), ("deadline", "30"),
                         ("deadline", float("nan")),
                         ("deadline", float("inf")),
                         ("dl", 0), ("dl", "false")]:
        status, body, _ = api(srv, "POST", "/v1/jobsets", {
            "ontology": PTIME_ONTO, "jobs": PTIME_JOBS, field: value})
        assert status == 400, (field, value)
        assert f"'{field}'" in body["error"], body
    assert api(srv, "GET", "/v1/jobsets")[1]["jobsets"] == []
    assert srv.admission.snapshot()["queued_jobs"] == 0
    srv.stop()
    kinds = [json.loads(line).get("kind")
             for line in journal.read_text().splitlines()]
    assert kinds == ["journal-header"]  # nothing journaled


def test_served_jobs_evaluate_like_repro_batch(server):
    # The daemon has no evaluation defaults of its own: without options a
    # PTIME-band unary job set runs on the ladder, as `repro batch` does,
    # and options.fastpath "auto" opts into the Theorem 5 fast path.
    onto = (REPO / "examples" / "ontologies" / "transport.gf").read_text()
    entries = json.loads(
        (REPO / "examples" / "workloads" / "fastpath.json").read_text())
    reports = []
    for options in ({}, {"fastpath": "auto"}):
        srv = server()
        payload = {"ontology": onto, "jobs": entries}
        if options:
            payload["options"] = options
        status, accepted, _ = api(srv, "POST", "/v1/jobsets", payload)
        assert status == 202 and accepted["band"] == BAND_PTIME
        result = wait_terminal(srv, accepted["id"])
        assert result["status"] == DONE
        reports.append(result["report"])
        srv.stop()
    default, auto = ({job["id"]: job for job in report["jobs"]}
                     for report in reports)
    assert comparable_report(reports[0]) == comparable_report(reports[1])
    assert {job["path"] for job in default.values()} <= {"ladder", "cache"}
    for job_id in ("nodes-closure", "hubs", "terminals"):
        assert default[job_id]["path"] == "ladder"
        assert auto[job_id]["path"] == "fastpath"


def test_daemon_retries_a_starved_job_under_an_escalated_budget(
        server, no_ambient_faults):
    # Three thumbs need three nulls: options.budget starves the first
    # attempt, and the daemon's retry policy reruns the job at once under
    # a sixteen times larger budget.
    srv = server(retry=RetryPolicy(max_attempts=2, escalation=16))
    status, accepted, _ = api(srv, "POST", "/v1/jobsets", {
        "ontology": PTIME_ONTO,
        "jobs": [{"query": "q(x) <- partOf(x,y) & Hand(y)",
                  "facts": ["Thumb(t1)", "Thumb(t2)", "Thumb(t3)"]}],
        "options": {"budget": "nulls=2,chase_steps=2,conflicts=2,"
                              "escalate=false"}})
    assert status == 202
    result = wait_terminal(srv, accepted["id"])
    assert result["status"] == DONE
    [job] = result["report"]["jobs"]
    assert job["status"] == "ok"
    assert job["answers"] == [["t1"], ["t2"], ["t3"]]
    assert [a["status"] for a in job["attempts"]] == ["unknown", "ok"]
    assert result["report"]["stats"]["resilience"]["retries"] == 1


def _pigeonhole_job(pigeons: int = 9, holes: int = 8) -> tuple[str, dict]:
    """More pigeons than holes: D is inconsistent, the chase runs out of
    branches, and the SAT rung's refutation takes about a minute."""
    onto = ["forall x (P(x) -> "
            + " | ".join(f"H{h}(x)" for h in range(holes)) + ")"]
    onto += [f"forall x,y (N(x,y) -> (H{h}(x) -> ~H{h}(y)))"
             for h in range(holes)]
    facts = [f"P(p{i})" for i in range(pigeons)]
    facts += [f"N(p{i},p{j})" for i in range(pigeons)
              for j in range(i + 1, pigeons)]
    return "\n".join(onto), {"query": "q() <- Z(x)", "facts": facts}


def test_deadline_bounds_the_retries_of_a_job_set(server, no_ambient_faults):
    # Under the retry policy the second attempt gets a sixteen times
    # larger budget, but not past the job set's deadline.
    deadline, checkpoint = 0.5, 0.25
    srv = server(retry=RetryPolicy(max_attempts=2, escalation=16))
    onto, job = _pigeonhole_job()
    start = time.monotonic()
    status, accepted, _ = api(srv, "POST", "/v1/jobsets", {
        "ontology": onto, "jobs": [job], "deadline": deadline})
    assert status == 202
    result = wait_terminal(srv, accepted["id"])
    assert time.monotonic() - start < deadline + checkpoint + 0.25
    [job] = result["report"]["jobs"]
    assert job["status"] == "unknown"
    assert job["outcome"]["reason"].startswith(
        "resource_exhausted: deadline")
    assert [a["status"] for a in job["attempts"]] == ["unknown", "unknown"]
    assert sum(a["elapsed"] for a in job["attempts"]) < deadline + checkpoint


def test_submission_larger_than_the_queue_is_413_without_retry_after(
        server):
    srv = server(max_queued_jobs=2)
    status, body, headers = api(srv, "POST", "/v1/jobsets", {
        "ontology": PTIME_ONTO, "jobs": PTIME_JOBS * 3})
    assert status == 413
    assert "Retry-After" not in headers
    assert "(2 jobs)" in body["reason"]
    assert srv.store.all() == []
    assert srv.admission.snapshot()["queued_jobs"] == 0
    status, accepted, _ = api(srv, "POST", "/v1/jobsets", {
        "ontology": PTIME_ONTO, "jobs": PTIME_JOBS * 2})
    assert status == 202
    assert wait_terminal(srv, accepted["id"])["status"] == DONE


def test_queue_full_returns_429_with_retry_after(server):
    srv = server(max_queued_jobs=2, high_water=1.0)
    gate = gate_dispatcher(srv)
    body = {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS}
    ids = []
    for _ in range(2):
        status, accepted, _ = api(srv, "POST", "/v1/jobsets", body)
        assert status == 202
        ids.append(accepted["id"])
    status, rejected, headers = api(srv, "POST", "/v1/jobsets", body)
    assert status == 429
    assert "Retry-After" in headers
    assert int(headers["Retry-After"]) >= 1
    assert "queue full" in rejected["reason"]
    gate.set()
    for jobset_id in ids:
        assert wait_terminal(srv, jobset_id)["status"] == DONE
    # Capacity came back: the queue is bounded, not collapsed.
    status, _, _ = api(srv, "POST", "/v1/jobsets", body)
    assert status == 202


def test_overload_sheds_hard_band_before_ptime_band(server):
    srv = server(max_queued_jobs=4, high_water=0.5)
    gate = gate_dispatcher(srv)
    ptime = {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS}
    hard = {"ontology": HARD_ONTO, "jobs": HARD_JOBS}
    assert api(srv, "POST", "/v1/jobsets", ptime)[0] == 202
    assert api(srv, "POST", "/v1/jobsets", hard)[0] == 202  # at high water
    # Above high water: potentially-coNP work sheds first...
    status, rejected, headers = api(srv, "POST", "/v1/jobsets", hard)
    assert status == 429 and "Retry-After" in headers
    assert "hard-band" in rejected["reason"] or "coNP" in rejected["reason"]
    assert rejected["band"] == BAND_HARD
    # ...while statically-PTIME traffic keeps flowing.
    assert api(srv, "POST", "/v1/jobsets", ptime)[0] == 202
    assert api(srv, "POST", "/v1/jobsets", ptime)[0] == 202  # truly full now
    assert api(srv, "POST", "/v1/jobsets", ptime)[0] == 429
    gate.set()


def test_cancel_queued_jobset(server):
    srv = server(max_queued_jobs=10)
    gate = gate_dispatcher(srv)
    running = api(srv, "POST", "/v1/jobsets",
                  {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    queued = api(srv, "POST", "/v1/jobsets",
                 {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    status, body, _ = api(srv, "DELETE", f"/v1/jobsets/{queued['id']}")
    assert status == 200 and body["status"] == CANCELLED
    # Terminal: cancelling again conflicts.
    assert api(srv, "DELETE", f"/v1/jobsets/{queued['id']}")[0] == 409
    gate.set()
    assert wait_terminal(srv, running["id"])["status"] == DONE
    status, body, _ = api(srv, "GET", f"/v1/jobsets/{queued['id']}/result")
    assert status == 200 and body["status"] == CANCELLED
    assert "report" not in body


def test_deadline_expired_while_queued_fails_without_running(server):
    srv = server()
    gate = gate_dispatcher(srv)
    accepted = api(srv, "POST", "/v1/jobsets", {
        "ontology": PTIME_ONTO, "jobs": PTIME_JOBS, "deadline": 0.05})[1]
    time.sleep(0.15)
    gate.set()
    result = wait_terminal(srv, accepted["id"])
    assert result["status"] == FAILED
    assert "deadline" in result["error"]
    assert "report" not in result


def test_drain_finishes_accepted_work_and_refuses_new(server):
    srv = server(max_queued_jobs=10)
    gate = gate_dispatcher(srv)
    body = {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS}
    ids = [api(srv, "POST", "/v1/jobsets", body)[1]["id"] for _ in range(2)]
    srv.begin_drain()
    status, rejected, headers = api(srv, "POST", "/v1/jobsets", body)
    assert status == 503 and "Retry-After" in headers
    assert api(srv, "GET", "/readyz")[0] == 503
    assert api(srv, "GET", "/healthz")[0] == 200  # alive, just not ready
    gate.set()
    assert srv.drain(timeout=30.0)
    for jobset_id in ids:
        assert wait_terminal(srv, jobset_id)["status"] == DONE


def test_metrics_endpoint_renders_prometheus(server):
    srv = server()
    accepted = api(srv, "POST", "/v1/jobsets",
                   {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    wait_terminal(srv, accepted["id"])
    status, text, headers = api(srv, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "# TYPE repro_server_jobsets_accepted counter" in text
    assert "repro_server_jobsets_accepted 1" in text
    assert "repro_server_jobsets_completed 1" in text
    assert "# TYPE repro_server_jobset_seconds summary" in text
    assert "repro_server_queued_jobs 0" in text
    assert "repro_server_draining 0" in text
    assert "repro_cache_plan_size" in text
    assert "repro_cache_conversion_size" in text
    assert "repro_cache_answer_hits" in text


# -- watchdog -----------------------------------------------------------------


class _FakeProcess:
    def __init__(self):
        self.killed = False

    def kill(self):
        self.killed = True


class _FakePool:
    workers = 2

    def __init__(self):
        self._pool = type("E", (), {})()
        self._pool._processes = {1: _FakeProcess(), 2: _FakeProcess()}

    def stats(self):
        return {"pool_deaths": 0}

    def close(self):
        pass


def test_watchdog_kills_wedged_pool_once_per_window():
    clock = FakeClock()
    srv = ReproServer(wedge_timeout=10.0, clock=clock)
    srv.pool = _FakePool()
    from repro.server.state import JobSet

    jobset = JobSet(id="js-1", client="c", band=BAND_PTIME, band_detail="",
                    onto=ontology(PTIME_ONTO, name="w"), jobs=[],
                    payload={}, submitted=clock())
    jobset.status = RUNNING
    srv.store.add(jobset)
    srv._heartbeat = clock()
    clock.advance(5.0)
    assert srv.check_wedged() == 0  # within the window: no kill
    clock.advance(6.0)
    assert srv.check_wedged() == 2  # wedged: both workers killed
    assert srv.watchdog_pool_kills == 1
    assert all(p.killed for p in srv.pool._pool._processes.values())
    assert srv.check_wedged() == 0  # heartbeat reset: one kill per window
    clock.advance(11.0)
    jobset.status = DONE
    assert srv.check_wedged() == 0  # nothing running: never kill idle pools


def test_watchdog_noop_without_pool():
    srv = ReproServer(clock=FakeClock())
    assert srv.check_wedged() == 0


# -- journal + resume (in-process) --------------------------------------------


def test_daemon_journal_resume_reproduces_report(tmp_path, server):
    journal = str(tmp_path / "serve.jsonl")
    jobs = [{"query": "q(x) <- Finger(x)", "facts": [f"Thumb(t{i})"]}
            for i in range(3)]
    first = server(journal=journal)
    accepted = api(first, "POST", "/v1/jobsets",
                   {"ontology": PTIME_ONTO, "jobs": jobs})[1]
    original = wait_terminal(first, accepted["id"])
    first.stop()

    lines = [json.loads(l) for l in Path(journal).read_text().splitlines()]
    kinds = [r.get("kind") for r in lines]
    assert kinds[0] == "journal-header"
    assert kinds.count("jobset") == 1
    assert kinds.count("job-result") == 3

    second = server(journal=journal, resume=True)
    resumed = wait_terminal(second, accepted["id"])
    assert resumed["resumed"] is True
    assert (comparable_report(resumed["report"])
            == comparable_report(original["report"]))
    # Every job replayed from the journal, none recomputed.
    assert all(j.get("resumed") for j in resumed["report"]["jobs"])
    # Fresh submissions get ids past the resumed ones.
    fresh = api(second, "POST", "/v1/jobsets",
                {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    assert fresh["id"] != accepted["id"]
    wait_terminal(second, fresh["id"])


def test_daemon_resume_skips_cancelled_jobsets(tmp_path, server):
    journal = str(tmp_path / "serve.jsonl")
    first = server(journal=journal, max_queued_jobs=10)
    gate = gate_dispatcher(first)
    running = api(first, "POST", "/v1/jobsets",
                  {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    cancelled = api(first, "POST", "/v1/jobsets",
                    {"ontology": PTIME_ONTO, "jobs": PTIME_JOBS})[1]
    api(first, "DELETE", f"/v1/jobsets/{cancelled['id']}")
    gate.set()
    wait_terminal(first, running["id"])
    first.stop()

    second = server(journal=journal, resume=True)
    assert wait_terminal(second, running["id"])["status"] == DONE
    status, body, _ = api(second, "GET",
                          f"/v1/jobsets/{cancelled['id']}/result")
    assert status == 200 and body["status"] == CANCELLED


def write_journal(path, jobsets, results=(), deadline=None):
    """A daemon journal holding *jobsets* (id, ontology, jobs, band,
    options), each with *deadline*, and *results* (jobset id, job key,
    JobResult)."""
    from repro.resilience import Journal

    with Journal(path) as log:
        for jobset_id, onto, jobs, band, options in jobsets:
            log.append({"kind": "jobset", "id": jobset_id, "client": "test",
                        "band": band,
                        "payload": {"ontology": onto, "dl": False,
                                    "jobs": jobs, "options": options,
                                    "deadline": deadline}})
        for jobset_id, key, result in results:
            log.append({"kind": "job-result", "jobset": jobset_id,
                        "key": key, "result": result.to_dict()})


def test_resume_reruns_a_journaled_force_jobset_under_the_defaults(
        tmp_path, server):
    # A journal from a daemon that still accepted options.fastpath
    # "force": a forced hard-band job set with one journaled (wrong)
    # answer, then an ordinary job set.
    from repro.serving import JobResult, job_key

    journal = str(tmp_path / "serve.jsonl")
    [forced_job] = jobs_from_entries(HARD_JOBS)
    wrong = JobResult(index=0, job_id=forced_job.job_id,
                      query=forced_job.query, data=forced_job.data_ref(),
                      status="ok", verdict="ok", answers=(("c",),),
                      path="fastpath")
    write_journal(
        journal,
        [("js-000001-forced", HARD_ONTO, HARD_JOBS, BAND_HARD,
          {"fastpath": "force"}),
         ("js-000002-plain", PTIME_ONTO, PTIME_JOBS, BAND_PTIME, {})],
        [("js-000001-forced", job_key(0, forced_job), wrong)])

    srv = server(journal=journal, resume=True)
    forced = wait_terminal(srv, "js-000001-forced")
    assert forced["status"] == DONE and forced["resumed"] is True
    [job] = forced["report"]["jobs"]
    # Recomputed without its options, on the ladder, and C(c) does not
    # make A(c) certain.
    assert job["answers"] == [] and job["path"] == "ladder"
    assert not job.get("resumed")
    plain = wait_terminal(srv, "js-000002-plain")
    assert plain["status"] == DONE
    assert plain["report"]["jobs"][0]["answers"] == [["t"]]


def test_resume_reruns_a_jobset_journaled_with_coerced_options(
        tmp_path, server):
    # An older daemon accepted strings and coerced them: int("6") and
    # bool("no"), which turned preflight on.  The check refuses both now,
    # so the job set is re-adopted under the defaults and recomputed in
    # full; its journaled answer (wrong on purpose) is not served again.
    from repro.serving import JobResult, job_key

    journal = str(tmp_path / "serve.jsonl")
    jobs = [{"query": "q(x) <- Finger(x)", "facts": ["Thumb(t1)"]},
            {"query": "q() <- Hand(y)", "facts": ["Thumb(t1)"]}]
    first = jobs_from_entries(jobs)[0]
    wrong = JobResult(index=0, job_id=first.job_id, query=first.query,
                      data=first.data_ref(), status="ok", verdict="ok",
                      answers=(("nobody",),))
    write_journal(
        journal,
        [("js-000001-coerced", PTIME_ONTO, jobs, BAND_PTIME,
          {"chase_depth": "6", "preflight": "no", "budget": "timeout=60"})],
        [("js-000001-coerced", job_key(0, first), wrong)])

    srv = server(journal=journal, resume=True)
    result = wait_terminal(srv, "js-000001-coerced")
    assert result["status"] == DONE and result["resumed"] is True
    assert [j["answers"] for j in result["report"]["jobs"]] == [[["t1"]], []]
    assert [j["verdict"] for j in result["report"]["jobs"]] == ["ok", "yes"]
    assert not any(j.get("resumed") for j in result["report"]["jobs"])
    jobset = srv.store.get("js-000001-coerced")
    assert jobset.options == {} and jobset.budget == "timeout=60"


@pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
def test_resume_drops_a_journaled_deadline_that_is_not_finite(
        tmp_path, server, deadline):
    # An older daemon took "nan" and "inf" as deadlines and journaled
    # them as floats.  They never bounded anything, so the daemon still
    # starts, without them, and serves the journaled answer.
    from repro.serving import JobResult, job_key

    journal = str(tmp_path / "serve.jsonl")
    [job] = jobs_from_entries(PTIME_JOBS)
    done = JobResult(index=0, job_id=job.job_id, query=job.query,
                     data=job.data_ref(), status="ok", verdict="ok",
                     answers=(("t",),))
    write_journal(
        journal, [("js-000001-unbounded", PTIME_ONTO, PTIME_JOBS,
                   BAND_PTIME, {})],
        [("js-000001-unbounded", job_key(0, job), done)],
        deadline=deadline)

    srv = server(journal=journal, resume=True)
    result = wait_terminal(srv, "js-000001-unbounded")
    assert result["status"] == DONE and "deadline" not in result
    [resumed] = result["report"]["jobs"]
    assert resumed["resumed"] is True and resumed["answers"] == [["t"]]
    assert srv.store.get("js-000001-unbounded").deadline is None


# -- real-signal subprocess end-to-end ----------------------------------------

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

E2E_ONTOLOGY = (
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))\n")


def e2e_workload(n_jobs=6, poison_at=3):
    entries = []
    for i in range(n_jobs):
        if i == poison_at:
            entries.append({"query": "q(y) <- Digit(y)", "id": "poison",
                            "facts": ["Hand(a)", "Hand(b)", "Hand(c)"]})
        else:
            entries.append({"query": "q(x) <- Hand(x)", "id": f"j{i}",
                            "facts": [f"Hand(h{i})"]})
    return entries


def serve_env(faults=None):
    env = dict(os.environ)
    for var in ("REPRO_FAULTS", "REPRO_BUDGET", "REPRO_TIMEOUT"):
        env.pop(var, None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def start_serve(args, faults=None):
    """Start ``repro serve`` and return (process, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=serve_env(faults), cwd=str(REPO))
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise AssertionError(f"daemon never came up: {line!r} / "
                             f"{proc.stderr.read()[:2000]}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


def post_jobset(port, payload, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/jobsets", json.dumps(payload),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def get_json(port, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def journal_records(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines()
            if l.strip()]


def test_sigterm_drains_accepted_jobs_then_exits_zero(tmp_path):
    journal = str(tmp_path / "serve.jsonl")
    proc, port = start_serve(["--journal", journal])
    try:
        status, accepted = post_jobset(port, {
            "ontology": E2E_ONTOLOGY, "jobs": e2e_workload()})
        assert status == 202
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "drained cleanly" in err
    # No accepted job was lost: all six results hit the journal before exit.
    records = journal_records(journal)
    results = [r for r in records if r.get("kind") == "job-result"
               and r.get("jobset") == accepted["id"]]
    assert len(results) == 6


def test_hard_kill_then_resume_serves_identical_report(tmp_path):
    """The daemon dies mid-batch (injected hard kill — same no-cleanup
    death as SIGKILL, but deterministic); restarted with --journal
    --resume it serves a report comparable_report-equal to an
    uninterrupted run's."""
    journal = str(tmp_path / "serve.jsonl")
    entries = e2e_workload()

    # Ground truth: the same workload, uninterrupted, in-process.
    onto = ontology(E2E_ONTOLOGY, name="e2e")
    reference = evaluate_batch(onto, jobs_from_entries(entries),
                               fastpath="off")

    proc, port = start_serve(["--journal", journal],
                             faults="kill:chase_truncate:@3")
    try:
        # The kill can fire before the 202 is even written (the dispatcher
        # races the response); the journaled jobset record is the durable
        # source of truth for the id either way.
        try:
            status, accepted = post_jobset(port, {
                "ontology": E2E_ONTOLOGY, "jobs": entries})
            assert status == 202
        except (http.client.HTTPException, ConnectionError, OSError):
            pass
        proc.wait(timeout=120)  # the injected kill fires mid-batch
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    from repro.runtime.faults import KILL_EXIT_CODE
    assert proc.returncode == KILL_EXIT_CODE

    records = journal_records(journal)
    submitted = [r for r in records if r.get("kind") == "jobset"]
    assert len(submitted) == 1
    accepted = {"id": submitted[0]["id"]}
    finished = [r for r in records if r.get("kind") == "job-result"]
    assert 1 <= len(finished) < 6, "expected a mid-batch death"

    proc, port = start_serve(["--journal", journal, "--resume"])
    try:
        deadline = time.monotonic() + 60
        body = None
        while time.monotonic() < deadline:
            status, body = get_json(
                port, f"/v1/jobsets/{accepted['id']}/result")
            if status == 200:
                break
            time.sleep(0.05)
        assert body is not None and body["status"] == DONE, body
        assert body["resumed"] is True
        assert (comparable_report(body["report"])
                == comparable_report(reference.to_dict()))
        replayed = [j for j in body["report"]["jobs"] if j.get("resumed")]
        assert len(replayed) == len(finished)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# -- the storage health probe (ISSUE 10, satellite 3) -------------------------


def test_healthz_without_backend_omits_storage(server):
    srv = server()
    assert srv.storage_health() is None
    status, body, _ = api(srv, "GET", "/healthz")
    assert status == 200 and "storage" not in body


def test_healthz_storage_ok_and_probe_leaves_no_trace(server, tmp_path):
    srv = server(cache_backend=f"sqlite:{tmp_path}/c.db")
    status, body, _ = api(srv, "GET", "/healthz")
    assert status == 200 and body["status"] == "ok"
    assert body["storage"] == "ok"
    backend = srv.answer_cache.backend
    assert backend.get(srv.PROBE_KEY) is None  # sentinel cleaned up
    _, text, _ = api(srv, "GET", "/metrics")
    assert "repro_storage_healthy 1" in text


def test_healthz_storage_degraded_on_bad_round_trip(
        server, tmp_path, monkeypatch):
    srv = server(cache_backend=f"dir:{tmp_path}/d")
    backend = srv.answer_cache.backend
    # A backend that stores but reads back something else: the sentinel
    # round-trip must notice, and the daemon must stay up (degraded is a
    # report, not a failure).
    monkeypatch.setattr(backend, "get",
                        lambda key, default=None: {"verdict": "stale"})
    assert srv.storage_health() == "degraded"
    status, body, _ = api(srv, "GET", "/healthz")
    assert status == 200 and body["storage"] == "degraded"
    _, text, _ = api(srv, "GET", "/metrics")
    assert "repro_storage_healthy 0" in text


def test_healthz_storage_degraded_on_probe_error(
        server, tmp_path, monkeypatch):
    srv = server(cache_backend=f"sqlite:{tmp_path}/c.db")
    backend = srv.answer_cache.backend

    def boom(key, value):
        raise OSError("disk on fire")

    monkeypatch.setattr(backend, "put", boom)
    assert srv.storage_health() == "degraded"
    status, body, _ = api(srv, "GET", "/healthz")
    assert status == 200 and body["storage"] == "degraded"
