"""CI smoke for the serving daemon: boot, serve, scrape, drain.

Starts ``repro serve`` as a real subprocess with a journal, submits the
example smoke workload (``examples/workloads/smoke.json`` over
``examples/ontologies/clinic.gf``) through the HTTP API, polls it to
completion, checks the report verdicts against the known-good answers,
scrapes ``/metrics``, sends one client's burst of job sets that must all
be admitted and finish, then checks the one-default contract: the
transport fast-path jobs (``examples/workloads/fastpath.json``) sent
without ``options`` run on the ladder as under ``repro batch``, a
malformed option gets 400, and a job set larger than the whole queue gets
413 without ``Retry-After``.  Last it sends SIGTERM and asserts the daemon
drains cleanly (exit 0) with every finished job journaled.

Run from the repo root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# id -> verdict expected from the clinic ontology ("ok" marks an
# answer-variable query that evaluated; booleans report yes/no).
EXPECTED_VERDICTS = {
    "existential": "yes",
    "disjunction": "yes",
    "open-persons": "ok",
    "not-certain": "no",
    "open-clinicians": "ok",
}

# The burst: BURST_JOBSETS job sets of the first BURST_JOBS smoke jobs,
# sent back to back under one X-Client.  120 jobs stay below the default
# high-water mark (128 of 256 queued jobs), so admission may refuse none.
BURST_JOBSETS = 30
BURST_JOBS = 4


def fail(msg: str) -> "None":
    print(f"SERVE SMOKE FAILURE: {msg}", file=sys.stderr)
    raise SystemExit(1)


def request_with_headers(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json",
                              "X-Client": "serve-smoke"})
        resp = conn.getresponse()
        raw = resp.read()
        headers = dict(resp.getheaders())
        try:
            return resp.status, json.loads(raw), headers
        except ValueError:
            return resp.status, raw.decode("utf-8", "replace"), headers
    finally:
        conn.close()


def request(port: int, method: str, path: str, body=None):
    status, parsed, _ = request_with_headers(port, method, path, body)
    return status, parsed


def wait_result(port: int, jobset_id: str) -> dict:
    """Poll a job set until it is terminal; returns its result body."""
    deadline = time.monotonic() + 120
    while True:
        status, result = request(
            port, "GET", f"/v1/jobsets/{jobset_id}/result")
        if status == 200:
            return result
        if time.monotonic() > deadline:
            fail(f"jobset {jobset_id} did not finish: {status} {result}")
        time.sleep(0.2)


def check_one_default(port: int, ontology_text: str) -> int:
    """The daemon evaluates like ``repro batch``: the transport fast-path
    jobs without options stay on the ladder, and options are checked
    where they enter.  Returns the number of jobs it ran."""
    with open(os.path.join(ROOT, "examples", "ontologies",
                           "transport.gf")) as fh:
        transport = fh.read()
    with open(os.path.join(ROOT, "examples", "workloads",
                           "fastpath.json")) as fh:
        fastpath_jobs = json.load(fh)
    status, body = request(port, "POST", "/v1/jobsets",
                           {"ontology": transport, "jobs": fastpath_jobs})
    if status != 202:
        fail(f"transport submission refused: {status} {body}")
    result = wait_result(port, body["id"])
    if result["status"] != "done":
        fail(f"transport jobset finished {result['status']}: "
             f"{result.get('error')}")
    paths = {job["id"]: job["path"] for job in result["report"]["jobs"]}
    if not set(paths.values()) <= {"ladder", "cache"}:
        fail(f"jobs without options left the ladder: {paths}")
    print(f"no options, no fast path ok: {paths}")

    status, body = request(port, "POST", "/v1/jobsets", {
        "ontology": ontology_text, "jobs": [{"query": "q(x) <- A(x)",
                                             "facts": ["A(a)"]}],
        "options": {"chase_depth": "six"}})
    if status != 400:
        fail(f"options.chase_depth 'six' got {status}, expected 400: {body}")
    print(f"malformed option refused: {body['error']}")

    _, listing = request(port, "GET", "/v1/jobsets")
    capacity = listing["admission"]["max_queued_jobs"]
    status, body, headers = request_with_headers(
        port, "POST", "/v1/jobsets",
        {"ontology": ontology_text,
         "jobs": [{"query": "q(x) <- A(x)", "facts": [f"A(a{i})"]}
                  for i in range(capacity + 1)]})
    if status != 413 or "Retry-After" in headers:
        fail(f"{capacity + 1} jobs got {status} (Retry-After: "
             f"{headers.get('Retry-After')}), expected 413 without it")
    print(f"oversized job set refused: {body['reason']}")
    return len(fastpath_jobs)


def main() -> int:
    with open(os.path.join(ROOT, "examples", "ontologies", "clinic.gf")) as fh:
        ontology_text = fh.read()
    with open(os.path.join(ROOT, "examples", "workloads", "smoke.json")) as fh:
        jobs = json.load(fh)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_FAULTS", None)

    tmpdir = tempfile.mkdtemp(prefix="serve-smoke-")
    journal = os.path.join(tmpdir, "journal.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--journal", journal, "--drain-timeout", "60"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            fail(f"daemon did not announce its port: {line!r} "
                 f"stderr={proc.stderr.read()!r}")
        port = int(line.rsplit(":", 1)[1])
        print(f"daemon up on port {port}")

        status, body = request(port, "GET", "/healthz")
        if status != 200 or body.get("status") != "ok":
            fail(f"/healthz: {status} {body}")
        status, body = request(port, "GET", "/readyz")
        if status != 200:
            fail(f"/readyz before drain: {status} {body}")

        status, body = request(port, "POST", "/v1/jobsets",
                               {"ontology": ontology_text, "jobs": jobs})
        if status != 202:
            fail(f"submit rejected: {status} {body}")
        jobset_id = body["id"]
        print(f"accepted {jobset_id} (band={body['band']})")

        result = wait_result(port, jobset_id)
        if result["status"] != "done":
            fail(f"jobset finished {result['status']}: "
                 f"{result.get('error')}")
        verdicts = {job["id"]: job["verdict"]
                    for job in result["report"]["jobs"]}
        if verdicts != EXPECTED_VERDICTS:
            fail(f"verdicts {verdicts} != expected {EXPECTED_VERDICTS}")
        print(f"report verdicts ok: {verdicts}")

        status, text = request(port, "GET", "/metrics")
        if status != 200:
            fail(f"/metrics: {status}")
        for needle in ("repro_server_jobsets_completed 1",
                       f"repro_server_jobs_completed {len(jobs)}",
                       "repro_server_queued_jobs 0",
                       "repro_server_jobset_seconds_count 1"):
            if needle not in text:
                fail(f"/metrics missing {needle!r}:\n{text}")
        print("metrics scrape ok")

        burst = jobs[:BURST_JOBS]
        ids = []
        for n in range(BURST_JOBSETS):
            status, body = request(port, "POST", "/v1/jobsets",
                                   {"ontology": ontology_text, "jobs": burst})
            if status != 202:
                fail(f"burst submission {n + 1} refused: {status} {body}")
            ids.append(body["id"])
        for burst_id in ids:
            result = wait_result(port, burst_id)
            if result["status"] != "done":
                fail(f"burst jobset {burst_id} finished {result['status']}: "
                     f"{result.get('error')}")
            verdicts = {job["id"]: job["verdict"]
                        for job in result["report"]["jobs"]}
            expected = {job["id"]: EXPECTED_VERDICTS[job["id"]]
                        for job in burst}
            if verdicts != expected:
                fail(f"burst verdicts {verdicts} != expected {expected}")
        status, text = request(port, "GET", "/metrics")
        lines = text.splitlines() if status == 200 else []
        for kind in ("draining", "queue_full", "hard_band"):
            if f"repro_server_shed_{kind} 0" not in lines:
                fail(f"/metrics: repro_server_shed_{kind} is not 0:\n{text}")
        print(f"one-client burst ok ({BURST_JOBSETS} job sets, "
              f"{BURST_JOBSETS * len(burst)} jobs, none shed)")

        contract_jobs = check_one_default(port, ontology_text)

        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("daemon did not exit after SIGTERM")
        stderr = proc.stderr.read()
        if proc.returncode != 0:
            fail(f"daemon exit {proc.returncode}; stderr: {stderr}")
        if "drained cleanly" not in stderr:
            fail(f"no clean-drain message; stderr: {stderr}")
        print("SIGTERM drain ok")

        with open(journal) as fh:
            records = [json.loads(ln) for ln in fh if ln.strip()]
        results = [r for r in records if r.get("kind") == "job-result"]
        expected = len(jobs) + BURST_JOBSETS * BURST_JOBS + contract_jobs
        if len(results) != expected:
            fail(f"journal has {len(results)} job-results, "
                 f"expected {expected}")
        print(f"journal ok ({len(results)} job-results)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for name in os.listdir(tmpdir):
            os.unlink(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
