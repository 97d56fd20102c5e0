"""The serve workload: a ``python -m repro serve`` daemon at its defaults.

The daemon gets ``--port 0`` and a fresh ``sqlite:`` tier and otherwise
runs as users start it: ``fastpath="auto"``, one in-process worker, the
default admission limits.  One client process drives it in three phases:

1. the *first jobset*, one job per query of the run, so its time holds
   every plan compile (Theorem 5 type enumeration, program optimization);
2. an open loop: jobsets are due at seeded gaps, ``RATE`` per second on
   average, whatever the daemon's progress.  A submitter thread sends them
   and a poller thread watches for results, each on its own connection;
   latency runs from the due time to the observed result;
3. a closed loop of two connections, each sending its next jobset once
   its previous one finished.

Later jobsets hold 1-4 jobs over the compiled queries.  Half repeat
an instance already sent (an answer-cache hit), the rest take a fresh
generated instance (a fast-path evaluation and a tier write).  Jobsets
rotate over ``CLIENTS`` ``X-Client`` names so that the per-client token
bucket (50 jobs/s by default) is not what gets measured.

The ontology is one 3-level class of the generator: compiling ten queries
over a 4-level ontology takes 70-85 s, longer than a run.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import layers
import speed
from repro.serving import Job, evaluate_batch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Open-loop jobsets per second: about half of what the closed loop
#: completed at the commit that added the benchmark (2-core x86_64 VM).
RATE = 10.0
CLIENTS = 8
POLL_S = 0.005
FIRST_POLL_S = 0.05
OPEN_SHARE = 0.5     # of --seconds
CLOSED_SHARE = 0.15  # of --seconds
#: Distinct served (query, instance) pairs re-answered by the ladder.
LADDER_SAMPLE = 150
#: Jobset sizes, and whether a job takes a fresh instance, are drawn from
#: seeded shuffles of these blocks (as are the queries of fresh jobs), so
#: every run sends the same mix in its own order.  With independent draws
#: the mix of one open loop, and with it the median latency, moved from
#: seed to seed by about the benchmark's bound.
SIZES = (1, 2, 3, 4)
FRESH = (True, False)

now = time.perf_counter


@dataclass(frozen=True)
class Scale:
    queries_per_shape: int = 2
    pool: int = 1500   # generated jobs; their instances feed the loops
    setups: int = 5    # set-ups per run; setup_s is their median


TINY = Scale(queries_per_shape=1, pool=60, setups=1)


def generate(scale: Scale):
    """The generated workload: one 3-level horn ontology class, drawn from
    the panel seed; the run's seed decides the traffic."""
    return inputs.stratified(inputs.PANEL_SEED, {"family": "horn"}, (3,),
                             jobs=scale.pool, classes=1)[0]


class Traffic:
    """The jobs a run sends, a pure function of the seed."""

    def __init__(self, workload, scale: Scale, seed: int):
        first, seen = [], {}
        for job in workload.jobs:
            shape = job["id"].split("-")[0]
            queries = seen.setdefault(shape, set())
            if (job["query"] not in queries
                    and len(queries) < scale.queries_per_shape):
                queries.add(job["query"])
                first.append(job)
        self.ontology = workload.ontology_text
        self.first = [{"id": f"first-{i}", "query": j["query"],
                       "facts": j["facts"]} for i, j in enumerate(first)]
        self.queries = [j["query"] for j in first]
        self._fresh = iter([j["facts"] for j in workload.jobs
                            if j not in first])
        self._sent = [(j["query"], tuple(j["facts"])) for j in first]
        self._rng = random.Random(seed)
        self._bags: dict[tuple, list] = {}
        self.arrivals = random.Random(f"{seed}-arrivals")
        self._count = 0

    def _draw(self, block: tuple):
        """The next value of a seeded shuffle of *block*, reshuffled each
        time it runs out."""
        bag = self._bags.setdefault(block, [])
        if not bag:
            bag.extend(self._rng.sample(block, len(block)))
        return bag.pop()

    def jobset(self) -> list[dict]:
        out = []
        for _ in range(self._draw(SIZES)):
            facts = next(self._fresh, None) if self._draw(FRESH) else None
            if facts is None:
                query, facts = self._rng.choice(self._sent)
            else:
                query = self._draw(tuple(self.queries))
                self._sent.append((query, tuple(facts)))
            self._count += 1
            out.append({"id": f"j{self._count}", "query": query,
                        "facts": list(facts)})
        return out


class Conn:
    """One keep-alive HTTP connection to the daemon.

    The daemon writes a response's headers and body as two segments, so
    on a keep-alive connection the body waits, under Nagle's algorithm,
    for the client's delayed ACK of the headers: a ``/readyz`` round trip
    took 41.7-42 ms, against 0.6-1.1 ms with ``TCP_QUICKACK`` set before
    each response and 0.9-1.9 ms on fresh connections.  Latency measured
    through those stalls counts them, and its median spread from seed to
    seed by about a fifth, so every call asks for a quick ACK.
    """

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body=None, client: str = ""):
        headers = {"X-Client": client} if client else {}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        self.http.request(method, path, body=data, headers=headers)
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        resp = self.http.getresponse()
        raw = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(raw)
        return resp.status, raw.decode()

    def close(self) -> None:
        self.http.close()


@dataclass
class Sent:
    """One jobset as the client saw it (perf_counter times)."""

    jobs: list
    client: str
    due: float = 0.0
    sent: float = 0.0
    acked: float = 0.0
    done: float = 0.0
    status: int = 0
    id: str = ""
    body: dict | None = None

    def submit(self, conn: Conn, ontology: str) -> bool:
        self.sent = now()
        self.status, body = conn.call(
            "POST", "/v1/jobsets", {"ontology": ontology, "jobs": self.jobs},
            client=self.client)
        self.acked = now()
        if self.status == 202:
            self.id = body["id"]
        return self.status == 202

    def poll(self, conn: Conn) -> bool:
        status, body = conn.call("GET", f"/v1/jobsets/{self.id}/result")
        if status == 202:
            return False
        self.done, self.body = now(), body
        return True

    def wait(self, conn: Conn, interval: float = POLL_S) -> None:
        while not self.poll(conn):
            time.sleep(interval)


def client_name(n: int) -> str:
    return f"bench-{n % CLIENTS}"


class Daemon:
    """``repro serve`` in a subprocess, ready once ``/readyz`` says 200.

    The environment is this process's, which ``run.py`` already cleared
    of the ``REPRO_*`` settings; *launcher* runs it through
    ``launcher.py`` with the layer wrappers installed.
    """

    def __init__(self, workdir: Path, totals: Path | None = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.tier = workdir / "tier.sqlite"
        args = ["serve", "--port", "0", "--cache-backend", f"sqlite:{self.tier}"]
        cmd = ([sys.executable, str(HERE / "launcher.py"), str(totals), *args]
               if totals is not None else [sys.executable, "-m", "repro", *args])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.log = open(workdir / "daemon.log", "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=self.log)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"daemon did not start: {line!r}, see "
                                   f"{workdir / 'daemon.log'}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            conn = Conn(self.port)
            try:
                while conn.call("GET", "/readyz")[0] != 200:
                    time.sleep(0.01)
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits); kill after a minute."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def first_jobset(daemon: Daemon, traffic: Traffic) -> tuple[Sent, float]:
    conn = Conn(daemon.port)
    try:
        rec = Sent(jobs=traffic.first, client=client_name(0))
        if not rec.submit(conn, traffic.ontology):
            raise RuntimeError(f"first jobset refused: HTTP {rec.status}")
        # Polled sparsely: the daemon's request threads take the
        # interpreter lock from the compile.
        rec.wait(conn, interval=FIRST_POLL_S)
    finally:
        conn.close()
    return rec, rec.done - rec.sent


def open_loop(daemon: Daemon, traffic: Traffic, duration: float) -> list[Sent]:
    plan, offset = [], 0.0
    while True:
        # Gaps uniform in [0.5, 1.5] / RATE: seeded, but less bursty than
        # exponential gaps, so the latency percentiles settle in one run.
        offset += traffic.arrivals.uniform(0.5, 1.5) / RATE
        if offset >= duration:
            break
        plan.append(Sent(jobs=traffic.jobset(), client=client_name(len(plan)),
                         due=offset))
    start = now() + 0.05
    for rec in plan:
        rec.due += start
    accepted: queue.Queue = queue.Queue()
    errors: list[BaseException] = []

    def submitter() -> None:
        conn = Conn(daemon.port)
        try:
            for rec in plan:
                delay = rec.due - now()
                if delay > 0:
                    time.sleep(delay)
                if rec.submit(conn, traffic.ontology):
                    accepted.put(rec)
        except BaseException as exc:  # re-raised by the poller below
            errors.append(exc)
        finally:
            accepted.put(None)
            conn.close()

    thread = threading.Thread(target=submitter, name="bench-submitter")
    thread.start()
    conn = Conn(daemon.port)
    try:
        outstanding, sending = [], True
        while sending or outstanding:
            while True:
                try:
                    rec = accepted.get_nowait()
                except queue.Empty:
                    break
                if rec is None:
                    sending = False
                else:
                    outstanding.append(rec)
            outstanding = [rec for rec in outstanding if not rec.poll(conn)]
            time.sleep(POLL_S)
    finally:
        thread.join()
        conn.close()
    if errors:
        raise errors[0]
    return plan


def closed_loop(daemon: Daemon, traffic: Traffic,
                duration: float) -> tuple[list[Sent], float]:
    lock = threading.Lock()
    records: list[Sent] = []
    errors: list[BaseException] = []
    start = now()
    end = start + duration

    def worker() -> None:
        conn = Conn(daemon.port)
        try:
            while now() < end:
                with lock:
                    rec = Sent(jobs=traffic.jobset(),
                               client=client_name(len(records)))
                    records.append(rec)
                if rec.submit(conn, traffic.ontology):
                    rec.wait(conn)
        except BaseException as exc:
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"bench-closed-{i}")
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, now() - start


def collect(records: list[Sent], served: dict) -> tuple[int, int]:
    """Check each jobset's report; returns (jobs answered, jobs failed).

    A job fails when its jobset was refused or failed, or when it was not
    answered definitively.  One (query, instance) pair must always get the
    same answer.
    """
    answered = failed = 0
    for rec in records:
        if rec.status != 202 or rec.body.get("status") != "done":
            failed += len(rec.jobs)
            continue
        report = rec.body["report"]
        checks.check_accounting(report["stats"], len(rec.jobs))
        checks.check_storage(report["stats"]["cache"])
        for job, result in zip(rec.jobs, report["jobs"]):
            if result["status"] != "ok":
                failed += 1
                continue
            answered += 1
            checks.check_inconsistent(job["query"], job["facts"],
                                      result["status"], result["verdict"],
                                      result["answers"])
            key = (job["query"], tuple(job["facts"]))
            answer = (result["verdict"], checks.answers_key(result["answers"]))
            if served.setdefault(key, answer) != answer:
                raise checks.CheckFailed(f"{key} answered {answer} and "
                                         f"{served[key]}")
    return answered, failed


def ladder_check(onto, served: dict, first: list[dict], seed: int) -> None:
    """Served answers equal an in-process ladder run (``fastpath="off"``)
    on every first-jobset job and a seeded sample of the rest."""
    keys = sorted(served)
    sample = set(random.Random(seed).sample(keys, min(LADDER_SAMPLE,
                                                      len(keys))))
    sample.update((j["query"], tuple(j["facts"])) for j in first)
    jobs = [Job(query=q, facts=f, job_id=str(i))
            for i, (q, f) in enumerate(sorted(sample))]
    report = evaluate_batch(onto, jobs, fastpath="off")
    ladder = {(j.query, j.facts): (r.verdict, checks.answers_key(r.answers))
              for j, r in zip(jobs, report.results)}
    checks.check_same("served vs ladder", ladder,
                      {key: served[key] for key in ladder})


def pct(values: list[float], q: int) -> float:
    """The *q*-th percentile of seconds, in ms (inclusive interpolation)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return 1000 * cuts[q - 1]


def run(seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: Path) -> dict:
    """One benchmark run; returns metrics, job counts and run info."""
    def setup(n: int, totals: Path | None = None):
        before = speed.probe_s()
        start = now()
        workload = generate(scale)
        daemon = Daemon(workdir / f"setup-{n}", totals)
        wall = now() - start
        return workload, daemon, speed.scale(before, speed.probe_s()) * wall

    ref_first = None
    if trace:
        # The untraced reference for trace.overhead_ratio: the first jobset.
        workload, daemon, _ = setup(0)
        try:
            ref_first = first_jobset(daemon, Traffic(workload, scale, seed))[1]
        finally:
            daemon.stop()
        totals_path = workdir / "totals.json"
        workload, daemon, setup_s = setup(1, totals_path)
        setups = [setup_s]
    else:
        setups, daemon = [], None
        for n in range(scale.setups):
            if daemon is not None:
                daemon.stop()
            workload, daemon, setup_s = setup(n)
            setups.append(setup_s)
    traffic = Traffic(workload, scale, seed)
    try:
        # Unlike set-up, these phases are not scaled to nominal machine
        # speed: the work runs in the daemon, and scaled by probes of this
        # process (taken during a phase, or right before and after it)
        # their figures spread more from seed to seed than unscaled ones.
        first, first_s = first_jobset(daemon, traffic)
        opened = open_loop(daemon, traffic, OPEN_SHARE * seconds)
        closed, closed_s = closed_loop(daemon, traffic, CLOSED_SHARE * seconds)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    served: dict = {}
    answered, failed = collect([first], served)
    open_ok, open_failed = collect(opened, served)
    closed_ok, closed_failed = collect(closed, served)
    failed += open_failed + closed_failed
    attempted = answered + open_ok + closed_ok + failed
    checks.check_tier(daemon.tier)
    ladder_check(workload.ontology(), served, traffic.first, seed)
    done = [r for r in opened if r.body is not None
            and r.body.get("status") == "done"]
    latencies = [r.done - r.due for r in done]
    info = {"fingerprint": inputs.fingerprint([workload]),
            "queries": len(traffic.queries), "open_jobsets": len(opened),
            "closed_jobsets": len(closed), "served_pairs": len(served)}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_jobs_per_s": len(traffic.first) / first_s,
            "warm_jobs_per_s": closed_ok / closed_s,
            "request_p50_ms": pct(latencies, 50),
            "request_p90_ms": pct(latencies, 90),
            "peak_rss_mb": rss,
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "info": info}
    data = json.loads(totals_path.read_text())
    metrics = layers.layer_metrics(data["totals"], data["root_s"])
    memo = data["plan_cache"]
    lookups = memo["hits"] + memo["misses"]
    last = first.body["report"]["stats"]["cache"]["backend"]
    for rec in opened + closed:
        if rec.body is not None and rec.body.get("report"):
            last = rec.body["report"]["stats"]["cache"]["backend"]
    metrics.update({
        "plan.memo_hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "chase.runs_per_job": metrics["chase.runs"] / attempted,
        "storage.write_errors": last["write_errors"],
        "failed_share": failed / attempted,
        "server.submit_ms": pct([r.acked - r.sent for r in done], 50),
        "server.queue_wait_ms": pct(
            [r.done - r.acked - r.body["elapsed"] for r in done], 50),
        "server.run_ms": pct([r.body["elapsed"] for r in done], 50),
        "server.rejected": sum(r.status in (429, 503)
                               for r in opened + closed),
        "client.late_ms": pct([r.sent - r.due for r in opened], 90),
        "trace.first_jobset_s": first_s,
        "trace.overhead_ratio": first_s / ref_first,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}
