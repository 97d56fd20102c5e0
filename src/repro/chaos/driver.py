"""The chaos driver: seeded fault schedules, checked invariants.

``repro chaos run --seed N --profile P`` builds seeded workloads
(:mod:`repro.chaos.generate`), runs them through real ``repro batch``
subprocesses and a live ``repro serve`` daemon under fault schedules
derived from the same seed, and checks every episode against the
invariants in :mod:`repro.chaos.invariants`.

Subprocesses, not in-process calls, on purpose: ``kill:`` faults
``os._exit`` the victim, storage faults must hit freshly-opened backend
handles, and the resume episodes need a process that genuinely died.
Each episode gets its own subdirectory of the driver's workdir so
nothing leaks between them.

**Episodes** (profile ``batch``; ``smoke`` is the cheap subset CI runs
per push, ``serve`` the daemon pair, ``all`` everything):

===================== =====================================================
``baseline``           two fault-free runs: accounting + rerun determinism
``fastpath-parity``    Horn workload, ``--fastpath off`` vs ``auto``:
                       comparable-equal answers
``starvation``         ``deadline:`` faults starve jobs to UNKNOWN; exit 3
                       is legal, an UNKNOWN in the durable tier is not
``worker-kill``        pool workers SIGKILLed by ``kill:chase_truncate``
                       (threshold calibrated upward until the parent
                       outlives its workers); the parent must account for
                       every job and quarantine rather than lose repeat
                       crashers
``kill-resume``        the *driver* is hard-killed mid-batch (exit 87),
                       then ``--journal --resume`` must reproduce the
                       fault-free report exactly
``storage-faults``     ``storage:get/put/busy`` faults on a shared sqlite
                       tier: answers unchanged, tier verifies clean
``torn-writes``        ``storage:torn`` lands corrupt entries; a clean
                       second run must evict, recompute and leave the tier
                       verifiably clean
``concurrent-coherence`` two drivers race on one shared backend: both
                       reports correct, tier coherent afterwards
``serve-baseline``     live daemon round-trip: report parity, ``/healthz``
                       storage probe ok, ``repro_storage_healthy`` gauge,
                       SIGTERM drains to exit 0
``serve-kill-resume``  daemon SIGKILLed mid-jobset, restarted with
                       ``--resume``: same jobset id finishes with the
                       fault-free report
===================== =====================================================

**Determinism.**  Workloads, fault schedules and the ``deterministic``
section of the report are pure functions of ``(seed, profile, jobs)``;
timings and the workdir live in the ``volatile`` section.  To reproduce
a CI failure, re-run ``repro chaos run`` with the seed printed in the
report — same seed, same schedule, same episode.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..runtime.faults import KILL_EXIT_CODE
from ..serving.batch import comparable_report
from ..serving.fingerprint import digest
from .generate import GeneratedWorkload, WorkloadSpec, generate_workload
from .invariants import (
    Violation, check_backend_clean, check_job_accounting,
    check_no_unknown_cached, check_reports_comparable,
)

__all__ = ["PROFILES", "ChaosDriver", "ChaosReport", "EpisodeResult"]

_BATCH_EPISODES = (
    "baseline", "fastpath-parity", "starvation", "worker-kill",
    "kill-resume", "storage-faults", "torn-writes", "concurrent-coherence",
)
_SERVE_EPISODES = ("serve-baseline", "serve-kill-resume")

PROFILES: dict[str, tuple[str, ...]] = {
    "smoke": ("baseline", "storage-faults", "kill-resume"),
    "batch": _BATCH_EPISODES,
    "serve": _SERVE_EPISODES,
    "all": _BATCH_EPISODES + _SERVE_EPISODES,
}

#: Wall-clock ceiling per subprocess — generous; a hang is a bug, and the
#: driver must report it rather than inherit it.
_SUBPROCESS_TIMEOUT = 600.0

#: The evaluation budget every episode runs under: pure counters, no
#: wall-clock, so a starved job goes UNKNOWN at exactly the same point
#: on every machine — report determinism depends on this.  It also
#: guarantees every job owns a Budget, which is where the ``deadline``
#: and ``chase_truncate`` fault sites live.
_BUDGET = "nulls=2000,chase_steps=2000,conflicts=500"


@dataclass
class EpisodeResult:
    """One episode's outcome: its fault schedule and what broke."""

    name: str
    violations: list[Violation] = field(default_factory=list)
    #: The ``REPRO_FAULTS`` schedule(s) the episode injected, if any.
    faults: tuple[str, ...] = ()
    #: Deterministic extras (comparable digests, exit codes that are a
    #: pure function of the seed).
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "ok": self.ok,
            "faults": list(self.faults),
            "violations": [v.to_dict() for v in self.violations],
            **({"detail": self.detail} if self.detail else {}),
        }


@dataclass
class ChaosReport:
    """The run's verdict, split deterministic / volatile (module doc)."""

    seed: int
    profile: str
    jobs: int
    workloads: dict[str, dict[str, Any]]
    episodes: list[EpisodeResult]
    workdir: str
    elapsed: float
    episode_seconds: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(episode.ok for episode in self.episodes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "deterministic": {
                "seed": self.seed, "profile": self.profile,
                "jobs": self.jobs, "workloads": self.workloads,
                "episodes": [e.to_dict() for e in self.episodes],
                "ok": self.ok,
            },
            "volatile": {
                "workdir": self.workdir,
                "elapsed_seconds": round(self.elapsed, 3),
                "episode_seconds": {
                    name: round(seconds, 3)
                    for name, seconds in self.episode_seconds.items()},
            },
        }

    def render_text(self) -> str:
        lines = [f"chaos run: seed={self.seed} profile={self.profile} "
                 f"({len(self.episodes)} episodes, "
                 f"{self.elapsed:.1f}s, workdir {self.workdir})"]
        for episode in self.episodes:
            mark = "ok  " if episode.ok else "FAIL"
            faults = f"  [{', '.join(episode.faults)}]" if episode.faults \
                else ""
            lines.append(f"  {mark} {episode.name}"
                         f" ({self.episode_seconds.get(episode.name, 0):.1f}s)"
                         f"{faults}")
            for violation in episode.violations:
                lines.append(f"       - {violation}")
        lines.append("all invariants held" if self.ok else
                     f"{sum(len(e.violations) for e in self.episodes)} "
                     f"invariant violation(s)")
        return "\n".join(lines)


class ChaosDriver:
    """Runs one profile's episodes for one seed (see module docstring)."""

    def __init__(self, seed: int, profile: str = "smoke", jobs: int = 8,
                 workdir: str | os.PathLike | None = None,
                 keep: bool = False):
        if profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r} "
                f"(expected one of {', '.join(sorted(PROFILES))})")
        if jobs < 4:
            raise ValueError("jobs must be >= 4 (the kill episodes need a "
                             "mid-run to die in)")
        self.seed = seed
        self.profile = profile
        self.jobs = jobs
        self.keep = keep or workdir is not None
        self.workdir = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix=f"repro-chaos-{seed}-"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Every schedule parameter is drawn here, in one fixed order, so
        # the schedule is a pure function of the seed — independent of
        # which profile's subset of episodes actually runs.
        rng = random.Random((seed << 4) ^ 0xC4405)
        self.schedule = {
            "starvation_rate": round(rng.uniform(0.2, 0.4), 2),
            # The ambient fault plan is per-process, so this counts a
            # worker's chase activity cumulatively across every job it
            # handles; a fresh worker restarts at zero.  The episode
            # calibrates upward from here (see _ep_worker_kill) because
            # the per-job chase cost is a property of the generated
            # workload, not of the schedule.
            "worker_kill_hit": rng.randint(9, 14),
            # The serial driver's counters are cumulative across jobs, so
            # this is a mid-run threshold: a few jobs finish (and are
            # journaled), then the driver dies.
            "driver_kill_hit": rng.randint(4, 12),
            "storage_get_rate": round(rng.uniform(0.25, 0.45), 2),
            "storage_put_rate": round(rng.uniform(0.25, 0.45), 2),
            "storage_busy_rate": round(rng.uniform(0.2, 0.4), 2),
            "torn_rate": round(rng.uniform(0.4, 0.6), 2),
        }
        self._workloads: dict[str, GeneratedWorkload] = {}
        self._paths: dict[str, dict[str, str]] = {}
        self._references: dict[str, dict[str, Any]] = {}

    # -- plumbing ------------------------------------------------------------

    def workload(self, family: str) -> GeneratedWorkload:
        """The run's workload for *family* (generated and written once).
        The disjunctive workload carries injected inconsistencies; the
        horn one is fastpath-eligible by construction."""
        if family not in self._workloads:
            spec = WorkloadSpec(
                seed=self.seed if family == "horn" else self.seed + 1,
                family=family, jobs=self.jobs,
                inconsistency_rate=0.2 if family == "disjunctive" else 0.0)
            generated = generate_workload(spec)
            self._workloads[family] = generated
            self._paths[family] = generated.write(self.workdir / family)
        return self._workloads[family]

    def _env(self, faults: str | None = None) -> dict[str, str]:
        """A child environment with no inherited REPRO_* state and the
        repository's ``src`` on PYTHONPATH."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        src = str(Path(__file__).resolve().parents[2])
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
        if faults is not None:
            env["REPRO_FAULTS"] = faults
        return env

    def _batch_cmd(self, family: str, *extra: str) -> list[str]:
        self.workload(family)  # generate + write on first use
        paths = self._paths[family]
        return [sys.executable, "-m", "repro", "batch", paths["ontology"],
                "--workload", paths["workload"], "--format", "json",
                "--budget", _BUDGET, *extra]

    def _run_batch(self, family: str, *extra: str,
                   faults: str | None = None
                   ) -> tuple[int, dict[str, Any] | None, str]:
        """One ``repro batch`` subprocess; returns (exit, report, stderr)."""
        proc = subprocess.run(
            self._batch_cmd(family, *extra), env=self._env(faults),
            capture_output=True, text=True, timeout=_SUBPROCESS_TIMEOUT)
        report: dict[str, Any] | None = None
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            pass
        return proc.returncode, report, proc.stderr

    def reference(self, family: str) -> dict[str, Any]:
        """The fault-free ground-truth report for a family (cached).
        Exit 3 (a deterministically budget-starved job) is legal; what
        matters is that every later run reproduces it exactly."""
        if family not in self._references:
            code, report, stderr = self._run_batch(family)
            if code not in (0, 3) or report is None:
                raise RuntimeError(
                    f"fault-free reference run for {family!r} exited "
                    f"{code}: {stderr[-500:]}")
            self._references[family] = report
        return self._references[family]

    def _ids(self, family: str) -> list[str]:
        return [job["id"] for job in self.workload(family).jobs]

    @staticmethod
    def _comparable_digest(report: dict[str, Any]) -> str:
        return digest(json.dumps(comparable_report(report), sort_keys=True))

    @staticmethod
    def _harness(message: str) -> Violation:
        return Violation("harness", message)

    # -- batch episodes ------------------------------------------------------

    def _ep_baseline(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        first = self.reference(family)
        result.violations += check_job_accounting(first, self._ids(family))
        code, second, stderr = self._run_batch(family)
        if code not in (0, 3) or second is None:
            result.violations.append(self._harness(
                f"rerun exited {code}: {stderr[-300:]}"))
            return
        result.violations += check_reports_comparable(
            first, second, "fault-free rerun")
        result.detail["comparable_digest"] = self._comparable_digest(first)

    def _ep_fastpath_parity(self, result: EpisodeResult) -> None:
        family = "horn"
        off = self.reference(family)  # references run with the default off
        result.violations += check_job_accounting(off, self._ids(family))
        code, auto, stderr = self._run_batch(family, "--fastpath", "auto")
        if code not in (0, 3) or auto is None:
            result.violations.append(self._harness(
                f"--fastpath auto run exited {code}: {stderr[-300:]}"))
            return
        result.violations += check_reports_comparable(
            off, auto, "fastpath off vs auto")
        result.detail["comparable_digest"] = self._comparable_digest(off)

    def _ep_starvation(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        cache = f"sqlite:{self.workdir / 'starvation.db'}"
        faults = f"deadline:{self.schedule['starvation_rate']}"
        result.faults = (faults,)
        code, report, stderr = self._run_batch(
            family, "--cache-backend", cache, faults=faults)
        if code not in (0, 3) or report is None:
            result.violations.append(self._harness(
                f"starved run exited {code} (expected 0 or 3): "
                f"{stderr[-300:]}"))
            return
        result.violations += check_job_accounting(report, self._ids(family))
        # The one thing starvation must never do: leak an UNKNOWN into
        # the durable tier.
        result.violations += check_no_unknown_cached(cache)
        result.violations += check_backend_clean(cache)
        result.detail["exit"] = code

    def _ep_worker_kill(self, result: EpisodeResult) -> None:
        family = "horn"
        # A threshold below the cost of a worker's first job kills every
        # fresh worker before it completes anything; five breaks without
        # a completion legitimately push the PoolSupervisor into serial
        # degradation, where the driver inherits the same schedule and
        # dies of it.  That is documented behavior, not the bug this
        # episode hunts — so calibrate: double the threshold (a
        # deterministic sequence) until the driver outlives its workers,
        # then hold the accounting to account at that schedule.
        hit = self.schedule["worker_kill_hit"]
        code, report, stderr = KILL_EXIT_CODE, None, ""
        for _attempt in range(6):
            faults = f"kill:chase_truncate:@{hit}"
            result.faults = (faults,)
            code, report, stderr = self._run_batch(
                family, "--jobs", "2", "--retry",
                "attempts=3,backoff=0.01,crashes=2", faults=faults)
            if code != KILL_EXIT_CODE:
                break
            hit *= 2
        if code == KILL_EXIT_CODE:
            result.violations.append(Violation(
                "parent-survives",
                "the batch driver died of a worker fault at every "
                f"threshold up to @{hit // 2}"))
            return
        if code not in (0, 3) or report is None:
            result.violations.append(self._harness(
                f"worker-kill run exited {code} (expected 0 or 3): "
                f"{stderr[-300:]}"))
            return
        # Which jobs crashed depends on pool scheduling; what must hold
        # regardless is the accounting — nothing lost, nothing counted
        # twice, quarantines tallied consistently.
        result.violations += check_job_accounting(report, self._ids(family))

    def _ep_kill_resume(self, result: EpisodeResult) -> None:
        family = "horn"
        journal = str(self.workdir / "kill-resume.jsonl")
        reference = self.reference(family)
        # The drawn threshold can exceed the whole batch's chase activity
        # (a property of the generated workload, as in _ep_worker_kill):
        # halve it (a deterministic sequence) until the driver dies.  A
        # run that completes leaves a full journal, which the next
        # attempt truncates.
        hit = self.schedule["driver_kill_hit"]
        while True:
            faults = f"kill:chase_truncate:@{hit}"
            result.faults = (faults,)
            code, _report, stderr = self._run_batch(
                family, "--journal", journal, faults=faults)
            if code != 0 or hit == 1:
                break
            hit //= 2
        if code != KILL_EXIT_CODE:
            result.violations.append(self._harness(
                f"killed run exited {code}, expected {KILL_EXIT_CODE}: "
                f"{stderr[-300:]}"))
            return
        code, resumed, stderr = self._run_batch(
            family, "--journal", journal, "--resume")
        if code not in (0, 3) or resumed is None:
            result.violations.append(self._harness(
                f"resume run exited {code}: {stderr[-300:]}"))
            return
        result.violations += check_job_accounting(resumed, self._ids(family))
        result.violations += check_reports_comparable(
            reference, resumed, "resumed vs uninterrupted")
        result.detail["comparable_digest"] = self._comparable_digest(
            reference)

    def _ep_storage_faults(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        cache = f"sqlite:{self.workdir / 'storage-faults.db'}"
        faults = (f"storage:get:{self.schedule['storage_get_rate']},"
                  f"storage:put:{self.schedule['storage_put_rate']},"
                  f"storage:busy:{self.schedule['storage_busy_rate']}")
        result.faults = (faults,)
        reference = self.reference(family)
        code, report, stderr = self._run_batch(
            family, "--cache-backend", cache, faults=faults)
        if code not in (0, 3) or report is None:
            result.violations.append(self._harness(
                f"faulted run exited {code}: {stderr[-300:]}"))
            return
        # A degraded cache may slow the run down; it must never change
        # an answer, corrupt the tier, or cache a non-answer.
        result.violations += check_reports_comparable(
            reference, report, "storage faults vs fault-free")
        result.violations += check_no_unknown_cached(cache)
        result.violations += check_backend_clean(cache)
        result.detail["comparable_digest"] = self._comparable_digest(
            reference)

    def _ep_torn_writes(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        cache = f"shard:{self.workdir / 'torn-writes'}"
        faults = f"storage:torn:{self.schedule['torn_rate']}"
        result.faults = (faults,)
        reference = self.reference(family)
        code, torn, stderr = self._run_batch(
            family, "--cache-backend", cache, faults=faults)
        if code not in (0, 3) or torn is None:
            result.violations.append(self._harness(
                f"torn run exited {code}: {stderr[-300:]}"))
            return
        result.violations += check_reports_comparable(
            reference, torn, "torn writes vs fault-free")
        # The tier is now legitimately corrupt.  A clean second run must
        # detect-and-evict every torn entry on read, recompute, rewrite —
        # and leave the tier verifiably clean.
        code, healed, stderr = self._run_batch(
            family, "--cache-backend", cache)
        if code not in (0, 3) or healed is None:
            result.violations.append(self._harness(
                f"healing run exited {code}: {stderr[-300:]}"))
            return
        result.violations += check_reports_comparable(
            reference, healed, "healing run vs fault-free")
        result.violations += check_backend_clean(cache)
        result.violations += check_no_unknown_cached(cache)
        result.detail["comparable_digest"] = self._comparable_digest(
            reference)

    def _ep_concurrent_coherence(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        reference = self.reference(family)
        for scheme, uri in (
                ("sqlite", f"sqlite:{self.workdir / 'concurrent.db'}"),
                ("shard", f"shard:{self.workdir / 'concurrent-shard'}")):
            procs = [subprocess.Popen(
                self._batch_cmd(family, "--cache-backend", uri),
                env=self._env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True) for _ in range(2)]
            for index, proc in enumerate(procs):
                try:
                    stdout, stderr = proc.communicate(
                        timeout=_SUBPROCESS_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    result.violations.append(self._harness(
                        f"{scheme} concurrent driver #{index} hung"))
                    continue
                if proc.returncode not in (0, 3):
                    result.violations.append(self._harness(
                        f"{scheme} concurrent driver #{index} exited "
                        f"{proc.returncode}: {stderr[-300:]}"))
                    continue
                try:
                    report = json.loads(stdout)
                except ValueError:
                    result.violations.append(self._harness(
                        f"{scheme} concurrent driver #{index} produced "
                        f"no JSON report"))
                    continue
                result.violations += check_job_accounting(
                    report, self._ids(family))
                result.violations += check_reports_comparable(
                    reference, report,
                    f"{scheme} concurrent driver #{index}")
            result.violations += check_backend_clean(uri)
            result.violations += check_no_unknown_cached(uri)
        result.detail["comparable_digest"] = self._comparable_digest(
            reference)

    # -- serve episodes ------------------------------------------------------

    def _start_daemon(self, *extra: str, faults: str | None = None
                      ) -> tuple[subprocess.Popen, int]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            env=self._env(faults), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        assert proc.stdout is not None
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            proc.wait(timeout=10)
            raise RuntimeError(f"daemon failed to start: {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])
        return proc, port

    @staticmethod
    def _http(port: int, method: str, path: str,
              payload: dict | None = None) -> tuple[int, Any]:
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            body = json.dumps(payload) if payload is not None else None
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            response = conn.getresponse()
            raw = response.read().decode("utf-8")
            if response.getheader("Content-Type", "").startswith(
                    "application/json"):
                return response.status, json.loads(raw)
            return response.status, raw
        finally:
            conn.close()

    def _poll_result(self, port: int, jobset_id: str,
                     deadline: float = 120.0) -> dict[str, Any] | None:
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            status, body = self._http(
                port, "GET", f"/v1/jobsets/{jobset_id}/result")
            if status == 200:
                return body
            time.sleep(0.1)
        return None

    def _submit_payload(self, family: str) -> dict[str, Any]:
        # The same budget the batch runs use: the served report is held
        # comparable-equal to the batch reference, which only holds if
        # both sides starve (or don't) identically — and an unbudgeted
        # coNP-hard job can outlive the poll window outright.
        generated = self.workload(family)
        return {"ontology": generated.ontology_text,
                "jobs": generated.jobs,
                "options": {"budget": _BUDGET}}

    def _drain(self, proc: subprocess.Popen,
               result: EpisodeResult, label: str) -> None:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
            result.violations.append(Violation(
                "server-drains", f"{label}: daemon did not drain in 60s"))
            return
        if code != 0:
            result.violations.append(Violation(
                "server-drains",
                f"{label}: daemon exited {code} on SIGTERM, expected 0"))

    def _ep_serve_baseline(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        reference = self.reference(family)
        cache = f"sqlite:{self.workdir / 'serve-baseline.db'}"
        proc, port = self._start_daemon("--cache-backend", cache)
        try:
            status, health = self._http(port, "GET", "/healthz")
            if status != 200 or health.get("storage") != "ok":
                result.violations.append(Violation(
                    "storage-probe",
                    f"/healthz reported {status} {health!r}, expected "
                    f"storage ok"))
            status, jobset = self._http(
                port, "POST", "/v1/jobsets", self._submit_payload(family))
            if status != 202:
                result.violations.append(self._harness(
                    f"submission rejected: {status} {jobset!r}"))
                return
            body = self._poll_result(port, jobset["id"])
            if body is None or "report" not in body:
                result.violations.append(self._harness(
                    f"jobset {jobset['id']} never finished"))
                return
            report = body["report"]
            result.violations += check_job_accounting(
                report, self._ids(family))
            result.violations += check_reports_comparable(
                reference, report, "served vs batch")
            status, metrics = self._http(port, "GET", "/metrics")
            if status != 200 or "repro_storage_healthy 1" not in metrics:
                result.violations.append(Violation(
                    "storage-probe",
                    "/metrics is missing repro_storage_healthy 1"))
            result.detail["comparable_digest"] = self._comparable_digest(
                reference)
        finally:
            self._drain(proc, result, "serve-baseline")

    def _ep_serve_kill_resume(self, result: EpisodeResult) -> None:
        family = "disjunctive"
        reference = self.reference(family)
        journal = str(self.workdir / "serve-kill.jsonl")
        proc, port = self._start_daemon("--journal", journal)
        jobset_id: str | None = None
        try:
            status, jobset = self._http(
                port, "POST", "/v1/jobsets", self._submit_payload(family))
            if status != 202:
                result.violations.append(self._harness(
                    f"submission rejected: {status} {jobset!r}"))
                return
            jobset_id = jobset["id"]
            # Wait until at least one job result is durably journaled,
            # then kill the daemon the hard way — mid-jobset, no drain.
            end = time.monotonic() + 120.0
            while time.monotonic() < end:
                try:
                    with open(journal, encoding="utf-8") as fh:
                        finished = sum(
                            1 for line in fh
                            if '"kind": "job-result"' in line
                            or '"kind":"job-result"' in line)
                except OSError:
                    finished = 0
                if finished >= 1:
                    break
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        if jobset_id is None:
            return
        resumed, port = self._start_daemon(
            "--journal", journal, "--resume")
        try:
            body = self._poll_result(port, jobset_id)
            if body is None or "report" not in body:
                result.violations.append(Violation(
                    "resume-equality",
                    f"resumed daemon never finished jobset {jobset_id}"))
                return
            result.violations += check_job_accounting(
                body["report"], self._ids(family))
            result.violations += check_reports_comparable(
                reference, body["report"], "resumed daemon vs batch")
            result.detail["comparable_digest"] = self._comparable_digest(
                reference)
        finally:
            self._drain(resumed, result, "serve-kill-resume")

    # -- the run -------------------------------------------------------------

    _EPISODES: dict[str, str] = {
        "baseline": "_ep_baseline",
        "fastpath-parity": "_ep_fastpath_parity",
        "starvation": "_ep_starvation",
        "worker-kill": "_ep_worker_kill",
        "kill-resume": "_ep_kill_resume",
        "storage-faults": "_ep_storage_faults",
        "torn-writes": "_ep_torn_writes",
        "concurrent-coherence": "_ep_concurrent_coherence",
        "serve-baseline": "_ep_serve_baseline",
        "serve-kill-resume": "_ep_serve_kill_resume",
    }

    def run(self, log: Callable[[str], None] | None = None) -> ChaosReport:
        """Execute the profile's episodes; always returns a report (an
        episode that blows up becomes a ``harness`` violation, not an
        exception — chaos must not take the harness down with it)."""
        started = time.monotonic()
        episodes: list[EpisodeResult] = []
        seconds: dict[str, float] = {}
        try:
            for name in PROFILES[self.profile]:
                if log is not None:
                    log(f"episode {name}...")
                result = EpisodeResult(name=name)
                episode_start = time.monotonic()
                try:
                    getattr(self, self._EPISODES[name])(result)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    result.violations.append(self._harness(
                        f"episode raised {type(exc).__name__}: {exc}"))
                seconds[name] = time.monotonic() - episode_start
                episodes.append(result)
            workloads = {
                family: {"fingerprint": generated.fingerprint,
                         "family": generated.family,
                         "band": generated.band,
                         "verdict": generated.verdict,
                         "jobs": len(generated.jobs)}
                for family, generated in sorted(self._workloads.items())}
            return ChaosReport(
                seed=self.seed, profile=self.profile, jobs=self.jobs,
                workloads=workloads, episodes=episodes,
                workdir=str(self.workdir),
                elapsed=time.monotonic() - started,
                episode_seconds=seconds)
        finally:
            if not self.keep:
                shutil.rmtree(self.workdir, ignore_errors=True)
