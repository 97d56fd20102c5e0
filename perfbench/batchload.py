"""The batch workloads: ``evaluate_batch`` as ``repro batch`` runs it.

CLI defaults throughout: serial, ``fastpath="off"``, no budget beyond the
per-job counters the disjunctive workload sets, and a fresh ``sqlite:``
durable tier, opened once with a fresh ``AnswerCache`` over it for every
call (per-call file opens would add disk noise).  A cold *unit* is one
job in its own call, started from empty plan and conversion caches, so
every answer is computed and written; the units take the classes in
turn.  The cold pass over the whole job panel runs ``REPEATS`` times,
each over a fresh tier, and each unit counts with the median of its
times, so a burst of load from elsewhere on the machine does not move
the figure.  One job per unit keeps the work of a pass independent of
the seed's job order (with two, whether a unit's jobs shared a query,
and so a compile, depended on it).  Warm
re-runs then evaluate each class's answered jobs in one call, again from
empty in-memory caches and a fresh ``AnswerCache`` over the same tier, so
every answer is a durable read; the figure is the median re-run.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import layers
import speed
import repro.serving.batch as batch
from repro.obs import Tracer
from repro.runtime.budget import Budget
from repro.serving import AnswerCache, clear_caches, plan_cache_stats
from repro.storage.base import open_backend

#: Workload -> generator knobs, ontology levels covered, per-job budget,
#: jobs per class (sized to 7-9 s per cold pass on a 2-core x86_64 VM).
WORKLOADS = {
    # Larger instances than the chaos default, so the ladder's
    # one-chase-per-candidate loop dominates; every ontology class.
    "batch-horn": {
        "spec": {"family": "horn", "instance_size": 20, "domain_size": 10},
        "levels": (3, 4), "budget": None, "jobs": 6},
    # Smaller instances than the chaos default (6 facts over 4 constants,
    # as bench_workloads' light profile), so a run holds more jobs.  Only
    # the 3-level classes: generating one 4-level disjunctive ontology
    # costs up to 12 s of band verification.
    "batch-disjunctive": {
        "spec": {"family": "disjunctive", "inconsistency_rate": 0.2,
                 "instance_size": 6, "domain_size": 4},
        "levels": (3,),
        "budget": {"chase_steps": 400, "nulls": 400, "conflicts": 100},
        "jobs": 16},
}

#: Repetitions of the cold pass in a run.
REPEATS = 3
#: Share of ``--seconds`` the warm re-runs get.
WARM_SHARE = 0.25


@dataclass(frozen=True)
class Scale:
    jobs: int | None = None  # jobs per class; None: the workload's own
    setups: int = 9     # set-ups per run; setup_s is their median


TINY = Scale(jobs=1, setups=1)


def generate(name: str, scale: Scale) -> list:
    """The workload's job panel: one generated sub-workload per ontology
    class, drawn from the panel seed (see ``inputs.PANEL_SEED``)."""
    cfg = WORKLOADS[name]
    return inputs.stratified(inputs.PANEL_SEED, cfg["spec"], cfg["levels"],
                             jobs=scale.jobs or cfg["jobs"])


@dataclass
class Passes:
    """What the cold repetitions and warm re-runs measured."""

    panel_jobs: int = 0
    # Times scaled to nominal machine speed (see speed.py); raw in *_raw.
    cold_s: float = 0.0         # one repetition, each unit at its median
    cold_raw_s: float = 0.0
    latencies: list[float] = field(default_factory=list)  # per-job medians
    warm_rates: list[float] = field(default_factory=list)  # jobs/s per re-run
    warm_raw_rates: list[float] = field(default_factory=list)
    jobs: int = 0               # every job evaluated, cold and warm
    wall_s: float = 0.0         # every evaluate_batch call
    failed: int = 0
    warm_passes: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    write_errors: int = 0


class BatchWorkload:
    def __init__(self, name: str, seed: int, scale: Scale, workdir: Path):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._tiers = 0
        self.backend = None

    def new_tier(self) -> None:
        """A fresh tier, opened once: every call gets a fresh
        ``AnswerCache`` over this one backend handle."""
        self.close_tier()
        self._tiers += 1
        self.tier = self.workdir / f"tier-{self._tiers}.sqlite"
        self.backend = open_backend(f"sqlite:{self.tier}")

    def close_tier(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def setup(self) -> float:
        """Generate the inputs and create a tier; returns its seconds,
        scaled to nominal machine speed."""
        clear_caches()
        before = speed.probe_s()
        start = time.perf_counter()
        self.strata = generate(self.name, self.scale)
        self.ontos = [wl.ontology() for wl in self.strata]
        # The seed orders each class's jobs, so it decides in what order
        # the units run.
        rng = random.Random(self.seed)
        self.jobs = [rng.sample(jobs, len(jobs))
                     for jobs in map(inputs.jobs_of, self.strata)]
        self.new_tier()
        wall = time.perf_counter() - start
        return speed.scale(before, speed.probe_s()) * wall

    def _budget(self, jobs: int) -> Budget | None:
        per_job = self.cfg["budget"]
        if per_job is None:
            return None
        # evaluate_batch splits counter budgets evenly across its jobs.
        return Budget.from_spec(
            ",".join(f"{k}={v * jobs}" for k, v in per_job.items()))

    def _call(self, k: int, jobs, p: Passes, totals):
        """One checked ``evaluate_batch`` call; returns (wall, answers,
        report)."""
        clear_caches()
        tracer = Tracer() if totals is not None else None
        start = time.perf_counter()
        report = batch.evaluate_batch(
            self.ontos[k], jobs,
            answer_cache=AnswerCache(backend=self.backend),
            budget=self._budget(len(jobs)), tracer=tracer)
        wall = time.perf_counter() - start
        p.jobs += len(jobs)
        p.wall_s += wall
        memo = plan_cache_stats()
        p.plan_hits += memo["hits"]
        p.plan_misses += memo["misses"]
        if tracer is not None:
            layers.span_counts(tracer, totals)
        checks.check_accounting(report.stats, len(jobs))
        checks.check_storage(report.stats["cache"])
        # The backend's count is cumulative over its tier.
        p.write_errors = max(p.write_errors,
                             report.stats["cache"]["backend"]["write_errors"])
        got = {}
        for job, r in zip(jobs, report.results):
            checks.check_inconsistent(job.query, job.facts, r.status,
                                      r.verdict, r.answers)
            got[(k, job.job_id)] = (r.status, r.verdict,
                                    checks.answers_key(r.answers))
            p.failed += r.status != "ok"
        return wall, got, report

    def passes(self, repeats: int, warm_seconds: float = 0.0,
               warm_passes: int | None = None,
               totals: "layers.Totals | None" = None) -> Passes:
        """*repeats* cold repetitions, then warm re-runs for
        *warm_seconds* (or exactly *warm_passes*)."""
        p = Passes()
        unit_walls: dict[tuple, list[float]] = {}
        raw_walls: dict[tuple, list[float]] = {}
        latencies: dict[tuple, list[float]] = {}
        first: dict | None = None
        for _ in range(repeats):
            self.new_tier()
            cold: dict = {}
            for i in range(len(self.jobs[0])):
                for k, jobs in enumerate(self.jobs):
                    # A collection owed by earlier calls would land in
                    # whichever job the seed's order puts next.
                    gc.collect()
                    before = speed.probe_s()
                    wall, got, report = self._call(k, jobs[i:i + 1], p,
                                                   totals)
                    scale = speed.scale(before, speed.probe_s())
                    key = (k, jobs[i].job_id)
                    unit_walls.setdefault(key, []).append(scale * wall)
                    raw_walls.setdefault(key, []).append(wall)
                    latencies.setdefault(key, []).append(
                        scale * report.results[0].elapsed)
                    cold.update(got)
            if first is None:
                first = cold
            checks.check_same("cold repetition", first, cold)
        p.cold_s = sum(map(statistics.median, unit_walls.values()))
        p.cold_raw_s = sum(map(statistics.median, raw_walls.values()))
        p.latencies = [statistics.median(v) for v in latencies.values()]
        p.panel_jobs = len(latencies)
        # UNKNOWN is never cached, so only definitive answers re-run warm.
        answered = [[job for job in jobs if first[(k, job.job_id)][0] == "ok"]
                    for k, jobs in enumerate(self.jobs)]
        expected = {key: value for key, value in first.items()
                    if value[0] == "ok"}
        deadline = time.perf_counter() + warm_seconds
        while (p.warm_passes == 0 or time.perf_counter() < deadline
               if warm_passes is None else p.warm_passes < warm_passes):
            warm: dict = {}
            raw_s = 0.0
            gc.collect()
            before = speed.probe_s()
            for k, jobs in enumerate(answered):
                if jobs:
                    wall, got, _report = self._call(k, jobs, p, totals)
                    raw_s += wall
                    warm.update(got)
            scale = speed.scale(before, speed.probe_s())
            checks.check_same("warm re-run vs cold pass", expected, warm)
            p.warm_rates.append(len(expected) / (scale * raw_s))
            p.warm_raw_rates.append(len(expected) / raw_s)
            p.warm_passes += 1
        self.close_tier()
        checks.check_tier(self.tier)
        return p


#: Per-layer metrics of the serving daemon, which batch runs do not start.
SERVER_METRICS = ("server.submit_ms", "server.queue_wait_ms", "server.run_ms",
                  "server.rejected", "client.late_ms", "trace.first_jobset_s")


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: Path) -> dict:
    """One benchmark run; returns metrics, job counts and run info."""
    work = BatchWorkload(name, seed, scale, workdir)
    setups = [work.setup() for _ in range(scale.setups)]
    info = {"fingerprint": inputs.fingerprint(work.strata),
            "classes": len(work.strata)}
    if not trace:
        p = work.passes(REPEATS, WARM_SHARE * seconds)
        deciles = statistics.quantiles(p.latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_jobs_per_s": p.panel_jobs / p.cold_s,
            "warm_jobs_per_s": statistics.median(p.warm_rates),
            "request_p50_ms": 1000 * statistics.median(p.latencies),
            "request_p90_ms": 1000 * deciles[8],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info.update(warm_passes=p.warm_passes, panel_jobs=p.panel_jobs,
                    raw_cold_jobs_per_s=p.panel_jobs / p.cold_raw_s,
                    raw_warm_jobs_per_s=statistics.median(p.warm_raw_rates))
        return {"metrics": metrics, "attempted": p.jobs, "failed": p.failed,
                "info": info}
    # Traced: an untraced reference, then the same cold pass and warm
    # re-runs with every layer wrapped.
    ref = work.passes(1, 0.1 * seconds)
    totals = layers.Totals()
    wrappers = layers.install(totals)
    try:
        p = work.passes(1, warm_passes=ref.warm_passes, totals=totals)
    finally:
        wrappers.uninstall()
    metrics = layers.layer_metrics(totals.to_dict(), p.wall_s)
    lookups = p.plan_hits + p.plan_misses
    metrics.update({
        "plan.memo_hit_ratio": p.plan_hits / lookups if lookups else 0.0,
        "chase.runs_per_job": metrics["chase.runs"] / p.panel_jobs,
        "storage.write_errors": p.write_errors,
        "failed_share": p.failed / p.jobs,
        "trace.overhead_ratio": p.wall_s / ref.wall_s,
    })
    metrics.update(dict.fromkeys(SERVER_METRICS, 0.0))
    info.update(warm_passes=p.warm_passes, panel_jobs=p.panel_jobs)
    return {"metrics": metrics, "attempted": p.jobs, "failed": p.failed,
            "info": info}
