"""W1 — workload-scale performance: generated and bioportal sweeps at 10–100×.

The chaos generator (:mod:`repro.chaos.generate`) and the bioportal
corpus (:mod:`repro.bioportal`) both emit workloads whose size is a
knob, which makes them the natural probes for how the serving stack
scales past its unit-test sizes.  This bench sweeps both at 1×, 10×
and 100× the sizes the rest of the suite uses and records the rates
that matter at scale:

* **throughput** — jobs (or ontologies) per second, cold and warm;
* **cache-hit rate** — a second pass over the same workload through a
  shared :class:`~repro.serving.AnswerCache` must hit on every job whose
  answer is definitive (a bound-relative answer is never cached);
* **escalation rate** — SAT-ladder rungs per job on the disjunctive
  (coNP-hard) family, where the chase alone cannot decide;
* **unknown / error / quarantine rates** — budget starvation and
  resilience accounting, straight from the batch stats block.

Two generated families cover both sides of the Figure-1 dichotomy (the
generator *verifies* the band via ``classify_ontology``, it never
assumes it): ``horn`` is fastpath-eligible and cheap enough to sweep to
100× (1200 jobs); ``disjunctive`` pays a SAT escalation per job, so the
default-size instances sweep at 1× and a lighter instance profile
carries the 10× point.  Budget counters are **cumulative** across a
serial batch (the fault/budget plan is shared, not forked), so the
budget is scaled with the job count to keep the per-job allowance
constant across scales.

Run under pytest-benchmark for statistics, standalone for a JSON report,
with ``--smoke`` as a CI gate, or with ``--snapshot`` to pin the numbers
into ``BENCH_workloads.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_workloads.py            # JSON report
    PYTHONPATH=src python benchmarks/bench_workloads.py --smoke    # CI assertions
    PYTHONPATH=src python benchmarks/bench_workloads.py --snapshot # pin numbers
"""

import json
import sys
import time

import pytest

from repro.bioportal import analyze_corpus, generate_corpus
from repro.bioportal.corpus import CorpusSpec
from repro.chaos import WorkloadSpec, generate_workload
from repro.runtime.budget import Budget
from repro.serving import AnswerCache, Job, clear_caches, evaluate_batch

#: Base job count every scale multiplies (the chaos generator's default).
BASE_JOBS = 12

#: Per-job budget allowance; multiplied by the job count because counter
#: budgets accumulate across a serial batch.
_PER_JOB_BUDGET = {"nulls": 400, "chase_steps": 400, "conflicts": 100}

#: Generated-family sweep matrix: label -> (spec knobs, scales).  The
#: disjunctive family pays ~0.4s of SAT work per default-size job, so
#: only the lighter instance profile sweeps to 10×.
SWEEPS = {
    "horn": (dict(family="horn", seed=2017), (1, 10, 100)),
    "disjunctive": (dict(family="disjunctive", seed=2018,
                         inconsistency_rate=0.2), (1,)),
    "disjunctive-light": (dict(family="disjunctive", seed=2018,
                               instance_size=6, domain_size=4,
                               inconsistency_rate=0.2), (1, 10)),
}

#: Sweep points allowed bound-relative answers (a SAT yes up to its null
#: bound, never cached), and how many: disjunctive x1 holds an
#: inconsistent instance whose chase passes 512 branches before SAT
#: decides it up to 3 nulls.  Every other job must answer definitively.
BOUND_RELATIVE_ALLOWED = {("disjunctive", 1): 1}

#: Bioportal corpus scales (411 ontologies at 1×, Section-8 proportions).
CORPUS_SCALES = (1, 10, 100)


def _budget_for(jobs: int) -> Budget:
    spec = ",".join(f"{k}={v * jobs}" for k, v in _PER_JOB_BUDGET.items())
    return Budget.from_spec(spec)


def workload_spec(label: str, scale: int) -> WorkloadSpec:
    knobs, _scales = SWEEPS[label]
    return WorkloadSpec(jobs=BASE_JOBS * scale, **knobs)


def generated_jobs(label: str, scale: int):
    """(ontology, jobs) for one sweep point, through the real generator
    (which verifies the Figure-1 band or raises)."""
    wl = generate_workload(workload_spec(label, scale))
    jobs = [Job(query=j["query"], facts=tuple(j["facts"]), job_id=j["id"])
            for j in wl.jobs]
    return wl, jobs


def corpus_spec(scale: int) -> CorpusSpec:
    base = CorpusSpec()
    return CorpusSpec(total=base.total * scale,
                      alchiq_depth1=base.alchiq_depth1 * scale,
                      alchif_depth2_extra=base.alchif_depth2_extra * scale,
                      deep=base.deep * scale, seed=base.seed)


# -- pytest-benchmark entry points -------------------------------------------


@pytest.mark.parametrize("scale", [1, 10])
def test_generated_horn_batch(benchmark, scale):
    wl, jobs = generated_jobs("horn", scale)
    onto = wl.ontology()

    def run():
        clear_caches()
        evaluate_batch(onto, jobs, workers=1)

    benchmark(run)


def test_generated_warm_cache(benchmark):
    wl, jobs = generated_jobs("horn", 1)
    onto = wl.ontology()
    clear_caches()
    cache = AnswerCache()
    evaluate_batch(onto, jobs, workers=1, answer_cache=cache)  # populate
    benchmark(lambda: evaluate_batch(onto, jobs, workers=1,
                                     answer_cache=cache))


def test_generated_disjunctive_batch(benchmark):
    wl, jobs = generated_jobs("disjunctive-light", 1)
    onto = wl.ontology()

    def run():
        clear_caches()
        evaluate_batch(onto, jobs, workers=1, budget=_budget_for(len(jobs)))

    benchmark(run)


def test_bioportal_analyze(benchmark):
    corpus = generate_corpus()
    benchmark(lambda: analyze_corpus(corpus))


# -- standalone measurement ---------------------------------------------------


def _rates(stats: dict, jobs: int) -> dict:
    """The headline rates from one batch stats block."""
    return {
        "ok": stats["ok"], "unknown": stats["unknown"],
        "error": stats["error"], "quarantined": stats["quarantined"],
        "unknown_rate": round(stats["unknown"] / jobs, 4),
        "error_rate": round(stats["error"] / jobs, 4),
        "quarantine_rate": round(stats["quarantined"] / jobs, 4),
        "escalation_rungs": stats["escalation_rungs"],
        "escalation_rungs_per_job": round(
            stats["escalation_rungs"] / jobs, 4),
        "cache_hit_rate": stats["cache"]["hit_rate"],
    }


def sweep_point(label: str, scale: int) -> dict:
    """One generated sweep point: cold pass, then a warm pass through a
    shared answer cache.  Serial workers so the cache is actually shared
    (pool workers are subprocesses and keep their own).  The cache is
    sized to the workload: at 100× the default 1024-entry LRU is smaller
    than the batch, and a sequential scan over a too-small LRU evicts
    every entry before it is re-read — 0% hits by construction, which
    would measure the eviction policy, not the cache."""
    wl, jobs = generated_jobs(label, scale)
    onto = wl.ontology()
    clear_caches()
    cache = AnswerCache(maxsize=max(2048, 2 * len(jobs)))
    t0 = time.perf_counter()
    cold = evaluate_batch(onto, jobs, workers=1, answer_cache=cache,
                          budget=_budget_for(len(jobs)))
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = evaluate_batch(onto, jobs, workers=1, answer_cache=cache,
                          budget=_budget_for(len(jobs)))
    warm_s = time.perf_counter() - t0
    point = {
        "family": wl.family, "band": wl.band, "verdict": wl.verdict,
        "scale": scale, "jobs": len(jobs),
        "fingerprint": wl.fingerprint,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cold_jobs_per_s": round(len(jobs) / cold_s, 2) if cold_s else 0.0,
        "warm_jobs_per_s": round(len(jobs) / warm_s, 2) if warm_s else 0.0,
        "cold": _rates(cold.stats, len(jobs)),
        "warm": _rates(warm.stats, len(jobs)),
        "definitive": sum(1 for r in cold.results if r.status == "ok"
                          and (r.outcome or {}).get("definitive", True)),
        "warm_hits": sum(r.cache_hit for r in warm.results),
    }
    return point


def generated_sweep(scales_cap: int = 100) -> dict:
    """The full generated matrix, capped at *scales_cap* (the smoke gate
    runs 10×; only the snapshot pays for 100×)."""
    out = {}
    for label, (_knobs, scales) in SWEEPS.items():
        out[label] = [sweep_point(label, s) for s in scales
                      if s <= scales_cap]
    return out


def bioportal_sweep(scales_cap: int = 100) -> list:
    """Corpus generation + Section-8 analysis throughput at each scale."""
    out = []
    for scale in CORPUS_SCALES:
        if scale > scales_cap:
            continue
        spec = corpus_spec(scale)
        t0 = time.perf_counter()
        corpus = generate_corpus(spec)
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = analyze_corpus(corpus)
        analyze_s = time.perf_counter() - t0
        doc = (report.to_dict() if hasattr(report, "to_dict")
               else dict(vars(report)))
        out.append({
            "scale": scale, "ontologies": len(corpus),
            "generate_s": round(gen_s, 6),
            "analyze_s": round(analyze_s, 6),
            "ontologies_per_s": (round(len(corpus) / analyze_s, 2)
                                 if analyze_s else 0.0),
            "analysis": doc,
        })
    return out


def measure(scales_cap: int = 100) -> dict:
    return {
        "base_jobs": BASE_JOBS,
        "generated": generated_sweep(scales_cap),
        "bioportal": bioportal_sweep(scales_cap),
    }


def smoke() -> int:
    """CI gate over the 10× sweep: every generated band is the verified
    one, accounting is consistent at scale, nothing errors or is
    quarantined on a clean run, every answer is definitive (up to
    :data:`BOUND_RELATIVE_ALLOWED`), the warm pass hits the cache on
    exactly the jobs with a definitive answer and beats the cold pass,
    and the corpus analysis scales proportionally."""
    report = measure(scales_cap=10)
    failures = []
    for label, points in report["generated"].items():
        for point in points:
            jobs = point["jobs"]
            expected_verdict = ("PTIME" if point["family"] == "horn"
                                else "CONP_HARD")
            if point["verdict"] != expected_verdict:
                failures.append(
                    f"{label} x{point['scale']}: verdict "
                    f"{point['verdict']} != {expected_verdict}")
            for leg in ("cold", "warm"):
                rates = point[leg]
                total = (rates["ok"] + rates["unknown"] + rates["error"]
                         + rates["quarantined"])
                if total != jobs:
                    failures.append(
                        f"{label} x{point['scale']} {leg}: statuses sum to "
                        f"{total}, expected {jobs}")
                if rates["error"] or rates["quarantined"]:
                    failures.append(
                        f"{label} x{point['scale']} {leg}: "
                        f"{rates['error']} error(s), "
                        f"{rates['quarantined']} quarantined on a clean run")
            # Only definitive answers are cached: a bound-relative one (a
            # SAT yes up to its null bound) is recomputed on every pass.
            least = jobs - BOUND_RELATIVE_ALLOWED.get(
                (label, point["scale"]), 0)
            if point["definitive"] < least:
                failures.append(
                    f"{label} x{point['scale']}: {point['definitive']} of "
                    f"{jobs} answers definitive, expected at least {least}")
            if point["warm_hits"] != point["definitive"]:
                failures.append(
                    f"{label} x{point['scale']}: warm pass hit the cache on "
                    f"{point['warm_hits']} of {jobs} jobs, expected the "
                    f"{point['definitive']} with definitive answers")
            if point["warm_s"] >= point["cold_s"]:
                failures.append(
                    f"{label} x{point['scale']}: warm pass "
                    f"({point['warm_s']:.3f}s) not faster than cold "
                    f"({point['cold_s']:.3f}s)")
    rungs = sum(p["cold"]["escalation_rungs"]
                for p in report["generated"]["disjunctive"])
    if rungs == 0:
        failures.append(
            "disjunctive sweep exercised no SAT escalation rungs")
    for point in report["bioportal"]:
        expected = 411 * point["scale"]
        if point["analysis"]["total"] != expected:
            failures.append(
                f"bioportal x{point['scale']}: analyzed "
                f"{point['analysis']['total']} ontologies, "
                f"expected {expected}")
        if point["analysis"]["dichotomy_band"] != 405 * point["scale"]:
            failures.append(
                f"bioportal x{point['scale']}: dichotomy band count "
                f"{point['analysis']['dichotomy_band']} does not scale "
                f"proportionally (expected {405 * point['scale']})")
    print(json.dumps(report, indent=2))
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def snapshot(path: str = "") -> int:
    """Pin the full 1×/10×/100× matrix into ``BENCH_workloads.json``.

    The snapshot records the commit it was measured at plus the sweep
    matrix — enough for the next PR to see whether scale-up throughput
    regressed without re-running the bench."""
    import datetime
    import os
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    report = measure(scales_cap=100)
    doc = {
        "commit": commit,
        "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "base_jobs": report["base_jobs"],
        "generated_sweep": report["generated"],
        "bioportal_sweep": report["bioportal"],
    }
    out = path or os.path.join(root, "BENCH_workloads.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"snapshot written to {out}")
    print(json.dumps(doc, indent=2))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    if "--snapshot" in argv:
        rest = [a for a in argv if a != "--snapshot"]
        return snapshot(rest[0] if rest else "")
    print(json.dumps(measure(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
