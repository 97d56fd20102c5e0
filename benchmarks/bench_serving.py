"""S1 — serving-layer performance: compile-once plans and warm caches.

The serving layer exists to amortize per-OMQ work (lint, rule conversion,
engine setup) and per-(plan, instance) work (certain-answer computation)
across a batch.  This bench measures both:

* **plan reuse** — evaluating N instances through one ``CompiledOMQ``
  versus constructing a fresh ``CertainEngine`` per instance;
* **answer cache** — a second pass over the same workload must be
  dominated by cache lookups and beat the cold pass;
* **batch equivalence** — ``evaluate_batch`` with 2 workers returns
  byte-identical job signatures to 1 worker (determinism is part of the
  performance contract: parallelism must be free to turn on);
* **tracer overhead** — the engine seams are instrumented with
  :mod:`repro.obs` spans; with tracing disabled (the default) those
  spans must be free.  The smoke gate fails when an activated disabled
  tracer costs more than 5% over the un-activated baseline.
* **journal overhead** — the crash-safe ``--journal`` appends one
  JSONL record per finished job (an unbuffered atomic write, never
  fsynced: resume recomputes whatever a machine crash loses); the smoke
  gate bounds its cost at 5% over the journal-less batch, so durability
  is cheap enough to leave on.
* **datalog fast path** — for PTIME-classified OMQs ``compile_omq``
  can ship the Theorem 5 Datalog(≠) rewriting instead of the chase
  ladder (``fastpath="auto"``); the smoke gate asserts the fast path
  returns the ladder's answers *and* beats it on wall clock.
* **fast-path crossover** — what the fast path costs to compile and
  what it saves per evaluation, against the ladder, from 10 to 400 facts
  (:func:`fastpath_crossover`, full run and ``--snapshot`` only, no
  gate): the measurement behind ``fastpath="off"`` as the one default.
* **storage backends** — the shared answer store behind ``AnswerCache``
  is pluggable (:mod:`repro.storage`); the smoke gate bounds the
  sqlite: warm-hit lookup at 25% over the dir: baseline, so choosing
  the backend with eviction and hit statistics stays cheap.
* **warm batch** — a warm job costs a key lookup
  (:func:`warm_batch`): the smoke gate bounds a warm 24-job batch on a
  ``dir:`` or ``sqlite:`` tier holding 5,000 other entries at 2x its
  cost on an empty tier, so nothing in a batch reads the whole tier.
* **serving daemon** — a warm ``repro serve`` process holds compiled
  plans and answer caches across requests; the smoke gate asserts a
  warm-server HTTP round trip beats a one-shot ``repro batch``
  subprocess (which pays interpreter start, imports and compilation
  every time) on the same workload.

Run under pytest-benchmark for statistics, standalone for a JSON report,
with ``--smoke`` as a CI gate, or with ``--snapshot`` to pin the numbers
into ``BENCH_serving.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py           # JSON report
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI assertions
    PYTHONPATH=src python benchmarks/bench_serving.py --snapshot  # pin numbers
"""

import json
import statistics
import sys
import time

import pytest

from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.obs import Tracer
from repro.semantics.certain import CertainEngine
from repro.serving import (
    AnswerCache, Job, clear_caches, compile_omq, evaluate_batch, parse_query,
)

ONTO_TEXT = (
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))")
ONTO = ontology(ONTO_TEXT, name="horn-hands")
QUERY = "q(x) <- hasFinger(x,y) & Thumb(y)"

QUERIES = [
    QUERY,
    "q(y) <- Digit(y)",
    "q() <- Thumb(y)",
    "q(x) <- Hand(x)",
]

# A PTIME OMQ the static gate provably accepts: A propagates along R, so
# certain membership in A is a reachability closure — exactly the shape
# where the Datalog fast path beats re-running the chase per instance.
FASTPATH_ONTO = ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))",
                         name="prop")
FASTPATH_QUERY = "q(x) <- A(x)"


def fastpath_instances(n: int = 8, chain: int = 6):
    """*n* R-chains, each seeded with one A fact at the head."""
    out = []
    for i in range(n):
        facts = [f"A(a{i})", f"R(a{i},a{i}_0)"]
        facts += [f"R(a{i}_{k},a{i}_{k + 1})" for k in range(chain)]
        out.append(make_instance(*facts))
    return out


def instances(n: int):
    """*n* distinct small databases (each a few Hand/hasFinger facts)."""
    out = []
    for i in range(n):
        facts = [f"Hand(h{i})", f"hasFinger(h{i},f{i})"]
        if i % 3 == 0:
            facts.append(f"Hand(g{i})")
        out.append(make_instance(*facts))
    return out


def workload(n: int = 24) -> list:
    return [Job(query=QUERIES[i % len(QUERIES)],
                facts=(f"Hand(h{i % 5})", "Arm(a)"), job_id=f"j{i}")
            for i in range(n)]


# -- pytest-benchmark entry points -------------------------------------------


def test_fresh_engine_per_instance(benchmark):
    data = instances(10)
    query = parse_query(QUERY)

    def run():
        for inst in data:
            CertainEngine(ONTO).certain_answers(inst, query)

    benchmark(run)


def test_compiled_plan_cold(benchmark):
    data = instances(10)

    def run():
        clear_caches()
        plan = compile_omq(ONTO, QUERY)
        for inst in data:
            plan.evaluate(inst)

    benchmark(run)


def test_compiled_plan_warm(benchmark):
    data = instances(10)
    clear_caches()
    plan, cache = compile_omq(ONTO, QUERY), AnswerCache()
    for inst in data:
        plan.evaluate(inst, cache=cache)  # populate

    def run():
        for inst in data:
            plan.evaluate(inst, cache=cache)

    benchmark(run)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch(benchmark, workers):
    jobs = workload()
    benchmark(lambda: evaluate_batch(ONTO, jobs, workers=workers))


@pytest.mark.parametrize("mode", ["off", "auto"])
def test_fastpath_vs_ladder(benchmark, mode):
    data = fastpath_instances()
    clear_caches()
    plan = compile_omq(FASTPATH_ONTO, FASTPATH_QUERY, fastpath=mode)

    def run():
        for inst in data:
            plan.evaluate(inst)

    run()  # warm
    benchmark(run)


# -- standalone measurement ---------------------------------------------------


def _median_seconds(fn, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _best_seconds(fn, repeats: int = 9) -> float:
    """Min-of-repeats: the standard statistic for overhead comparisons
    (the minimum is the least noise-contaminated observation)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _paired_best(fn_a, fn_b, repeats: int = 15) -> tuple:
    """Min-of-repeats for two functions, interleaved A,B,A,B,...

    Timing the blocks back-to-back lets machine drift (thermal, CPU
    contention) land entirely on one side and fake an overhead; the
    alternation exposes both sides to the same drift, so the two minima
    are comparable."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def journal_jobs(n: int = 12, hands: int = 2) -> list:
    """Jobs sized like real OMQ evaluations (~3ms of chase/SAT work).

    The journal's per-record floor (build + serialize + one ``os.write``)
    is ~40µs of Python, which is 7% of one ~600µs toy job from
    :func:`workload` but <2% of a realistically-sized one.  A ratio gate
    over sub-millisecond jobs would measure the serialization floor, not
    the journal design, so the overhead pass uses instances with enough
    existential triggers for the engine to do representative work.
    """
    return [Job(query=QUERIES[i % len(QUERIES)],
                facts=tuple(f"Hand(h{i}_{k})" for k in range(hands))
                + (f"Arm(a{i})",),
                job_id=f"hj{i}")
            for i in range(n)]


def journal_overhead(repeats: int = 9) -> dict:
    """Cost of running a batch with the crash-safe journal enabled.

    Both passes run the same workload serially with cold answer caches;
    the second appends every finished job to a fresh JSONL journal (one
    unbuffered ``os.write`` per record and no fsync, as
    :func:`evaluate_batch` opens it).  The smoke
    gate bounds the ratio at 5% — durability must be cheap enough to
    leave on.  The passes are interleaved (:func:`_paired_best`) so
    machine drift cannot masquerade as journal cost.
    """
    import itertools
    import os
    import tempfile

    jobs = journal_jobs(24)

    def baseline():
        clear_caches()
        evaluate_batch(ONTO, jobs, workers=1)

    tmpdir = tempfile.mkdtemp(prefix="bench-journal-")
    counter = itertools.count()

    def journaled():
        # A fresh path per pass, as in real use: every batch starts its
        # own journal.  Reusing one path would O_TRUNC the previous pass's
        # file, and ext4 starts writeback of a truncated-then-rewritten
        # file when it is closed (auto_da_alloc): ~40 ms per pass on an
        # ext4 virtio disk, against ~11 us for a new file — a filesystem
        # cost no real batch pays.
        clear_caches()
        evaluate_batch(ONTO, jobs, workers=1,
                       journal=os.path.join(tmpdir, f"b{next(counter)}.jsonl"))

    baseline()  # warm the plan/conversion caches shared by both passes
    base_s, journaled_s = _paired_best(baseline, journaled, max(repeats, 15))
    for name in os.listdir(tmpdir):
        os.unlink(os.path.join(tmpdir, name))
    os.rmdir(tmpdir)
    return {
        "baseline_s": round(base_s, 6),
        "journaled_s": round(journaled_s, 6),
        "overhead_ratio": round(journaled_s / base_s, 4) if base_s else 1.0,
    }


def tracer_overhead(repeats: int = 9) -> dict:
    """Cost of the instrumented seams when nobody is tracing.

    Both passes run the same uncached evaluations; the second runs under
    an explicitly activated ``Tracer(enabled=False)``, which must behave
    exactly like the ambient ``NULL_TRACER`` default (the null-span fast
    path).  Reported ratio should be ~1.0.
    """
    data = instances(10)
    clear_caches()
    plan = compile_omq(ONTO, QUERY)  # no answer cache: every pass hits the engine

    def baseline():
        for inst in data:
            plan.evaluate(inst)

    disabled = Tracer(enabled=False)

    def under_disabled_tracer():
        with disabled.activate():
            for inst in data:
                plan.evaluate(inst)

    baseline()  # warm plan/conversion caches before timing
    base_s, traced_s = _paired_best(baseline, under_disabled_tracer,
                                    max(repeats, 15))
    return {
        "baseline_s": round(base_s, 6),
        "disabled_tracer_s": round(traced_s, 6),
        "overhead_ratio": round(traced_s / base_s, 4) if base_s else 1.0,
    }


def fastpath_comparison(repeats: int = 9) -> dict:
    """The Datalog fast path against the chase ladder on the same OMQ.

    Both plans compile once (rewriting construction is *not* timed — it
    is a per-OMQ cost the plan cache amortizes away) and evaluate the
    same instances with no answer cache, so the ratio isolates engine
    time.  ``answers_agree`` is the correctness half of the gate: the
    speedup is worthless unless the fast path returns exactly the
    ladder's certain answers on every instance.
    """
    data = fastpath_instances()
    clear_caches()
    fast = compile_omq(FASTPATH_ONTO, FASTPATH_QUERY, fastpath="auto")
    ladder = compile_omq(FASTPATH_ONTO, FASTPATH_QUERY)
    agree = all(
        set(fast.evaluate(inst).answers) == set(ladder.evaluate(inst).answers)
        for inst in data)  # also warms both plans

    def run_fast():
        for inst in data:
            fast.evaluate(inst)

    def run_ladder():
        for inst in data:
            ladder.evaluate(inst)

    ladder_s, fast_s = _paired_best(run_ladder, run_fast, max(repeats, 15))

    jobs = [Job(query=FASTPATH_QUERY,
                facts=(f"A(b{i})", f"R(b{i},c{i})"), job_id=f"f{i}")
            for i in range(12)]
    clear_caches()
    batch = evaluate_batch(FASTPATH_ONTO, jobs, fastpath="auto")
    paths = batch.stats["paths"]
    engine_evals = sum(n for p, n in paths.items() if p != "cache")
    return {
        "plan_kind": fast.plan_kind,
        "answers_agree": agree,
        "ladder_s": round(ladder_s, 6),
        "fastpath_s": round(fast_s, 6),
        "speedup": round(ladder_s / fast_s, 4) if fast_s else float("inf"),
        "batch_paths": paths,
        "batch_hit_rate": (round(paths.get("fastpath", 0) / engine_evals, 4)
                           if engine_evals else 0.0),
    }


#: Instance sizes, in facts, of the crossover sweep.
CROSSOVER_SIZES = (10, 25, 50, 100, 200, 400)


def hands_facts(n: int) -> list:
    """*n* horn-hands facts: ``Hand(h_i)`` and ``hasFinger(h_i,f_i)``."""
    return [fact for i in range(n // 2)
            for fact in (f"Hand(h{i})", f"hasFinger(h{i},f{i})")]


def chain_facts(n: int, length: int = 8) -> list:
    """*n* facts of R-chains with *length* facts each, A at every head."""
    facts = []
    while len(facts) < n:
        i = len(facts) // length
        facts += [f"A(a{i}_0)"] + [f"R(a{i}_{k},a{i}_{k + 1})"
                                   for k in range(length - 1)]
    return facts[:n]


def fastpath_crossover(repeats: int = 3) -> dict:
    """Fast-path compile time and per-evaluation time, against the ladder.

    For horn-hands (:data:`QUERY`) and prop chains (:data:`FASTPATH_ONTO`)
    at :data:`CROSSOVER_SIZES` facts, and for one ``repro.chaos`` horn
    workload at its default 10-fact instances: the ``fastpath="auto"``
    compile from cold caches, then best-of-*repeats* seconds per
    evaluation on warm plans with no answer cache, for the ladder, the
    emitted program and (sweeps only) the type fixpoint that the program
    is emitted from.  ``break_even_evaluations`` is how many evaluations
    of one plan repay the compile; ``crossover_facts`` the smallest size
    where the program evaluates faster than the ladder.
    """
    from repro.chaos import WorkloadSpec, generate_workload
    from repro.core.rewriting import TypeRewriting

    def per_eval(plan, inst) -> float:
        return _best_seconds(lambda: plan.evaluate(inst), repeats)

    report = {}
    for family, onto, query, facts in (
            ("horn-hands", ONTO, QUERY, hands_facts),
            ("prop-chains", FASTPATH_ONTO, FASTPATH_QUERY, chain_facts)):
        clear_caches()
        t0 = time.perf_counter()
        fast = compile_omq(onto, query, fastpath="auto")
        compile_s = time.perf_counter() - t0
        ladder = compile_omq(onto, query)
        rewriting = TypeRewriting(onto, parse_query(query))
        sizes = []
        for n in CROSSOVER_SIZES:
            inst = make_instance(*facts(n))
            agree = (ladder.evaluate(inst).answers
                     == fast.evaluate(inst).answers)  # also warms both
            ladder_s, fast_s = per_eval(ladder, inst), per_eval(fast, inst)
            saved = ladder_s - fast_s
            sizes.append({
                "facts": n,
                "ladder_s": round(ladder_s, 6),
                "fastpath_s": round(fast_s, 6),
                "fixpoint_s": round(_best_seconds(
                    lambda: rewriting.answers(inst), repeats), 6),
                "answers_agree": agree,
                "break_even_evaluations": (
                    int(compile_s / saved) + 1 if saved > 0 else None),
            })
        report[family] = {
            "plan_kind": fast.plan_kind,
            "compile_s": round(compile_s, 6),
            "crossover_facts": next((row["facts"] for row in sizes
                                     if row["fastpath_s"] < row["ladder_s"]),
                                    None),
            "sizes": sizes,
        }

    spec = WorkloadSpec(seed=2017, family="horn")
    generated = generate_workload(spec)
    onto = generated.ontology()
    clear_caches()
    compile_s = ladder_s = fast_s = 0.0
    agree, fast_jobs = True, 0
    for job in generated.jobs:
        t0 = time.perf_counter()
        fast = compile_omq(onto, job["query"], fastpath="auto")
        compile_s += time.perf_counter() - t0
        ladder = compile_omq(onto, job["query"])
        inst = make_instance(*job["facts"])
        agree &= ladder.evaluate(inst).answers == fast.evaluate(inst).answers
        fast_jobs += fast.plan_kind == "datalog-fastpath"
        ladder_s += per_eval(ladder, inst)
        fast_s += per_eval(fast, inst)
    jobs = len(generated.jobs)
    report["chaos-horn"] = {
        "seed": spec.seed,
        "facts": spec.instance_size,
        "jobs": jobs,
        "fastpath_jobs": fast_jobs,
        "compile_s": round(compile_s, 6),
        "ladder_s": round(ladder_s / jobs, 6),
        "fastpath_s": round(fast_s / jobs, 6),
        "answers_agree": agree,
    }
    return report


def storage_comparison(repeats: int = 9) -> dict:
    """Warm-hit lookup latency per storage backend (ISSUE 8 gate).

    A warm hit — the durable tier serving an answer already stored — is
    the operation a shared cache performs thousands of times per batch,
    so it is the one whose cost decides backend choice.  Each backend is
    pre-populated with the same entries; a pass reads them all back.
    The dir: backend (the flat file store, one ``<key>.json`` per entry)
    is the baseline; sqlite: is paired against it (:func:`_paired_best`,
    so machine drift hits both sides equally) and gated at ≤25%
    overhead.
    """
    import os
    import shutil
    import tempfile

    from repro.serving.fingerprint import digest
    from repro.storage import open_backend

    tmpdir = tempfile.mkdtemp(prefix="bench-storage-")
    keys = [digest(f"bench-{i}") for i in range(32)]
    value = {"verdict": "yes", "answers": [["a"], ["b"]], "pad": "x" * 128}

    uris = {
        "dir": f"dir:{os.path.join(tmpdir, 'd')}",
        "sqlite": f"sqlite:{os.path.join(tmpdir, 'c.db')}",
    }
    backends = {name: open_backend(uri) for name, uri in uris.items()}
    try:
        for backend in backends.values():
            for key in keys:
                backend.put(key, value)

        def reader(backend):
            def run():
                for key in keys:
                    if backend.get(key) is None:
                        raise RuntimeError("warm hit missed")
            return run

        dir_s, sqlite_s = _paired_best(reader(backends["dir"]),
                                       reader(backends["sqlite"]),
                                       max(repeats, 15))
        return {
            "entries": len(keys),
            "dir": {"warm_hit_s": round(dir_s, 6)},
            "sqlite": {
                "warm_hit_s": round(sqlite_s, 6),
                "overhead_vs_dir": (round(sqlite_s / dir_s, 4)
                                    if dir_s else 1.0),
            },
        }
    finally:
        for backend in backends.values():
            backend.close()
        shutil.rmtree(tmpdir, ignore_errors=True)


def warm_batch(repeats: int = 9, filler: int = 5000) -> dict:
    """Microseconds per warm hit of the 24-job horn-hands batch
    (:func:`workload`), per backend, on a tier holding only its answers
    and on one holding *filler* unrelated entries besides.

    A warm job costs a key lookup, and nothing in the batch reads the
    whole tier, so the filled tier must cost about what the empty one
    does (the smoke gate allows 2x).  Each call starts from empty
    in-memory caches and opens its own handle, as a ``repro batch``
    process does; the empty and filled tiers of one backend are
    interleaved (:func:`_paired_best`).
    """
    import os
    import shutil
    import tempfile

    from repro.serving.fingerprint import digest
    from repro.storage import open_backend

    tmpdir = tempfile.mkdtemp(prefix="bench-warm-")
    jobs = workload()
    value = {"verdict": "yes", "answers": [["a"]], "outcome": None}

    def warm(uri):
        def run():
            clear_caches()
            report = evaluate_batch(ONTO, jobs, cache_backend=uri)
            if report.stats["cache"]["hits"] != len(jobs):
                raise RuntimeError(f"warm batch missed on {uri}")
        return run

    out: dict = {"jobs": len(jobs), "filler_entries": filler}
    try:
        for scheme in ("dir", "sqlite"):
            uris = [f"{scheme}:{os.path.join(tmpdir, f'{scheme}-{kind}')}"
                    for kind in ("empty", "filled")]
            with open_backend(uris[1]) as backend:
                for i in range(filler):
                    backend.put(digest(f"filler-{i}"), value)
            for uri in uris:
                clear_caches()
                evaluate_batch(ONTO, jobs, cache_backend=uri)
            empty_s, filled_s = _paired_best(warm(uris[0]), warm(uris[1]),
                                             max(repeats, 15))
            out[scheme] = {
                "empty_us_per_hit": round(1e6 * empty_s / len(jobs), 1),
                "filled_us_per_hit": round(1e6 * filled_s / len(jobs), 1),
                "filled_vs_empty": round(filled_s / empty_s, 4),
            }
        return out
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def server_entries(n: int = 12) -> list:
    """The :func:`workload` jobs as inline-facts wire entries — the only
    job shape the daemon's submit API accepts."""
    return [{"id": f"j{i}",
             "query": QUERIES[i % len(QUERIES)],
             "facts": [f"Hand(h{i % 5})", "Arm(a)"]}
            for i in range(n)]


def server_comparison(repeats: int = 5) -> dict:
    """Warm-server round trip against a one-shot ``repro batch`` process.

    The daemon's reason to exist is amortization: a long-lived process
    keeps compiled plans, conversion caches and the answer cache warm, so
    a request only pays for evaluation (and, on a repeat workload, only
    for cache lookups).  A one-shot ``repro batch`` subprocess pays the
    interpreter start, the imports and the per-OMQ compilation on every
    invocation.  Both sides run the same inline-facts workload; the
    server side times a full HTTP submit→poll→result round trip (protocol
    overhead included), the one-shot side times the subprocess end to end.
    """
    import http.client
    import os
    import subprocess
    import tempfile

    from repro.server import ReproServer

    entries = server_entries()
    payload = json.dumps({"ontology": ONTO_TEXT, "jobs": entries})

    clear_caches()
    srv = ReproServer(workers=1)
    srv.start()
    try:
        def roundtrip() -> float:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                              timeout=120)
            try:
                t0 = time.perf_counter()
                conn.request("POST", "/v1/jobsets", body=payload,
                             headers={"Content-Type": "application/json",
                                      "X-Client": "bench"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
                if resp.status != 202:
                    raise RuntimeError(f"submit rejected: {body}")
                jobset_id = body["id"]
                while True:
                    conn.request("GET", f"/v1/jobsets/{jobset_id}/result")
                    resp = conn.getresponse()
                    result = json.loads(resp.read())
                    if resp.status == 200:
                        break
                elapsed = time.perf_counter() - t0
                if result.get("status") != "done":
                    raise RuntimeError(f"jobset not done: {result}")
                return elapsed
            finally:
                conn.close()

        first_s = roundtrip()  # cold: compiles plans, fills caches
        warm_s = min(roundtrip() for _ in range(max(repeats, 3)))
    finally:
        srv.stop()

    # One-shot baseline: the same workload through a fresh `repro batch`
    # process, paying interpreter + import + compile cold-start each time.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tmpdir = tempfile.mkdtemp(prefix="bench-serve-")
    onto_path = os.path.join(tmpdir, "onto.gf")
    jobs_path = os.path.join(tmpdir, "jobs.json")
    with open(onto_path, "w") as fh:
        fh.write(ONTO_TEXT + "\n")
    with open(jobs_path, "w") as fh:
        json.dump(entries, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_FAULTS", None)

    def oneshot() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "batch", onto_path,
             "--workload", jobs_path],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"one-shot batch failed: {proc.stderr}")
        return elapsed

    try:
        oneshot_s = min(oneshot() for _ in range(2))
    finally:
        for name in os.listdir(tmpdir):
            os.unlink(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)

    return {
        "jobs": len(entries),
        "server_first_request_s": round(first_s, 6),
        "server_warm_request_s": round(warm_s, 6),
        "batch_oneshot_s": round(oneshot_s, 6),
        "warm_vs_oneshot_speedup": (round(oneshot_s / warm_s, 4)
                                    if warm_s else float("inf")),
    }


def measure(repeats: int = 7) -> dict:
    data = instances(10)
    query = parse_query(QUERY)

    def fresh_engines():
        for inst in data:
            engine = CertainEngine(ONTO)
            engine.certain_answers(inst, query)

    clear_caches()
    cache = AnswerCache()
    plan = compile_omq(ONTO, QUERY)

    def cold():
        cache.memory.clear()
        for inst in data:
            plan.evaluate(inst, cache=cache)

    def warm():
        for inst in data:
            plan.evaluate(inst, cache=cache)

    cold()  # populate the answer cache for the warm pass
    report = {
        "fresh_engine_s": _median_seconds(fresh_engines, repeats),
        "plan_cold_s": _median_seconds(cold, repeats),
        "plan_warm_s": _median_seconds(warm, repeats),
    }
    report["warm_speedup"] = (
        report["plan_cold_s"] / report["plan_warm_s"]
        if report["plan_warm_s"] else float("inf"))

    jobs = workload()
    clear_caches()
    serial = evaluate_batch(ONTO, jobs, workers=1)
    clear_caches()
    parallel = evaluate_batch(ONTO, jobs, workers=2)
    report["batch"] = {
        "jobs": len(jobs),
        "serial_wall_s": serial.stats["wall_seconds"],
        "parallel_wall_s": parallel.stats["wall_seconds"],
        "serial_cache_hit_rate": serial.stats["cache"]["hit_rate"],
        "workers_agree": serial.signatures() == parallel.signatures(),
    }
    report["tracer"] = tracer_overhead(repeats)
    report["journal"] = journal_overhead(repeats)
    report["fastpath"] = fastpath_comparison(repeats)
    report["storage"] = storage_comparison(repeats)
    report["warm_batch"] = warm_batch(repeats)
    report["server"] = server_comparison(repeats)
    return report


def smoke() -> int:
    """CI gate: warm beats cold, worker count cannot change results, the
    disabled tracer and the enabled journal each cost at most 5% over
    their baselines, the datalog fast path matches and beats the ladder,
    sqlite: warm hits stay within 25% of dir:, a warm batch costs at
    most 2x more next to 5,000 other entries, and a warm serving daemon
    beats a one-shot batch subprocess."""
    report = measure(repeats=5)
    # Overhead gates, best-of-3: on a contended machine a single paired
    # measurement has noise tails well past 5% in either direction (the
    # disabled tracer, whose true overhead is ~0, can read 1.1x).  Each
    # re-measurement is independent noise around the true ratio, so the
    # floor over a few attempts converges on the truth; only a gate that
    # still reads high after re-measurement is a real regression.
    for key, remeasure in (("tracer", tracer_overhead),
                           ("journal", journal_overhead)):
        for _ in range(2):
            if report[key]["overhead_ratio"] <= 1.05:
                break
            retry = remeasure(repeats=5)
            if retry["overhead_ratio"] < report[key]["overhead_ratio"]:
                report[key] = retry
    failures = []
    if report["plan_warm_s"] >= report["plan_cold_s"]:
        failures.append(
            f"warm-cache pass not faster than cold: "
            f"warm={report['plan_warm_s']:.6f}s cold={report['plan_cold_s']:.6f}s")
    if not report["batch"]["workers_agree"]:
        failures.append("evaluate_batch: --jobs 2 results differ from --jobs 1")
    ratio = report["tracer"]["overhead_ratio"]
    if ratio > 1.05:
        failures.append(
            f"disabled-tracer overhead {ratio:.4f}x exceeds the 5% budget")
    journal_ratio = report["journal"]["overhead_ratio"]
    if journal_ratio > 1.05:
        failures.append(
            f"journal overhead {journal_ratio:.4f}x exceeds the 5% budget")
    fp = report["fastpath"]
    if fp["plan_kind"] != "datalog-fastpath":
        failures.append("static gate refused the known-PTIME fastpath OMQ")
    if not fp["answers_agree"]:
        failures.append("fastpath answers differ from the ladder's")
    for _ in range(2):
        # speedup gate, best-of-3 like the overhead gates: re-measure
        # before declaring a regression on a contended machine
        if fp["speedup"] > 1.0:
            break
        retry = fastpath_comparison(repeats=5)
        if retry["speedup"] > fp["speedup"]:
            report["fastpath"] = fp = retry
    if fp["speedup"] <= 1.0:
        failures.append(
            f"fastpath ({fp['fastpath_s']:.6f}s) does not beat the "
            f"ladder ({fp['ladder_s']:.6f}s)")
    for _ in range(2):
        # storage gate, best-of-3 like the overhead gates: the sqlite
        # warm-hit path must stay within 25% of the dir: baseline
        if report["storage"]["sqlite"]["overhead_vs_dir"] <= 1.25:
            break
        retry = storage_comparison(repeats=5)
        if (retry["sqlite"]["overhead_vs_dir"]
                < report["storage"]["sqlite"]["overhead_vs_dir"]):
            report["storage"] = retry
    overhead = report["storage"]["sqlite"]["overhead_vs_dir"]
    if overhead > 1.25:
        failures.append(
            f"sqlite: warm-hit lookup {overhead:.4f}x the dir: "
            f"baseline exceeds the 25% budget")
    for _ in range(2):
        # warm-batch gate, best-of-3: a tier of 5,000 other entries may
        # cost a warm hit at most 2x what the empty tier does
        if max(report["warm_batch"][s]["filled_vs_empty"]
               for s in ("dir", "sqlite")) <= 2.0:
            break
        retry = warm_batch(repeats=5)
        for scheme in ("dir", "sqlite"):
            if (retry[scheme]["filled_vs_empty"]
                    < report["warm_batch"][scheme]["filled_vs_empty"]):
                report["warm_batch"][scheme] = retry[scheme]
    for scheme in ("dir", "sqlite"):
        ratio = report["warm_batch"][scheme]["filled_vs_empty"]
        if ratio > 2.0:
            failures.append(
                f"warm batch on a {scheme}: tier of 5,000 other entries "
                f"costs {ratio:.2f}x the empty tier's (gate: 2x)")
    for _ in range(2):
        # warm-server gate, best-of-3: the one-shot side includes a full
        # interpreter start, so the margin is normally huge, but a loaded
        # CI box can stall the HTTP poll loop — re-measure before failing
        if report["server"]["warm_vs_oneshot_speedup"] > 1.0:
            break
        retry = server_comparison(repeats=3)
        if retry["warm_vs_oneshot_speedup"] > \
                report["server"]["warm_vs_oneshot_speedup"]:
            report["server"] = retry
    srv_cmp = report["server"]
    if srv_cmp["warm_vs_oneshot_speedup"] <= 1.0:
        failures.append(
            f"warm server ({srv_cmp['server_warm_request_s']:.6f}s) does "
            f"not beat one-shot batch ({srv_cmp['batch_oneshot_s']:.6f}s)")
    print(json.dumps(report, indent=2))
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def snapshot(path: str = "") -> int:
    """Pin the current numbers into ``BENCH_serving.json``.

    The snapshot records the commit it was measured at plus the headline
    timings — enough for the next PR to see whether the serving layer
    got slower without re-running the full bench matrix.
    """
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
    report = measure(repeats=5)
    doc = {
        "commit": commit,
        "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "plan_cold_s": round(report["plan_cold_s"], 6),
        "plan_warm_s": round(report["plan_warm_s"], 6),
        "warm_speedup": round(report["warm_speedup"], 4),
        "batch": report["batch"],
        "tracer_overhead_ratio": report["tracer"]["overhead_ratio"],
        "journal_overhead_ratio": report["journal"]["overhead_ratio"],
        "fastpath": report["fastpath"],
        "storage": report["storage"],
        "warm_batch": report["warm_batch"],
        "server": report["server"],
        "fastpath_crossover": fastpath_crossover(),
    }
    out = path or os.path.join(root, "BENCH_serving.json")
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
    report = measure()
    report["fastpath_crossover"] = fastpath_crossover()
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
