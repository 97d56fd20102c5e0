"""Property: a storage backend is semantically invisible (ISSUE 8,
satellite 3).

For any backend behind the AnswerCache, ``evaluate_batch`` must produce
verdict-identical reports versus running with no cache at all — cold run,
warm run (same process), and shared run (fresh process-level caches over
the same durable store) all agree.  The same holds when jobs starve under
fault injection: UNKNOWN results are never persisted, so a starved run
cannot poison a later healthy one.
"""

import pytest

from repro.logic.ontology import ontology
from repro.runtime import Budget, FaultPlan, FaultSpec
from repro.serving import Job, clear_caches, evaluate_batch
from repro.storage import open_backend

HAND = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))")

QUERIES = [
    "q(x) <- hasFinger(x,y) & Thumb(y)",
    "q(y) <- Digit(y)",
    "q() <- Thumb(y)",
    "q(x) <- Hand(x)",
]


def hand_workload(n: int = 12) -> list[Job]:
    jobs = []
    for i in range(n):
        facts = ["Hand(h%d)" % (i % 3), "Arm(a)"]
        if i % 5 == 0:
            facts.append("Hand(extra)")
        jobs.append(Job(query=QUERIES[i % len(QUERIES)],
                        facts=tuple(facts), job_id=f"j{i}"))
    return jobs


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def backend_uri(kind, tmp_path):
    return {None: None,
            "dir": f"dir:{tmp_path}/d",
            "sqlite": f"sqlite:{tmp_path}/c.db"}[kind]


@pytest.mark.parametrize("kind", ["dir", "sqlite"])
class TestBackendIsInvisible:
    def test_cold_warm_shared_all_match_uncached(self, kind, tmp_path,
                                                 cacheable):
        jobs = hand_workload()
        baseline = evaluate_batch(HAND, jobs)
        reference = baseline.signatures()
        uri = backend_uri(kind, tmp_path)

        clear_caches()
        cold = evaluate_batch(HAND, jobs, cache_backend=uri)
        assert cold.signatures() == reference
        assert cold.stats["cache"]["hits"] == 0

        # Warm: same process, same memory tier.  Every job has its own
        # key, so a job hits exactly when its cold answer was cached.
        warm = evaluate_batch(HAND, jobs, cache_backend=uri)
        assert warm.signatures() == reference
        assert ([r.cache_hit for r in warm.results]
                == [cacheable(r.outcome) for r in cold.results])

        # Shared: fresh memory tier, answers come from the durable store.
        clear_caches()
        shared = evaluate_batch(HAND, jobs, cache_backend=uri)
        assert shared.signatures() == reference
        assert ([r.cache_hit for r in shared.results]
                == [cacheable(r.outcome) for r in warm.results])

    def test_pooled_workers_share_the_backend(self, kind, tmp_path):
        jobs = hand_workload(8)
        uri = backend_uri(kind, tmp_path)
        baseline = evaluate_batch(HAND, jobs).signatures()

        clear_caches()
        evaluate_batch(HAND, jobs, workers=2, cache_backend=uri)
        clear_caches()
        warm = evaluate_batch(HAND, jobs, workers=2, cache_backend=uri)
        assert warm.signatures() == baseline
        assert warm.stats["cache"]["hits"] > 0


@pytest.mark.parametrize("kind", ["dir", "sqlite"])
class TestStarvationNeverPoisonsTheCache:
    def test_starved_run_stores_nothing(self, kind, tmp_path,
                                        no_ambient_faults):
        jobs = hand_workload(4)
        uri = backend_uri(kind, tmp_path)
        budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]),
                        escalate=False)
        starved = evaluate_batch(HAND, jobs, cache_backend=uri,
                                 budget=budget)
        assert all(r.status == "unknown" for r in starved.results)
        with open_backend(uri) as backend:
            assert list(backend.scan()) == []  # UNKNOWN never stored

    def test_healthy_run_after_starvation_matches_baseline(
            self, kind, tmp_path, no_ambient_faults):
        jobs = hand_workload(8)
        uri = backend_uri(kind, tmp_path)
        reference = evaluate_batch(HAND, jobs).signatures()

        clear_caches()
        budget = Budget(faults=FaultPlan([FaultSpec("deadline", at=1)]),
                        escalate=False)
        evaluate_batch(HAND, jobs, cache_backend=uri, budget=budget)

        clear_caches()
        healthy = evaluate_batch(HAND, jobs, cache_backend=uri)
        assert healthy.signatures() == reference
        assert healthy.stats["cache"]["hits"] == 0  # nothing was poisoned

    def test_env_fault_starvation_with_shared_store(self, kind, tmp_path,
                                                    monkeypatch):
        # Ambient REPRO_FAULTS (rate-1 deadline spec) starves every job;
        # the shared store must stay empty and usable afterwards.
        import repro.runtime.faults as faults

        jobs = hand_workload(4)
        uri = backend_uri(kind, tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "deadline")
        faults._cache = None
        try:
            starved = evaluate_batch(
                HAND, jobs, cache_backend=uri,
                budget=Budget(escalate=False))
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults._cache = None
        assert all(r.status == "unknown" for r in starved.results)

        clear_caches()
        healthy = evaluate_batch(HAND, jobs, cache_backend=uri)
        assert healthy.stats["cache"]["hits"] == 0
        assert all(r.status != "unknown" for r in healthy.results)


def test_resume_journal_coexists_with_shared_cache(tmp_path, cacheable):
    # --resume replays finished jobs from the journal; unfinished ones
    # re-run and may hit the shared store. Signatures must match a
    # straight-through run either way.
    jobs = hand_workload(6)
    uri = f"sqlite:{tmp_path}/c.db"
    journal = tmp_path / "run.journal"
    reference = evaluate_batch(HAND, jobs).signatures()

    clear_caches()
    first = evaluate_batch(HAND, jobs[:3], cache_backend=uri,
                           journal=journal)
    clear_caches()
    resumed = evaluate_batch(HAND, jobs, cache_backend=uri,
                             journal=journal, resume=True)
    assert resumed.signatures() == reference
    # The first three came from the journal, the rest were evaluated
    # fresh; every definitive answer of either run went into the store.
    assert resumed.stats["resilience"]["resumed"] == 3
    assert resumed.stats["resilience"]["journal"]["appended"] == 3
    computed = first.results + resumed.results[3:]
    with open_backend(uri) as backend:
        puts = backend.stats()["lifetime"]["puts"]
    assert puts == sum(cacheable(r.outcome) for r in computed)
