"""Metrics, file-store write errors, memo-hit isolation and thread
safety of the process-global serving caches."""

import threading

import pytest

from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.serving import (
    AnswerCache, Counter, Histogram, MetricsRegistry, clear_caches,
    compile_omq, convert_ontology_cached, prometheus_name, render_prometheus,
)
from repro.serving.plan import _plan_cache
from repro.storage import DirectoryBackend

ONTO = ontology(
    "forall x (Hand(x) -> exists y (hasFinger(x,y)))", name="hands")
QUERY = "q() <- hasFinger(x,y)"


# -- percentiles (nearest-rank, satellite bugfix) -----------------------------


def test_p50_of_four_is_the_second_ranked_value():
    hist = Histogram("h")
    for v in (4.0, 2.0, 3.0, 1.0):
        hist.observe(v)
    summary = hist.summary()
    # nearest-rank: ceil(0.5 * 4) = 2nd smallest, NOT the 3rd.
    assert summary["p50"] == 2.0
    assert summary["p95"] == 4.0  # ceil(0.95 * 4) = 4th


def test_p95_of_hundred_is_the_95th_ranked_value():
    hist = Histogram("h")
    hist.extend([float(i) for i in range(1, 101)])
    summary = hist.summary()
    assert summary["p95"] == 95.0  # ceil(0.95 * 100) = 95, not 96
    assert summary["p50"] == 50.0


def test_percentiles_of_singleton_and_pair():
    single = Histogram("s")
    single.observe(7.0)
    assert single.summary()["p50"] == 7.0
    assert single.summary()["p95"] == 7.0
    pair = Histogram("p")
    pair.extend([1.0, 9.0])
    assert pair.summary()["p50"] == 1.0  # ceil(0.5 * 2) = 1st
    assert pair.summary()["p95"] == 9.0


def test_empty_histogram_summary():
    assert Histogram("e").summary() == {"count": 0}


# -- thread safety ------------------------------------------------------------


def test_counter_and_histogram_are_thread_safe():
    counter = Counter("c")
    hist = Histogram("h")

    def worker():
        for _ in range(1000):
            counter.inc()
            hist.observe(1.0)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 8000
    assert hist.summary()["count"] == 8000


# -- Prometheus rendering -----------------------------------------------------


def test_prometheus_name_sanitizes():
    assert prometheus_name("server.jobs_completed", "repro_") == \
        "repro_server_jobs_completed"
    assert prometheus_name("bad-name with spaces") == "bad_name_with_spaces"
    assert prometheus_name("9lives") == "_9lives"
    assert prometheus_name("") == "_"


def test_render_prometheus_counters_gauges_summaries():
    reg = MetricsRegistry()
    reg.counter("server.requests").inc(3)
    reg.histogram("job_seconds").extend([1.0, 2.0, 3.0, 4.0])
    text = render_prometheus(
        reg, extra_gauges={"uptime": 12.5, "queue.depth": 2.0})
    lines = text.splitlines()
    assert "# TYPE repro_server_requests counter" in lines
    assert "repro_server_requests 3" in lines
    assert "# TYPE repro_queue_depth gauge" in lines
    assert "repro_queue_depth 2" in lines  # integral floats drop the .0
    assert "# TYPE repro_uptime gauge" in lines
    assert "repro_uptime 12.5" in lines
    assert "# TYPE repro_job_seconds summary" in lines
    assert 'repro_job_seconds{quantile="0.5"} 2' in lines
    assert 'repro_job_seconds{quantile="0.95"} 4' in lines
    assert "repro_job_seconds_count 4" in lines
    assert "repro_job_seconds_sum 10" in lines
    assert text.endswith("\n")


def test_render_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry()) == "\n"


def test_render_prometheus_empty_histogram_has_no_quantiles():
    reg = MetricsRegistry()
    reg.histogram("idle")
    text = render_prometheus(reg)
    assert "repro_idle_count 0" in text
    assert "quantile" not in text


# -- file-store put failures --------------------------------------------------


def test_disk_cache_put_survives_unserializable_value(tmp_path):
    root = tmp_path / "d"
    cache = DirectoryBackend(root)
    cache.put("bad", {"oops": object()})  # TypeError inside json.dumps
    assert cache.write_errors == 1
    assert cache.stats()["write_errors"] == 1
    # No temp file was leaked into the cache directory.
    assert list(root.rglob("*.tmp")) == []
    assert cache.stats()["entries"] == 0
    # The failed put behaves as a miss, and the cache still works.
    assert cache.get("bad") is None
    cache.put("good", {"v": 1})
    assert cache.get("good") == {"v": 1}
    assert cache.write_errors == 1


def test_disk_cache_put_survives_unwritable_directory(tmp_path):
    import shutil

    root = tmp_path / "d"
    cache = DirectoryBackend(root)
    cache.put("k", {"v": 1})
    shutil.rmtree(root)  # the next write fails with OSError
    cache.put("k2", {"v": 2})
    assert cache.write_errors == 1
    assert not root.exists()


def test_answer_cache_swallows_disk_write_errors(tmp_path):
    cache = AnswerCache(backend=DirectoryBackend(tmp_path))
    value = {"v": object()}
    cache.put("k", value)  # memory accepts it, disk cannot serialize it
    assert cache.get("k") == value
    assert cache.stats()["backend"]["write_errors"] == 1


# -- memo-hit isolation -------------------------------------------------------


def test_memo_hit_returns_fresh_metrics_registry(no_ambient_faults):
    """A memo hit hands the caller the same warm plan; what one evaluation
    observed (engine, path) comes back in its own result, never as state
    on the shared plan that the next caller would inherit."""
    clear_caches()
    data = make_instance("Hand(h)")
    first = compile_omq(ONTO, QUERY)
    result = first.evaluate(data)
    assert result.outcome["engine"] == "chase"
    assert result.path == "ladder"
    second = compile_omq(ONTO, QUERY)
    assert second is first  # memoized plan object
    assert not hasattr(second, "metrics")
    again = second.evaluate(data)
    assert again.outcome["engine"] == "chase"
    assert again.path == "ladder"


# -- thread safety of the process-global caches (REPRO_SANITIZE=1) ------------


def test_concurrent_compile_and_clear_is_race_free():
    """Hammer the global plan/conversion caches from many threads while
    another clears them: no exception, no corrupted entry."""
    clear_caches()
    ontos = [
        ontology(f"forall x (A{i}(x) -> B{i}(x))", name=f"o{i}")
        for i in range(4)
    ]
    errors = []
    stop = threading.Event()

    def compiler(i):
        try:
            while not stop.is_set():
                plan = compile_omq(ontos[i % 4], f"q() <- B{i % 4}(x)")
                assert plan.onto is ontos[i % 4]
                convert_ontology_cached(ontos[i % 4])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def clearer():
        try:
            while not stop.is_set():
                clear_caches()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=compiler, args=(i,)) for i in range(6)]
    threads.append(threading.Thread(target=clearer))
    for t in threads:
        t.start()
    import time
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors


def test_plan_cache_lru_operations_are_locked():
    """Direct LRU hammering: concurrent get/put/clear/stats must keep the
    hit/miss accounting and the mapping itself consistent."""
    _plan_cache.clear()
    errors = []

    def worker(i):
        try:
            for j in range(500):
                _plan_cache.put(f"k{i}.{j % 10}", j)
                _plan_cache.get(f"k{(i + 1) % 8}.{j % 10}")
                _plan_cache.stats()
                len(_plan_cache)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = _plan_cache.stats()
    assert stats["hits"] + stats["misses"] == 8 * 500
    _plan_cache.clear()
