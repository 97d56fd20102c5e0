"""Metrics, DiskCache write errors, memo metric isolation and thread
safety of the process-global serving caches."""

import threading

import pytest

from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.serving import (
    AnswerCache, Counter, DiskCache, Gauge, Histogram, MetricsRegistry,
    clear_caches, compile_omq, convert_ontology_cached, prometheus_name,
    render_prometheus,
)
from repro.serving.plan import _plan_cache

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


# -- registry merge and raw shipping ------------------------------------------


def test_registry_merge_sums_and_concatenates():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("hits").inc(2)
    b.counter("hits").inc(3)
    a.histogram("lat").observe(1.0)
    b.histogram("lat").extend([2.0, 3.0])
    a.merge(b)
    assert a.counter("hits").value == 5
    assert a.histogram("lat").summary()["count"] == 3


def test_to_raw_merge_raw_preserves_exact_observations():
    worker = MetricsRegistry()
    worker.counter("engine_chase").inc(4)
    worker.histogram("eval_seconds").extend([0.1, 0.2, 0.3, 0.4])
    driver = MetricsRegistry()
    driver.merge_raw(worker.to_raw())
    driver.merge_raw(worker.to_raw())
    assert driver.counter("engine_chase").value == 8
    summary = driver.histogram("eval_seconds").summary()
    assert summary["count"] == 8
    # Raw observations (not summaries) crossed the boundary: percentiles
    # over the merged population stay exact.
    assert summary["p50"] == 0.2


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


# -- gauges -------------------------------------------------------------------


def test_gauge_set_add_and_registry():
    gauge = Gauge("depth")
    gauge.set(5.0)
    gauge.add(2.0)
    gauge.add(-3.0)
    assert gauge.value == 4.0
    reg = MetricsRegistry()
    reg.gauge("g").set(7.0)
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.to_dict()["g"] == 7.0


def test_gauge_merge_last_write_wins():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("depth").set(10.0)
    b.gauge("depth").set(3.0)
    a.merge(b)
    assert a.gauge("depth").value == 3.0  # point-in-time: other's reading
    a.counter("hits").inc(2)  # counters still sum
    b2 = MetricsRegistry()
    b2.merge_raw(a.to_raw())
    assert b2.gauge("depth").value == 3.0
    assert b2.counter("hits").value == 2


def test_gauge_is_thread_safe():
    gauge = Gauge("g")

    def worker():
        for _ in range(1000):
            gauge.add(1.0)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert gauge.value == 8000.0


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
    reg.gauge("queue.depth").set(2.0)
    reg.histogram("job_seconds").extend([1.0, 2.0, 3.0, 4.0])
    text = render_prometheus(reg, extra_gauges={"uptime": 12.5})
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


# -- DiskCache.put (satellite bugfix) -----------------------------------------


def test_disk_cache_put_survives_unserializable_value(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("bad", {"oops": object()})  # TypeError inside json.dump
    assert cache.write_errors == 1
    assert cache.stats()["write_errors"] == 1
    # The temp file was unlinked, not leaked into the cache directory.
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.stats()["entries"] == 0
    # The failed put behaves as a miss, and the cache still works.
    assert cache.get("bad") is None
    cache.put("good", {"v": 1})
    assert cache.get("good") == {"v": 1}
    assert cache.write_errors == 1


def test_disk_cache_put_survives_unwritable_directory(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("k", {"v": 1})
    import shutil
    shutil.rmtree(tmp_path)  # mkstemp now fails with OSError
    cache.put("k2", {"v": 2})
    assert cache.write_errors == 1


def test_answer_cache_swallows_disk_write_errors(tmp_path):
    cache = AnswerCache(disk=DiskCache(tmp_path))
    value = {"v": object()}
    cache.put("k", value)  # memory accepts it, disk cannot serialize it
    assert cache.get("k") == value
    assert cache.stats()["disk"]["write_errors"] == 1


# -- memo-hit metrics isolation (satellite bugfix) ----------------------------


def test_memo_hit_returns_fresh_metrics_registry(no_ambient_faults):
    clear_caches()
    data = make_instance("Hand(h)")
    first = compile_omq(ONTO, QUERY)
    first.evaluate(data)
    assert first.metrics.counter("engine_chase").value == 1
    assert first.metrics.counter("ladder_evals").value == 1
    second = compile_omq(ONTO, QUERY)
    assert second is first  # memoized plan object
    # ... but the metrics registry is fresh: the previous caller's
    # observations must not leak into the new caller's report.
    assert second.metrics.counter("engine_chase").value == 0
    assert second.metrics.counter("ladder_evals").value == 0
    assert second.metrics.histogram("eval_seconds").summary() == {"count": 0}


def test_cache_hits_observe_their_own_histogram():
    clear_caches()
    data = make_instance("Hand(h)")
    plan = compile_omq(ONTO, QUERY, answer_cache=AnswerCache())
    plan.evaluate(data)  # miss: engine runs
    plan.evaluate(data)  # hit: lookup only
    stats = plan.stats()
    assert stats["answer_cache_hits"] == 1
    assert stats["eval_seconds"]["count"] == 1  # engine latency only
    assert stats["cache_hit_seconds"]["count"] == 1  # lookup latency apart


def test_reset_metrics_detaches_the_registry(no_ambient_faults):
    clear_caches()
    plan = compile_omq(ONTO, QUERY)
    plan.evaluate(make_instance("Hand(h)"))
    snapshot = plan.reset_metrics()
    assert snapshot.counter("engine_chase").value == 1
    assert plan.metrics.counter("engine_chase").value == 0
    assert snapshot.counter("ladder_evals").value == 1
    assert plan.metrics.counter("ladder_evals").value == 0


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
