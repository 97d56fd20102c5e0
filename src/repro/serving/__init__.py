"""repro.serving — compile once, evaluate many times.

The paper's dichotomy is an invitation to treat OMQ evaluation as a
service: everything that depends only on the (ontology, query) pair —
lint preflight, rule conversion, escalation-ladder setup — happens once
per :class:`CompiledOMQ`, and per-instance evaluation becomes a cache
lookup or a single budgeted engine run.  The package provides:

* :mod:`~repro.serving.fingerprint` — stable content-addressed
  fingerprints for ontologies, queries and instances;
* :mod:`~repro.serving.cache` — an in-memory LRU in front of an optional
  durable tier (:mod:`repro.storage`) for certain-answer results, and the
  process-wide conversion cache that memoizes
  :func:`repro.semantics.rules.convert_ontology`;
* :mod:`~repro.serving.plan` — :class:`CompiledOMQ` and the memoizing
  :func:`compile_omq`.  A memoized plan is shared by every caller, so it
  holds only what the ontology, query and compile options determine; an
  answer cache is passed per call (``plan.evaluate(instance,
  cache=AnswerCache())``);
* :mod:`~repro.serving.batch` — :func:`evaluate_batch`: a workload of
  (instance, query) jobs fanned across a process pool under one split
  :class:`~repro.runtime.Budget`, supervised by
  :mod:`repro.resilience` — worker crashes are retried under escalated
  budgets, repeat crashers quarantined, and finished results optionally
  journaled for crash-safe ``--resume``;
* :mod:`~repro.serving.metrics` — counters and histograms: the batch
  report's latency summary and the serving daemon's ``/metrics``
  endpoint, whose point-in-time gauges the daemon computes per scrape.
  The report's other ``stats`` entries are counted from its per-job
  results.

Surfaced on the CLI as ``python -m repro batch``; see ``docs/serving.md``.
"""

from .batch import (
    BatchReport, Job, JobResult, comparable_report, evaluate_batch,
    job_key, jobs_from_entries, load_workload, make_worker_pool,
    quarantined_result,
)
from .cache import (
    AnswerCache, LRUCache, clear_caches, conversion_cache_stats,
    convert_ontology_cached,
)
from .fingerprint import (
    canonical_instance, canonical_ontology, canonical_query,
    fingerprint_instance, fingerprint_omq, fingerprint_ontology,
    fingerprint_query,
)
from .metrics import (
    Counter, Histogram, MetricsRegistry, prometheus_name,
    render_prometheus,
)
from .plan import (
    CompiledOMQ, EvalResult, clear_plan_cache, compile_omq, parse_query,
    plan_cache_stats,
)

__all__ = [
    "BatchReport", "Job", "JobResult", "comparable_report",
    "evaluate_batch", "job_key", "jobs_from_entries", "load_workload",
    "make_worker_pool", "quarantined_result",
    "AnswerCache", "LRUCache", "clear_caches",
    "conversion_cache_stats", "convert_ontology_cached",
    "canonical_instance", "canonical_ontology", "canonical_query",
    "fingerprint_instance", "fingerprint_omq", "fingerprint_ontology",
    "fingerprint_query",
    "Counter", "Histogram", "MetricsRegistry", "prometheus_name",
    "render_prometheus",
    "CompiledOMQ", "EvalResult", "clear_plan_cache", "compile_omq",
    "parse_query", "plan_cache_stats",
]
