"""Service metrics: counters and latency histograms.

Deliberately tiny and dependency-free: a :class:`Counter` is an integer, a
:class:`Histogram` keeps its raw observations (serving workloads are
thousands of jobs, not millions of requests) and summarizes them as
count/min/max/mean/p50/p95.  A :class:`MetricsRegistry` groups both;
:func:`render_prometheus` renders a registry, plus the point-in-time
gauges its caller passes (queue depth, uptime), in the Prometheus text
exposition format for the serving daemon's ``/metrics`` endpoint, and a
batch report summarizes its per-job latencies with a :class:`Histogram`.

All of them are **thread-safe**: spans and counters are written from
engine internals (the tracing layer of :mod:`repro.obs`) and from the
daemon's request threads, not just the single-threaded batch driver, so
increments, observations and registry creation take a lock.  Percentiles
use the nearest-rank definition (``ceil(q*n)``-th smallest observation),
so p50 of ``[1, 2, 3, 4]`` is 2 and p95 of 100 observations is the 95th —
not the 96th — ranked value.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field


@dataclass
class Counter:
    name: str
    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def inc(self, by: int = 1) -> None:
        with self._lock:
            self.value += by


@dataclass
class Histogram:
    name: str
    observations: list[float] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def observe(self, value: float) -> None:
        with self._lock:
            self.observations.append(value)

    def extend(self, values: list[float]) -> None:
        with self._lock:
            self.observations.extend(values)

    def summary(self) -> dict[str, float | int]:
        with self._lock:
            obs = sorted(self.observations)
        if not obs:
            return {"count": 0}

        def pct(q: float) -> float:
            # Nearest-rank: the ceil(q*n)-th smallest value (1-indexed).
            idx = max(0, math.ceil(q * len(obs)) - 1)
            return obs[idx]

        return {
            "count": len(obs),
            "min": round(obs[0], 6),
            "max": round(obs[-1], 6),
            "mean": round(sum(obs) / len(obs), 6),
            "p50": round(pct(0.50), 6),
            "p95": round(pct(0.95), 6),
        }


class MetricsRegistry:
    """A named bag of counters and histograms (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self.counters.setdefault(name, Counter(name))

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self.histograms.setdefault(name, Histogram(name))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            name: c.value for name, c in sorted(self.counters.items())}
        for name, hist in sorted(self.histograms.items()):
            out[name] = hist.summary()
        return out

    def __repr__(self) -> str:
        return f"<MetricsRegistry {self.to_dict()!r}>"


# -- Prometheus text exposition ----------------------------------------------

_PROM_OK_FIRST = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_PROM_OK = _PROM_OK_FIRST | frozenset("0123456789")


def prometheus_name(name: str, prefix: str = "") -> str:
    """Sanitize *name* into a legal Prometheus metric name.

    Illegal characters (dots, dashes, spaces) become underscores; a name
    starting with a digit gains a leading underscore.
    """
    full = f"{prefix}{name}" if prefix else name
    cleaned = "".join(ch if ch in _PROM_OK else "_" for ch in full)
    if not cleaned or cleaned[0] not in _PROM_OK_FIRST:
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    # Prometheus floats: integers render without the trailing ".0".
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro_",
                      extra_gauges: "dict[str, float] | None" = None) -> str:
    """Render *registry* in the Prometheus text exposition format (v0.0.4).

    Counters render as ``counter``, *extra_gauges* — the caller's
    point-in-time values (queue depth, uptime) — as ``gauge`` and
    histograms as ``summary`` (``_count``/``_sum`` plus p50/p95
    ``quantile`` series from the registry's exact nearest-rank
    percentiles).  Names are sanitized via :func:`prometheus_name`.
    """
    lines: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counter.value)}")
    gauges = extra_gauges or {}
    for name in sorted(gauges):
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(gauges[name])}")
    for name, hist in sorted(registry.histograms.items()):
        metric = prometheus_name(name, prefix)
        summary = hist.summary()
        with hist._lock:
            total = sum(hist.observations)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
            if key in summary:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} '
                    f"{_fmt(summary[key])}")
        lines.append(f"{metric}_count {summary['count']}")
        lines.append(f"{metric}_sum {_fmt(round(total, 6))}")
    return "\n".join(lines) + "\n"
