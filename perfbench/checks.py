"""Answer checks.  A run whose answers fail one reports no figures."""

from __future__ import annotations

import itertools
import re
from typing import Any, Mapping

_ARGS = re.compile(r"\(([^)]*)\)")


class CheckFailed(AssertionError):
    """An answer check failed."""


def constants(facts) -> list[str]:
    """The constants named in a list of facts such as ``R(c1,c2)``."""
    out: set[str] = set()
    for fact in facts:
        match = _ARGS.search(fact)
        if match:
            out.update(a.strip() for a in match.group(1).split(",")
                       if a.strip())
    return sorted(out)


def is_inconsistent(facts) -> bool:
    """The generator's injected contradiction: ``D(c)`` and ``N(c)``."""
    facts = set(facts)
    return any(f"N({c})" in facts
               for c in (f[2:-1] for f in facts if f.startswith("D(")))


def arity(query: str) -> int:
    head = query.split("<-", 1)[0]
    inside = head[head.index("(") + 1:head.rindex(")")].strip()
    return len(inside.split(",")) if inside else 0


def answers_key(answers) -> tuple:
    return tuple(sorted(tuple(a) for a in answers))


def check_accounting(stats: Mapping[str, Any], jobs: int) -> None:
    """Every job is counted once, under exactly one status."""
    counted = sum(stats.get(k, 0)
                  for k in ("ok", "unknown", "error", "quarantined"))
    if stats.get("jobs") != jobs or counted != jobs:
        raise CheckFailed(f"job accounting: {counted} counted, "
                          f"{stats.get('jobs')} reported, {jobs} sent")


def check_storage(cache_stats: Mapping[str, Any]) -> None:
    """The durable tier took every write: no errors, breaker not tripped."""
    errors = cache_stats.get("backend", {}).get("write_errors", 0)
    if cache_stats.get("tripped") or errors:
        raise CheckFailed(f"durable tier: write breaker tripped="
                          f"{cache_stats.get('tripped')}, {errors} "
                          f"write error(s)")


def check_inconsistent(query: str, facts, status: str, verdict: str,
                       answers) -> None:
    """An inconsistent instance makes every tuple over its domain certain
    (and a Boolean query true)."""
    if status != "ok" or not is_inconsistent(facts):
        return
    n = arity(query)
    if n == 0:
        if verdict != "yes":
            raise CheckFailed(f"inconsistent instance answered {verdict!r} "
                              f"to {query}")
        return
    want = answers_key(itertools.product(constants(facts), repeat=n))
    if answers_key(answers) != want:
        raise CheckFailed(f"inconsistent instance: {query} answered "
                          f"{len(answers)} of {len(want)} tuples")


def check_same(label: str, expected: Mapping, got: Mapping) -> None:
    """Two evaluations of the same jobs agree on every job."""
    if expected.keys() != got.keys():
        raise CheckFailed(f"{label}: {len(expected)} vs {len(got)} jobs")
    for key, value in expected.items():
        if got[key] != value:
            raise CheckFailed(f"{label}: job {key} answered {got[key]!r}, "
                              f"expected {value!r}")


def check_tier(path) -> int:
    """The sqlite tier at *path* holds no UNKNOWN answer; returns entries."""
    from repro.storage.base import open_backend

    backend = open_backend(f"sqlite:{path}")
    try:
        keys = [info.key for info in backend.scan()]
        for key in keys:
            value = backend.get(key)
            if value is not None and value.get("verdict") == "unknown":
                raise CheckFailed(f"durable tier caches UNKNOWN under {key}")
    finally:
        backend.close()
    return len(keys)
