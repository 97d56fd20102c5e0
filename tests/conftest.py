"""Test-suite configuration.

The engine sanitizers (:mod:`repro.analysis.sanitizers`) are switched on
for the whole suite so that every chase run and every CDCL solve executed
by the tests is invariant-checked.  Set ``REPRO_SANITIZE=0`` in the
environment to opt out (e.g. when timing the engines).
"""

import os

os.environ.setdefault("REPRO_SANITIZE", "1")


import pytest


@pytest.fixture
def no_ambient_faults(monkeypatch):
    """Neutralize ``REPRO_FAULTS`` for tests that assert exact engine
    provenance (which engine answered, the ladder trace): under ambient
    fault injection (the CI fault job) those are legitimately perturbed,
    while verdicts must — and do — stay correct."""
    import repro.runtime.faults as faults
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(faults, "_cache", None)


@pytest.fixture
def cacheable():
    """``cacheable(outcome)``: whether a result with this outcome enters
    the answer cache — only definitive answers do.  Tests that count
    cache hits or entries derive them from their cold results with it,
    so their answer checks also run under ambient fault injection (the
    CI fault job), where a truncated chase may leave an answer to the
    SAT rung, whose yes holds only up to its null bound.  Without
    ``REPRO_FAULTS`` every answer those tests compute is definitive, and
    this asserts so."""
    def check(outcome):
        definitive = (outcome or {}).get("definitive") is not False
        assert definitive or os.environ.get("REPRO_FAULTS"), outcome
        return definitive
    return check
