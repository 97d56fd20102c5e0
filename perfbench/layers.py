"""Per-layer accounting for the traced benchmark run.

The traced run wraps the public functions each layer exposes, at the
module attribute its caller looks up (most callers bind names with
``from x import y``, so ``chase`` is wrapped as
``repro.semantics.certain.chase``).  Each wrapper records the call's
*self* time: its duration minus the wrapped calls nested inside it.  The
stack of open calls is per thread, so the same wrappers work inside the
serve daemon, whose dispatcher thread does the evaluation.

Work counts that only the program's own spans carry (chase steps and
branches, CDCL conflicts, SAT clauses, Datalog join candidates) come
from a ``repro.obs.Tracer`` handed to ``evaluate_batch``;
:func:`span_counts` folds its spans.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable


class Totals:
    """Calls, self seconds and counters per key (thread-safe)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()

    def record(self, key: str, self_s: float) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.seconds[key] = self.seconds.get(key, 0.0) + self_s

    def count(self, key: str, by: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + by

    def to_dict(self) -> dict[str, dict]:
        with self._lock:
            return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                    "counts": dict(self.counts)}


class Wrappers:
    """Installs timing wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, totals: Totals):
        self.totals = totals
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, key: str,
             after: "Callable[[Any, tuple, Totals], None] | None" = None,
             ) -> None:
        """Time ``owner.attr`` under *key*; ``after(result, args, totals)``
        may add counters read off the call's arguments and result."""
        original = getattr(owner, attr)
        stack_of = self._stack
        totals = self.totals

        def wrapper(*args, **kwargs):
            stack = stack_of()
            children = [0.0]  # time spent in wrapped calls nested below
            stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals.record(key, elapsed - children[0])
            if after is not None:
                after(result, args, totals)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(totals: Totals) -> Wrappers:
    """Wrap every layer the benchmark accounts for (see README.md)."""
    import repro.analysis.program as program
    import repro.core.rewriting as rewriting
    import repro.datalog.engine as datalog
    import repro.semantics.certain as certain
    import repro.serving.batch as batch
    import repro.serving.plan as plan
    from repro.queries.cq import CQ, UCQ
    from repro.semantics.cdcl import Solver
    from repro.serving.cache import AnswerCache
    from repro.storage.sqlite import SqliteBackend

    def rungs(outcome, _args, t):
        t.count("ladder.escalation_rungs", max(0, len(outcome.attempts) - 1))

    def types(_result, args, t):
        made = args[0]
        t.count("rewriting.types",
                len(made.elem_types) + len(made.pair_types))

    def solver_built(_solver, _args, t):
        t.count("rewriting.solver_builds")

    def answer_lookup(value, _args, t):
        t.count("cache.gets")
        if value is not None:
            t.count("cache.hits")

    def storage_hit(value, _args, t):
        if value is not None:
            t.count("storage.hits")

    w = Wrappers(totals)
    w.wrap(batch, "evaluate_batch", "batch")
    w.wrap(batch, "make_instance", "logic.parse")
    w.wrap(batch, "compile_omq", "plan.compile")
    w.wrap(plan.CompiledOMQ, "evaluate", "plan.evaluate")
    w.wrap(plan, "fingerprint_instance", "fingerprint")
    w.wrap(CQ, "holds", "logic.match")
    w.wrap(UCQ, "holds", "logic.match")
    w.wrap(rewriting.TypeRewriting, "__init__", "rewriting", after=types)
    w.wrap(rewriting.TypeRewriting, "to_datalog_program_with_meta",
           "rewriting")
    w.wrap(rewriting, "Solver", "rewriting", after=solver_built)
    w.wrap(program, "optimize_program", "program")
    w.wrap(program, "analyze_program", "program")
    w.wrap(certain.CertainEngine, "entails_outcome", "ladder.decision",
           after=rungs)
    w.wrap(certain.CertainEngine, "certain_answers", "ladder")
    w.wrap(certain, "chase", "chase")
    w.wrap(certain, "sat_certain_answer", "sat")
    w.wrap(Solver, "solve", "cdcl")
    w.wrap(datalog, "evaluate", "datalog")
    w.wrap(AnswerCache, "get", "cache", after=answer_lookup)
    w.wrap(AnswerCache, "put", "cache")
    w.wrap(SqliteBackend, "get", "storage.get", after=storage_hit)
    w.wrap(SqliteBackend, "put", "storage.put")
    return w


#: Span name -> the attributes whose sums the benchmark reports.
SPAN_COUNTS = {
    "chase": ("steps", "branches"),
    "cdcl.solve": ("conflicts",),
    "sat.search": ("clauses",),
    "datalog.round": ("candidates",),
}


def span_counts(tracer, totals: Totals) -> None:
    """Fold the work counts of a ``repro.obs.Tracer``'s spans into *totals*."""
    for span in tracer.to_dicts():
        attrs = SPAN_COUNTS.get(span["name"])
        if attrs is None:
            continue
        values = span.get("attrs", {})
        for attr in attrs:
            totals.count(f"{span['name']}.{attr}", values.get(attr) or 0)


def layer_metrics(data: dict[str, dict], root_s: float) -> dict[str, float]:
    """Per-layer metrics from :meth:`Totals.to_dict`.

    *root_s* is the summed duration of the entry point (``evaluate_batch``);
    ``trace.unaccounted_share`` is the part of it that no wrapped layer
    below the entry point accounts for.
    """
    calls, secs, counts = data["calls"], data["seconds"], data["counts"]

    def s(*keys: str) -> float:
        return sum(secs.get(k, 0.0) for k in keys)

    gets = counts.get("cache.gets", 0)
    return {
        "logic.parse_s": s("logic.parse"),
        "logic.match_calls": calls.get("logic.match", 0),
        "logic.match_s": s("logic.match"),
        "fingerprint.calls": calls.get("fingerprint", 0),
        "fingerprint.s": s("fingerprint"),
        "plan.compile_calls": calls.get("plan.compile", 0),
        "plan.compile_self_s": s("plan.compile"),
        "plan.evaluate_self_s": s("plan.evaluate"),
        "rewriting.s": s("rewriting"),
        "rewriting.types": counts.get("rewriting.types", 0),
        "rewriting.solver_builds": counts.get("rewriting.solver_builds", 0),
        "program.s": s("program"),
        "ladder.decisions": calls.get("ladder.decision", 0),
        "ladder.escalation_rungs": counts.get("ladder.escalation_rungs", 0),
        "ladder.self_s": s("ladder", "ladder.decision"),
        "chase.runs": calls.get("chase", 0),
        "chase.s": s("chase"),
        "chase.steps": counts.get("chase.steps", 0),
        "chase.branches": counts.get("chase.branches", 0),
        "sat.searches": calls.get("sat", 0),
        "sat.ground_s": s("sat"),
        "sat.clauses": counts.get("sat.search.clauses", 0),
        "cdcl.solves": calls.get("cdcl", 0),
        "cdcl.s": s("cdcl"),
        "cdcl.conflicts": counts.get("cdcl.solve.conflicts", 0),
        "datalog.evals": calls.get("datalog", 0),
        "datalog.s": s("datalog"),
        "datalog.candidates": counts.get("datalog.round.candidates", 0),
        "cache.hit_ratio": counts.get("cache.hits", 0) / gets if gets else 0.0,
        "cache.self_s": s("cache"),
        "storage.get_s": s("storage.get"),
        "storage.put_s": s("storage.put"),
        "storage.hits": counts.get("storage.hits", 0),
        "storage.puts": calls.get("storage.put", 0),
        "batch.self_s": s("batch"),
        "trace.unaccounted_share": s("batch") / root_s if root_s > 0 else 0.0,
    }
