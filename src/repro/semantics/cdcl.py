"""A CDCL SAT solver: watched literals, 1UIP learning, VSIDS, restarts.

It decides the finite-countermodel search (through
:func:`repro.semantics.sat.dpll`) and, incrementally, enumerates the
Theorem 5 types (:mod:`repro.core.rewriting`).  Literals are non-zero
integers (positive = variable true); clauses are lists of literals.  The
solver is self-contained and has no external dependencies.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from ..analysis.sanitizers import cdcl_sanitizer
from ..obs import current_tracer
from ..runtime import Budget


class Solver:
    """Incremental CDCL solver.

    Clauses may be added between solves with :meth:`add_clause`; learnt
    clauses and variable activities carry over from one solve to the next,
    so enumerating models under blocking clauses needs one solver.

    ``sanitize`` enables the runtime invariant checkers of
    :mod:`repro.analysis.sanitizers` (default: the ``REPRO_SANITIZE``
    environment variable).
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]],
                 sanitize: bool | None = None):
        self._san = cdcl_sanitizer(sanitize)
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []
        # assignment state
        self.assign: list[int] = [0] * (num_vars + 1)   # 0 unset, +1 true, -1 false
        self.level: list[int] = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        # watched literals: literal -> clause indices watching it
        self.watches: dict[int, list[int]] = {}
        self.activity: list[float] = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        # VSIDS order: a lazy max-heap of (-activity, var); entries whose
        # variable is assigned or whose activity moved on are stale
        self._heap: list[tuple[float, int]] = [
            (-0.0, v) for v in range(1, num_vars + 1)]
        self._qhead = 0
        self.ok = True
        for clause in clauses:
            self._add_clause(list(clause))

    # -- clause management ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause between solves.

        The solver first returns to decision level 0.  Literals false there
        are dropped, so the two watched literals are never false at level
        0; a clause already true there, or a tautology, is skipped.  A unit
        is enqueued for the next solve to propagate, and an empty clause
        makes the solver unsatisfiable.
        """
        self._backtrack(0)
        lits = [lit for lit in lits if self._value(lit) != -1]
        if not any(self._value(lit) == 1 for lit in lits):
            self._add_clause(lits)
        if self._san:
            self._san.check_watches(self)

    def _add_clause(self, lits: list[int]) -> None:
        lits = sorted(set(lits), key=abs)
        # tautology elimination
        seen = set(lits)
        if any(-l in seen for l in lits):
            return
        if not lits:
            self.ok = False
            return
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(lits)
        for lit in lits[:2]:
            self.watches.setdefault(-lit, []).append(idx)

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # -- propagation ------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        head = self._qhead
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            watching = self.watches.get(lit, [])
            i = 0
            while i < len(watching):
                cidx = watching[i]
                clause = self.clauses[cidx]
                # ensure clause[0] is the other watched literal
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) == 1:
                    i += 1
                    continue
                # find a new literal to watch
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(cidx)
                        watching[i] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting on clause[0]
                if not self._enqueue(clause[0], clause):
                    # lit's watchers are only partly visited: a search
                    # aborted before it backjumps visits them again
                    self._qhead = head - 1
                    return clause
                i += 1
        self._qhead = head
        return None

    # -- analysis ---------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._heap = [(-self.activity[v], v)
                          for v in range(1, self.num_vars + 1)
                          if self.assign[v] == 0]
            heapq.heapify(self._heap)
        elif self.assign[var] == 0:
            heapq.heappush(self._heap, (-self.activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP conflict analysis: returns (learnt clause, backjump level)."""
        learnt: list[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: int | None = None  # the trail literal whose reason is processed
        reason: list[int] | None = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                if p is not None and q == p:
                    continue  # skip the asserted literal itself
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick the next trail literal at the current level
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            var = abs(p)
            seen[var] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self.reason[var]
        assert p is not None
        learnt = [-p] + learnt
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, back

    def _backtrack(self, target_level: int) -> None:
        while self.trail_lim and len(self.trail_lim) > target_level:
            boundary = self.trail_lim.pop()
            while len(self.trail) > boundary:
                lit = self.trail.pop()
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
                heapq.heappush(self._heap, (-self.activity[var], var))
        self._qhead = min(self._qhead, len(self.trail))

    def _decide(self) -> int:
        """The unassigned variable of highest activity, lowest index on
        ties (the order a linear scan would pick), negated: prefer False
        (sparser models).  0 when every variable is assigned."""
        heap = self._heap
        while heap:
            neg_act, var = heapq.heappop(heap)
            if self.assign[var] == 0 and -neg_act == self.activity[var]:
                return -var
        return 0

    # -- main loop ----------------------------------------------------------------

    def solve(self, max_conflicts: int | None = None,
              budget: Budget | None = None) -> dict[int, bool] | None:
        """Return a satisfying assignment or None (UNSAT).

        ``max_conflicts`` bounds the effort; exceeding it raises
        ``RuntimeError`` (callers may retry with a larger budget).  A
        :class:`repro.runtime.Budget` makes every learnt conflict (and,
        strided, every decision) a cooperative checkpoint, raising
        :class:`repro.runtime.BudgetExceeded` on deadline expiry or
        conflict-limit exhaustion.
        """
        # One span per solve; the decide/propagate/conflict loop reports
        # its counters as span attributes, and a BudgetExceeded escaping
        # the block marks the span failed (repro.obs).
        with current_tracer().span(
                "cdcl.solve", vars=self.num_vars,
                clauses=len(self.clauses)) as span:
            if not self.ok:
                span.set(result="unsat", conflicts=0, decisions=0, restarts=0,
                         learnt=0)
                return None
            conflicts = 0
            decisions = 0
            restarts = 0
            learnt_count = 0
            restart_limit = 64
            since_restart = 0

            def finish(result: str) -> None:
                if result == "unsat":
                    self.ok = False  # clauses are only ever added
                span.set(result=result, conflicts=conflicts,
                         decisions=decisions, restarts=restarts,
                         learnt=learnt_count)

            while True:
                conflict = self._propagate()
                if conflict is not None:
                    conflicts += 1
                    since_restart += 1
                    if budget is not None:
                        budget.tick_conflict()
                    if max_conflicts is not None and conflicts > max_conflicts:
                        finish("aborted")
                        raise RuntimeError("CDCL conflict budget exceeded")
                    if not self.trail_lim:
                        finish("unsat")
                        return None  # conflict at level 0: UNSAT
                    learnt, back = self._analyze(conflict)
                    learnt_count += 1
                    self._backtrack(back)
                    if self._san:
                        self._san.check_learned(self, learnt, back)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], None):
                            finish("unsat")
                            return None
                    else:
                        idx = len(self.clauses)
                        self.clauses.append(learnt)
                        self.watches.setdefault(-learnt[0], []).append(idx)
                        self.watches.setdefault(-learnt[1], []).append(idx)
                        self._enqueue(learnt[0], learnt)
                    self.var_inc *= 1.05
                    if since_restart >= restart_limit:
                        since_restart = 0
                        restarts += 1
                        restart_limit = int(restart_limit * 1.5)
                        self._backtrack(0)
                    continue
                if budget is not None:
                    budget.poll("cdcl.decide")
                lit = self._decide()
                if lit == 0:
                    if self._san:
                        self._san.check_trail(self)
                        self._san.check_watches(self)
                        self._san.check_model(self)
                    finish("sat")
                    return {
                        v: self.assign[v] == 1
                        for v in range(1, self.num_vars + 1)
                    }
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
