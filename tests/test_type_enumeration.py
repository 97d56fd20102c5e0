"""Differential oracle for the incremental type enumeration.

The Theorem 5 rewriting enumerates the realizable element and pair types
by solving, blocking the projected model and solving again.  It keeps one
incremental CDCL solver per enumeration, and the solver takes its
decisions from a VSIDS heap.  The code they replaced is kept here verbatim
as the reference: the rebuild-per-type loop (a fresh solver per type that
re-adds every earlier blocking clause) and the linear-scan ``_decide``.

Checks:

* the element and pair type *sets* equal the reference's on the example
  ontologies, ``repro.chaos`` horn and disjunctive 3-level ontologies,
  E6's propagation ontology and ``horn-hands`` (list order may differ:
  learnt clauses and activities carry over from one solve to the next);
* the heap picks what the linear scan picks: on Hypothesis CNFs both
  solvers return the same model after the same conflicts and decisions,
  across incremental solves and activity rescaling too;
* incremental enumeration of all projected models equals brute force;
* ``Solver.add_clause`` at level 0: false literals dropped (keeping them
  silently lost types, and the sanitizer now catches it), satisfied
  clauses skipped, units enqueued, the empty clause makes the solver
  unsat;
* an enumeration cut by ``enumeration_limit`` raises, and the fast-path
  gate then keeps the ladder plan.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rewriting as rewriting
from repro.analysis.sanitizers import SanitizerError
from repro.chaos.generate import WorkloadSpec, generate_workload
from repro.core.rewriting import TypeRewriting
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.logic.render import load_ontology_fo
from repro.obs import Tracer
from repro.queries.cq import parse_cq
from repro.semantics.cdcl import Solver
from repro.semantics.sat import CNF
from repro.serving import clear_caches, compile_omq

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

HANDS = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))", name="horn-hands")
PROP = ontology("forall x,y (R(x,y) -> (A(x) -> A(y)))", name="prop")


# -- references, verbatim from the code the incremental loop replaced --------


class LinearScanSolver(Solver):
    """The solver with its former decision rule: a linear scan over all
    variables for the unassigned one of highest activity."""

    def _decide(self) -> int:
        best, best_act = 0, -1.0
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0 and self.activity[var] > best_act:
                best, best_act = var, self.activity[var]
        return -best if best else 0  # prefer False (sparser models)


class ReferenceRewriting(TypeRewriting):
    """Type enumeration by the rebuild-per-type loop.  The reference
    solvers run without sanitizers: they are the oracle, not under test."""

    def _enumerate_projected(self, cnf, projection, kind):
        out: list[tuple[bool, ...]] = []
        blocking: list[list[int]] = []
        while len(out) < self.enumeration_limit:
            assignment = LinearScanSolver(
                cnf.num_vars, cnf.clauses + blocking, sanitize=False).solve()
            if assignment is None:
                break
            bits = tuple(bool(assignment.get(v)) for v in projection)
            out.append(bits)
            blocking.append([
                -v if assignment.get(v) else v for v in projection
            ])
        return out


# -- type sets, reference vs incremental -------------------------------------


def _example(name: str):
    onto = load_ontology_fo((EXAMPLES / "ontologies" / name).read_text(),
                            name=name)
    unary = sorted(p for p, k in onto.sig().items() if k == 1)
    return onto, f"q(x) <- {unary[0]}(x)"


def _chaos(family: str, seed: int):
    workload = generate_workload(WorkloadSpec(seed=seed, family=family,
                                              jobs=1))
    assert "A3" not in workload.ontology_text  # a 3-level ontology
    return workload.ontology(), "q(x) <- A1(x)"


CASES = {
    "clinic": lambda: _example("clinic.gf"),
    "transport": lambda: _example("transport.gf"),
    "university": lambda: _example("university.gf"),
    "chaos-horn-1": lambda: _chaos("horn", 1),
    "chaos-horn-2-binary": lambda: (_chaos("horn", 2)[0],
                                    "q(x,y) <- R0(x,y)"),
    "chaos-disjunctive-1": lambda: _chaos("disjunctive", 1),
    "e6-prop": lambda: (PROP, "q(x) <- A(x)"),
    "horn-hands": lambda: (HANDS, "q(x) <- Hand(x)"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_type_sets_equal_reference(case):
    onto, query = CASES[case]()
    new = TypeRewriting(onto, parse_cq(query))
    ref = ReferenceRewriting(onto, parse_cq(query))
    assert len(set(new.elem_types)) == len(new.elem_types)
    assert len(set(new.pair_types)) == len(new.pair_types)
    assert set(new.elem_types) == set(ref.elem_types)
    assert set(new.pair_types) == set(ref.pair_types)


# -- heap vs linear scan ------------------------------------------------------


def _traced_solve(solver: Solver):
    tracer = Tracer()
    with tracer.activate():
        model = solver.solve()
    (span,) = [s for s in tracer.to_dicts() if s["name"] == "cdcl.solve"]
    attrs = span["attrs"]
    return (model, attrs["result"], attrs["conflicts"], attrs["decisions"],
            attrs["learnt"])


@st.composite
def cnfs(draw, max_vars: int = 12):
    num_vars = draw(st.integers(1, max_vars))
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4),
                            max_size=5 * num_vars))
    return num_vars, clauses


@given(cnfs())
@settings(max_examples=150, deadline=None)
def test_heap_decides_like_linear_scan(cnf):
    num_vars, clauses = cnf
    heap = _traced_solve(Solver(num_vars, clauses))
    scan = _traced_solve(LinearScanSolver(num_vars, clauses))
    assert heap == scan


@given(cnfs(max_vars=6))
@settings(max_examples=60, deadline=None)
def test_heap_decides_like_linear_scan_across_solves(cnf):
    """Blocking every model in turn: both solvers walk the same models."""
    num_vars, clauses = cnf
    heap = Solver(num_vars, clauses)
    scan = LinearScanSolver(num_vars, clauses)
    while True:
        result = _traced_solve(heap)
        assert result == _traced_solve(scan)
        model = result[0]
        if model is None:
            break
        block = [-v if model[v] else v for v in range(1, num_vars + 1)]
        heap.add_clause(block)
        scan.add_clause(block)


def _pigeonhole(pigeons: int, holes: int):
    def v(i, h):
        return 1 + i * holes + h

    clauses = [[v(i, h) for h in range(holes)] for i in range(pigeons)]
    for h in range(holes):
        for i, j in itertools.combinations(range(pigeons), 2):
            clauses.append([-v(i, h), -v(j, h)])
    return pigeons * holes, clauses


def test_heap_survives_activity_rescaling():
    """Start near the rescaling threshold: the heap is rebuilt and the
    decisions still match the linear scan's."""
    num_vars, clauses = _pigeonhole(5, 4)
    heap = Solver(num_vars, clauses)
    scan = LinearScanSolver(num_vars, clauses)
    heap.var_inc = scan.var_inc = 1e99
    heap_result, scan_result = _traced_solve(heap), _traced_solve(scan)
    assert heap_result == scan_result
    assert heap_result[1] == "unsat" and heap_result[2] > 1
    assert heap.var_inc < 1e99  # a rescale happened


# -- incremental enumeration vs brute force ----------------------------------


@given(cnfs(max_vars=10), st.data())
@settings(max_examples=80, deadline=None)
def test_incremental_enumeration_equals_brute_force(cnf, data):
    num_vars, clauses = cnf
    projection = data.draw(st.lists(
        st.integers(1, num_vars), unique=True, min_size=1))
    formula = CNF()
    formula._next = num_vars + 1
    formula.clauses = [list(c) for c in clauses]
    rw = TypeRewriting(PROP, parse_cq("q(x) <- A(x)"))
    found = rw._enumerate_projected(formula, projection, "elem")
    brute = {
        tuple(bits[v - 1] for v in projection)
        for bits in itertools.product((False, True), repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
    }
    assert len(found) == len(set(found))
    assert set(found) == brute


# -- Solver.add_clause at decision level 0 ------------------------------------


class KeepFalseLiterals(Solver):
    """``add_clause`` without dropping literals false at level 0: a clause
    can then watch a literal whose falsification was already propagated,
    so it is never visited again and cannot propagate."""

    def add_clause(self, lits):
        self._backtrack(0)
        self._add_clause(list(lits))
        if self._san:
            self._san.check_watches(self)


def test_add_clause_drops_literals_false_at_level_0():
    solver = Solver(3, [[1]], sanitize=True)
    assert solver.solve() is not None
    solver.add_clause([-1, 2, 3])
    assert solver.clauses[-1] == [2, 3]
    solver.add_clause([-2])
    model = solver.solve()
    assert model is not None and model[1] and not model[2] and model[3]


def test_sanitizer_catches_a_watched_literal_false_at_level_0():
    solver = KeepFalseLiterals(3, [[1]], sanitize=True)
    assert solver.solve() is not None
    with pytest.raises(SanitizerError, match="false at level 0"):
        solver.add_clause([-1, 2, 3])


def test_add_clause_skips_a_clause_true_at_level_0():
    solver = Solver(3, [[1], [2, 3]], sanitize=True)
    assert solver.solve() is not None
    stored = [list(c) for c in solver.clauses]
    solver.add_clause([1, -2])
    solver.add_clause([3, -3])  # a tautology
    assert solver.clauses == stored


def test_add_clause_enqueues_a_unit():
    solver = Solver(3, [[-1, 2]], sanitize=True)
    model = solver.solve()
    assert model is not None and not model[1]
    solver.add_clause([1])
    assert solver.trail[-1] == 1 and solver.level[1] == 0
    model = solver.solve()
    assert model is not None and model[1] and model[2]


def test_empty_clause_makes_the_solver_unsat():
    solver = Solver(2, [[1], [2]], sanitize=True)
    assert solver.solve() is not None
    solver.add_clause([-1, -2])  # every literal false at level 0
    assert solver.ok is False
    assert solver.solve() is None
    solver.add_clause([])
    solver.add_clause([1, 2])
    assert solver.solve() is None


def test_unsat_stays_unsat_after_more_clauses():
    num_vars, clauses = _pigeonhole(3, 2)
    solver = Solver(num_vars, clauses, sanitize=True)
    assert solver.solve() is None
    solver.add_clause([1, 2])
    assert solver.solve() is None


def test_learnt_counts_this_solve_only():
    """The ``learnt`` attribute counts the clauses learnt by the solve,
    not the stored originals, blocking clauses or earlier learnts."""
    num_vars, clauses = _pigeonhole(4, 3)
    model, result, conflicts, _decisions, learnt = _traced_solve(
        Solver(num_vars, clauses))
    assert result == "unsat" and 0 < learnt <= conflicts
    solver = Solver(3, [[1, 2, 3]])
    assert _traced_solve(solver)[4] == 0
    solver.add_clause([1])
    assert _traced_solve(solver)[4] == 0


# -- a truncated enumeration is refused ---------------------------------------


HANDS_QUERY = "q(x) <- hasFinger(x,y) & Thumb(y)"


def test_limit_equal_to_type_count_is_complete():
    rw = TypeRewriting(HANDS, parse_cq(HANDS_QUERY), enumeration_limit=289)
    assert (len(rw.elem_types), len(rw.pair_types)) == (12, 289)


def test_limit_below_type_count_raises():
    with pytest.raises(ValueError, match="more than 288 pair types"):
        TypeRewriting(HANDS, parse_cq(HANDS_QUERY), enumeration_limit=288)


def test_enumerate_span_reports_types_and_solves():
    tracer = Tracer()
    with tracer.activate():
        TypeRewriting(HANDS, parse_cq(HANDS_QUERY))
    spans = [s for s in tracer.to_dicts() if s["name"] == "rewriting.enumerate"]
    assert [(s["attrs"]["kind"], s["attrs"]["types"], s["attrs"]["solves"])
            for s in spans] == [("elem", 12, 13), ("pair", 289, 290)]


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_truncated_enumeration_keeps_the_ladder(monkeypatch, fresh_caches):
    full = compile_omq(HANDS, HANDS_QUERY, fastpath="auto")
    assert full.plan_kind == "datalog-fastpath"
    clear_caches()
    monkeypatch.setattr(rewriting, "TypeRewriting", functools.partial(
        TypeRewriting, enumeration_limit=288))
    cut = compile_omq(HANDS, HANDS_QUERY, fastpath="auto")
    assert cut.plan_kind == "ladder"
    assert cut.fastpath_reason.startswith("type rewriting not constructible")
    ladder = compile_omq(HANDS, HANDS_QUERY)
    for facts in (
        ["Hand(h)", "hasFinger(h,f)", "Thumb(f)", "hasFinger(g,f)"],
        ["Hand(h0)", "Hand(h1)", "hasFinger(h1,f)", "Digit(f)"],
        ["hasFinger(a,b)", "hasFinger(b,c)", "Thumb(c)"],
    ):
        instance = make_instance(*facts)
        expected = ladder.evaluate(instance).answers
        assert cut.evaluate(instance).answers == expected
        assert full.evaluate(instance).answers == expected
