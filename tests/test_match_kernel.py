"""Differential oracle for the join kernel (``repro.logic.match``).

The chase, CQ answering, homomorphism search and Datalog all match
conjunctions of atoms with one kernel.  The matchers it replaced are kept
here verbatim as references: the unindexed homomorphism search
(``homomorphisms``) and the chase's dynamically ordered join
(``match_conjunction``).  Every comparison is between result multisets,
so a kernel that lost, invented or repeated an assignment fails.

Inputs:

* Hypothesis-generated instances and patterns: repeated variables,
  constants in atoms, bindings to elements outside the domain, the empty
  pattern, and ``preserve`` pins that conflict with ``partial``.
* Chase models of the example corpus and of ``repro.chaos`` Horn and
  disjunctive workloads: every rule body and head of the chase, and every
  query of the workload, matched on every branch model.
* GTGD-reducible query pairs (guarded-queries test cases): a CQ must have
  exactly the ``Goal`` answers of its Datalog rewriting.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.generate import WorkloadSpec, generate_workload
from repro.datalog import goal_answers, parse_program
from repro.logic import homomorphism
from repro.logic.instance import Interpretation, make_instance
from repro.logic.match import Pattern
from repro.logic.ontology import Ontology, ontology
from repro.logic.syntax import Atom, Const, Element, Null, Var
from repro.queries.cq import CQ, UCQ, parse_cq
from repro.semantics.chase import chase
from repro.semantics.rules import convert_ontology
from repro.serving.plan import parse_query

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


# -- references, verbatim from the matchers the kernel replaced -------------


def homomorphisms(
    source: Interpretation,
    target: Interpretation,
    preserve: Iterable[Element] = (),
    partial: Mapping[Element, Element] | None = None,
    order_static: bool = False,
) -> Iterator[dict[Element, Element]]:
    """Enumerate all homomorphisms from *source* to *target*."""
    assignment: dict[Element, Element] = dict(partial or {})
    for e in preserve:
        if assignment.get(e, e) != e:
            return
        assignment[e] = e
    src_elems = sorted(source.dom(), key=repr)
    # Constraints: one per source fact.
    facts = list(source)
    # For each element, the facts it participates in (constraint degree).
    degree = {e: 0 for e in src_elems}
    for fact in facts:
        for a in set(fact.args):
            degree[a] += 1
    if order_static:
        ordering = src_elems
    else:
        ordering = sorted(src_elems, key=lambda e: (-degree[e], repr(e)))
    # Verify pre-bound parts don't already violate fully-ground facts.
    target_dom = target.dom()

    def consistent(fact: Atom, env: dict[Element, Element]) -> bool:
        """If all args of *fact* are bound, the image must be in target."""
        image = []
        for a in fact.args:
            if a not in env:
                return True
            image.append(env[a])
        return Atom(fact.pred, tuple(image)) in target

    def candidates(elem: Element, env: dict[Element, Element]) -> list[Element]:
        """Target elements *elem* may map to, narrowed via incident facts."""
        best: list[Element] | None = None
        for fact in source.facts_about(elem):
            positions = [i for i, a in enumerate(fact.args) if a == elem]
            pool: set[Element] = set()
            # Any target fact with same predicate whose bound positions agree.
            for args in target.tuples(fact.pred):
                ok = True
                for i, a in enumerate(fact.args):
                    if a in env and args[i] != env[a]:
                        ok = False
                        break
                if ok:
                    for i in positions:
                        pool.add(args[i])
            if best is None or len(pool) < len(best):
                best = sorted(pool, key=repr)
            if not best:
                return []
        if best is None:
            # Isolated element (cannot occur: active domain), map anywhere.
            return sorted(target_dom, key=repr)
        return best

    def search(idx: int, env: dict[Element, Element]) -> Iterator[dict[Element, Element]]:
        while idx < len(ordering) and ordering[idx] in env:
            idx += 1
        if idx == len(ordering):
            yield dict(env)
            return
        elem = ordering[idx]
        for cand in candidates(elem, env):
            env[elem] = cand
            if all(consistent(f, env) for f in source.facts_about(elem)):
                yield from search(idx + 1, env)
            del env[elem]

    # Check facts whose elements are all pre-bound.
    if not all(consistent(f, assignment) for f in facts):
        return
    for e, v in assignment.items():
        if e in degree and v not in target_dom and degree[e] > 0:
            return
    yield from search(0, assignment)


def match_conjunction(
    atoms: Sequence[Atom],
    interp: Interpretation,
    env: dict[Var, Element] | None = None,
) -> Iterator[dict[Var, Element]]:
    """Enumerate assignments making all atoms true (backtracking join).

    Atoms are ordered dynamically: each step continues with the pending
    atom whose ``(pred, position, value)`` index bucket is smallest under
    the bindings so far, so bound-variable-rich (and constant-rich) atoms
    run first and the join fails fast on empty buckets.
    """
    env = dict(env or {})
    pending = list(atoms)

    def bucket_size(atom: Atom) -> int:
        bound = []
        for pos, term in enumerate(atom.args):
            if isinstance(term, Var):
                value = env.get(term)
                if value is not None:
                    bound.append((pos, value))
            else:
                bound.append((pos, term))
        return len(interp.candidate_tuples(atom.pred, bound))

    def rec() -> Iterator[dict[Var, Element]]:
        if not pending:
            yield dict(env)
            return
        best = min(range(len(pending)), key=lambda i: bucket_size(pending[i]))
        atom = pending.pop(best)
        for ext in interp.match_atom(atom, env):
            env.update(ext)
            yield from rec()
            for v in ext:
                del env[v]
        pending.insert(best, atom)

    yield from rec()


def reference_answers(query: CQ, interp: Interpretation) -> set[tuple]:
    """The answers of *query* by homomorphisms from its canonical database
    (how ``CQ.answers`` evaluated before the kernel)."""
    db, var_map = query.canonical_database()
    return {tuple(hom[var_map[v]] for v in query.answer_vars)
            for hom in homomorphisms(db, interp)}


def multiset(maps: Iterable[Mapping]) -> Counter:
    return Counter(frozenset(m.items()) for m in maps)


def kernel_matches(atoms, interp, binding=None):
    return Pattern(atoms, bound=binding or ()).matches(interp, binding)


# -- generated instances and patterns ----------------------------------------

SIG = {"A": 1, "R": 2, "T": 3}
ELEMENTS = [Const("a"), Const("b"), Const("c"), Null("n1")]
OUTSIDE = [Const("zz"), Null("nz")]  # never occurs in a generated fact
VARS = [Var("x"), Var("y"), Var("z"), Var("w")]


@st.composite
def facts(draw, max_facts: int, elements=ELEMENTS) -> Interpretation:
    out = Interpretation()
    for pred in draw(st.lists(st.sampled_from(sorted(SIG)),
                              max_size=max_facts)):
        args = draw(st.lists(st.sampled_from(elements),
                             min_size=SIG[pred], max_size=SIG[pred]))
        out.add(Atom(pred, tuple(args)))
    return out


@st.composite
def patterns(draw) -> list[Atom]:
    terms = st.one_of(st.sampled_from(VARS), st.sampled_from(ELEMENTS))
    atoms = []
    for pred in draw(st.lists(st.sampled_from(sorted(SIG)), max_size=4)):
        args = draw(st.lists(terms, min_size=SIG[pred], max_size=SIG[pred]))
        atoms.append(Atom(pred, tuple(args)))
    return atoms


@st.composite
def bindings(draw, variables) -> dict[Var, Element]:
    chosen = draw(st.lists(st.sampled_from(variables), unique=True)) \
        if variables else []
    return {v: draw(st.sampled_from(ELEMENTS + OUTSIDE)) for v in chosen}


class TestGenerated:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), interp=facts(8))
    def test_patterns_match_like_match_conjunction(self, data, interp):
        atoms = data.draw(patterns())
        variables = sorted({t for a in atoms for t in a.args
                            if isinstance(t, Var)}, key=repr)
        binding = data.draw(bindings(variables))
        assert multiset(kernel_matches(atoms, interp, binding)) \
            == multiset(match_conjunction(atoms, interp, binding))

    def test_empty_pattern_yields_the_binding_once(self):
        interp = make_instance("R(a,b)")
        binding = {Var("x"): Const("zz")}
        assert list(kernel_matches([], interp, binding)) == [binding]
        assert list(match_conjunction([], interp, binding)) == [binding]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), source=facts(4), target=facts(7))
    def test_homomorphisms_agree(self, data, source, target):
        pool = ELEMENTS + OUTSIDE
        preserve = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                      max_size=2))
        partial = data.draw(st.dictionaries(st.sampled_from(pool),
                                            st.sampled_from(pool),
                                            max_size=2))
        assert multiset(homomorphism.homomorphisms(
            source, target, preserve, partial)) \
            == multiset(homomorphisms(source, target, preserve, partial))

    def test_preserve_conflicting_with_partial(self):
        a, b = Const("a"), Const("b")
        source = make_instance("R(a,b)")
        target = make_instance("R(a,b)", "R(b,b)")
        for impl in (homomorphism.homomorphisms, homomorphisms):
            assert list(impl(source, target, [a], {a: b})) == []
            assert len(list(impl(source, target, [a], {a: a}))) == 1


# -- chase models of the corpus ----------------------------------------------


def _example(name: str, workload: str) -> tuple[str, Ontology, list]:
    text = (EXAMPLES / "ontologies" / f"{name}.gf").read_text()
    raw = json.loads((EXAMPLES / "workloads" / f"{workload}.json").read_text())
    return (name, ontology(text, name=name),
            [(job["query"], job["facts"]) for job in raw])


def _chaos(seed: int, family: str, rate: float) -> tuple[str, Ontology, list]:
    wl = generate_workload(WorkloadSpec(
        seed=seed, family=family, jobs=5, instance_size=4, domain_size=3,
        inconsistency_rate=rate))
    return (f"chaos-{family}-{seed}", wl.ontology(),
            [(job["query"], job["facts"]) for job in wl.jobs])


CORPUS = [
    _example("clinic", "smoke"),
    _example("transport", "fastpath"),
    _chaos(42, "horn", 0.0),
    _chaos(2017, "horn", 0.0),
    _chaos(42, "disjunctive", 0.3),
    _chaos(2017, "disjunctive", 0.3),
]


@pytest.mark.parametrize("name,onto,jobs", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_chase_models(name, onto, jobs):
    rules = convert_ontology(onto)
    assert rules is not None
    for text, fact_strings in jobs:
        query = parse_query(text)
        disjuncts = query.disjuncts if isinstance(query, UCQ) else (query,)
        result = chase(onto, make_instance(*fact_strings), rules=rules,
                       max_depth=2)
        for branch in result.branches:
            model = branch.interp
            for rule in rules:
                bodies = list(kernel_matches(rule.body, model))
                assert multiset(bodies) \
                    == multiset(match_conjunction(rule.body, model))
                if rule.frontier_vars():
                    continue
                for env in bodies:
                    for head in rule.heads:
                        assert multiset(kernel_matches(head.atoms, model, env)) \
                            == multiset(match_conjunction(head.atoms, model, env))
            for cq in disjuncts:
                expected = reference_answers(cq, model)
                assert cq.answers(model) == expected, (name, text)
                domain = sorted(model.dom(), key=repr)
                for answer in itertools.product(domain, repeat=cq.arity):
                    assert cq.holds(model, answer) == (answer in expected)


# -- CQs against their Datalog rewritings ------------------------------------

REWRITINGS = [
    ("q(x) <- R(x,y) & R(y,y)",
     "Goal(x) <- R(x,y) & R(y,y)"),
    ("q(w) <- R(w,y) & R(y,z)",
     "I(y) <- R(y,z)\nGoal(w) <- R(w,y) & I(y)"),
    ("q(t,w) <- R(y,t) & R(t,w) & R(w,z) & U(z)",
     "I_1(t) <- R(y,t)\nI_2(w) <- R(w,z) & U(z)\n"
     "Goal(t,w) <- I_1(t) & R(t,w) & I_2(w)"),
]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pair=st.sampled_from(REWRITINGS))
def test_query_equals_its_datalog_rewriting(data, pair):
    query_text, program_text = pair
    nodes = [Const(f"c{i}") for i in range(4)]
    edges = data.draw(st.lists(st.tuples(st.sampled_from(nodes),
                                         st.sampled_from(nodes)),
                               max_size=8))
    marked = data.draw(st.lists(st.sampled_from(nodes), max_size=3))
    interp = Interpretation([Atom("R", edge) for edge in edges]
                            + [Atom("U", (n,)) for n in marked])
    query = parse_cq(query_text)
    program = parse_program(program_text, goal="Goal")
    expected = goal_answers(program, interp)
    assert query.answers(interp) == expected
    assert reference_answers(query, interp) == expected
