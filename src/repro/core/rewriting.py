"""The Theorem-5 rewriting: type-based Datalog≠ evaluation.

For an unravelling-tolerant ontology O and an rAQ q, the proof of Theorem 5
builds a Datalog≠ program whose predicates ``P_Θ`` assign *sets of types* to
guarded tuples and whose rules propagate compatibility between overlapping
tuples.  Evaluating that program amounts to an arc-consistency fixpoint on
type sets; this module implements

* the type machinery — realizable types for single elements and guarded
  pairs, computed once per (O, q) by SAT enumeration over indicator
  variables, one incremental solver per enumeration
  (:class:`TypeRewriting`), and
* the fixpoint evaluator (`TypeRewriting.certain` / `.answers`), which is
  the rewriting's semantics and runs in polynomial time in |D|, and
* :meth:`TypeRewriting.to_datalog_program` — an explicit Datalog≠ program
  over the *reachable* subset lattice, executable on the engine of
  :mod:`repro.datalog` (practical for small type counts).

Soundness/completeness contract: on unravelling-tolerant ontologies the
fixpoint computes exactly the certain answers (Theorem 5); on other
ontologies it over-approximates (it is still sound for 'no').  The test
suite cross-checks against the certain-answer engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ..datalog.program import Program, Rule
from ..logic.instance import Interpretation, fresh_nulls
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Const, Element, Formula, Var, substitute
from ..obs import current_tracer
from ..queries.cq import CQ
from ..semantics.cdcl import Solver
from ..semantics.sat import CNF, add_formula, add_formula_iff, ground

_X1, _X2 = Var("t1"), Var("t2")


@dataclass(frozen=True)
class ElemType:
    """Truth values of the single-variable formulas at an element."""

    bits: tuple[bool, ...]

    def __repr__(self) -> str:
        return "t" + "".join("1" if b else "0" for b in self.bits)


@dataclass(frozen=True)
class PairType:
    """Truth values of pair formulas plus the endpoint element types."""

    bits: tuple[bool, ...]
    left: ElemType
    right: ElemType


def _marker_formulas(onto: Ontology, query_formula: Formula) -> list[Formula]:
    """Single-free-variable subformulas of O and q, normalized to t1."""
    from ..logic.syntax import subformulas

    out: list[Formula] = []
    seen: set[str] = set()

    def add(phi: Formula) -> None:
        key = repr(phi)
        if key not in seen:
            seen.add(key)
            out.append(phi)

    # unary atoms over the signature
    for pred, arity in sorted(onto.sig().items()):
        if arity == 1:
            add(Atom(pred, (_X1,)))
    # one-variable subformulas of the ontology
    for sentence in onto.sentences:
        for sub in subformulas(sentence):
            fv = sorted(sub.free_vars())
            if len(fv) == 1 and not isinstance(sub, Atom):
                try:
                    add(substitute(sub, {fv[0]: _X1}))
                except ValueError:
                    continue  # bound-variable clash; skip this subformula
    add(query_formula)
    return out


def _pair_formulas(onto: Ontology,
                   extra: Sequence[Formula] = ()) -> list[Formula]:
    """Two-variable atomic formulas over the binary signature, plus any
    caller-supplied two-variable formulas (e.g. a binary query)."""
    out: list[Formula] = []
    for pred, arity in sorted(onto.sig().items()):
        if arity == 2:
            out.append(Atom(pred, (_X1, _X2)))
            out.append(Atom(pred, (_X2, _X1)))
    out.extend(extra)
    return out


@dataclass
class TypeRewriting:
    """The evaluated form of the Theorem-5 Datalog≠ program."""

    onto: Ontology
    query: CQ
    extra: int = 2
    enumeration_limit: int = 4096
    formulas1: list[Formula] = field(init=False)
    formulas2: list[Formula] = field(init=False)
    elem_types: list[ElemType] = field(init=False)
    pair_types: list[PairType] = field(init=False)
    query_index: int = field(init=False)

    def __post_init__(self) -> None:
        if self.query.arity not in (1, 2):
            raise ValueError("the rewriting supports unary and binary rAQs")
        renamed = self.query.rename_apart([_X1, _X2])
        if self.query.arity == 1:
            qphi = substitute(renamed.to_formula(),
                              {renamed.answer_vars[0]: _X1})
            self.formulas1 = _marker_formulas(self.onto, qphi)
            self.query_index = self.formulas1.index(qphi)
            self.formulas2 = _pair_formulas(self.onto)
        else:
            # binary rAQ: track both orientations of the query at pairs
            x1, x2 = renamed.answer_vars
            q_fwd = substitute(renamed.to_formula(), {x1: _X1, x2: _X2})
            q_bwd = substitute(renamed.to_formula(), {x1: _X2, x2: _X1})
            # an always-false placeholder keeps formulas1 query-free
            from ..logic.syntax import Bottom
            self.formulas1 = _marker_formulas(self.onto, Bottom())
            self.query_index = self.formulas1.index(Bottom())
            self.formulas2 = _pair_formulas(self.onto, extra=[q_fwd, q_bwd])
            self.query_index2_fwd = len(self.formulas2) - 2
            self.query_index2_bwd = len(self.formulas2) - 1
        self.elem_types = self._enumerate_elem_types()
        self.pair_types = self._enumerate_pair_types()

    # -- type enumeration -----------------------------------------------------

    def _enumerate_elem_types(self) -> list[ElemType]:
        c1 = Const("w1")
        domain: list[Element] = [c1]
        domain += fresh_nulls("m", self.extra, avoid=domain)
        cnf = CNF()
        indicators = []
        for phi in self.formulas1:
            var = cnf.aux_var()
            indicators.append(var)
            add_formula_iff(cnf, var, ground(substitute(phi, {_X1: c1}), domain))
        for sentence in self.onto.all_sentences():
            add_formula(cnf, ground(sentence, domain))
        types = []
        for bits in self._enumerate_projected(cnf, indicators, "elem"):
            types.append(ElemType(bits))
        return types

    def _enumerate_pair_types(self) -> list[PairType]:
        c1, c2 = Const("w1"), Const("w2")
        domain: list[Element] = [c1, c2]
        domain += fresh_nulls("m", self.extra, avoid=domain)
        cnf = CNF()
        indicators: list[int] = []
        sub12 = {_X1: c1, _X2: c2}
        for phi in self.formulas2:
            var = cnf.aux_var()
            indicators.append(var)
            add_formula_iff(cnf, var, ground(substitute(phi, sub12), domain))
        left_vars, right_vars = [], []
        for phi in self.formulas1:
            lv = cnf.aux_var()
            left_vars.append(lv)
            add_formula_iff(cnf, lv, ground(substitute(phi, {_X1: c1}), domain))
            rv = cnf.aux_var()
            right_vars.append(rv)
            add_formula_iff(cnf, rv, ground(substitute(phi, {_X1: c2}), domain))
        for sentence in self.onto.all_sentences():
            add_formula(cnf, ground(sentence, domain))
        all_vars = indicators + left_vars + right_vars
        types = []
        for bits in self._enumerate_projected(cnf, all_vars, "pair"):
            k, m = len(self.formulas2), len(self.formulas1)
            types.append(PairType(
                bits[:k],
                ElemType(bits[k:k + m]),
                ElemType(bits[k + m:]),
            ))
        return types

    def _enumerate_projected(
        self, cnf: CNF, projection: list[int], kind: str,
    ) -> list[tuple[bool, ...]]:
        """All solution projections onto the given variables.

        One incremental solver blocks each projection found and solves
        again, until UNSAT proves the list complete.  Raises ``ValueError``
        if a model remains after ``enumeration_limit`` projections: a
        truncated type set would make the rewriting unsound.
        """
        out: list[tuple[bool, ...]] = []
        with current_tracer().span("rewriting.enumerate", kind=kind) as span:
            solver = Solver(cnf.num_vars, cnf.clauses)
            while (assignment := solver.solve()) is not None:
                if len(out) == self.enumeration_limit:
                    raise ValueError(
                        f"more than {self.enumeration_limit} {kind} types")
                out.append(tuple(assignment[v] for v in projection))
                solver.add_clause(
                    [-v if assignment[v] else v for v in projection])
            span.set(types=len(out), solves=len(out) + 1)
        return out

    # -- the fixpoint evaluator ("running the program") -----------------------

    def certain(self, instance: Interpretation, answer) -> bool:
        if self.query.arity == 2:
            return self._certain_pair(instance, tuple(answer))
        survivors, _pairs, empty = self._fixpoint(instance)
        if empty:
            return True  # inconsistent instance: everything is certain
        return all(t.bits[self.query_index] for t in survivors[answer])

    def answers(self, instance: Interpretation):
        if self.query.arity == 2:
            return self._pair_answers(instance)
        survivors, _pairs, empty = self._fixpoint(instance)
        if empty:
            return set(instance.dom())
        return {
            e for e, types in survivors.items()
            if all(t.bits[self.query_index] for t in types)
        }

    def _certain_pair(self, instance: Interpretation,
                      answer: tuple[Element, Element]) -> bool:
        """Certainty for a binary rAQ at a pair guarded in D."""
        _elems, pairs, empty = self._fixpoint(instance)
        if empty:
            return True
        a, b = answer
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        if key not in pairs:
            return False  # only pairs guarded in D are supported answers
        idx = (self.query_index2_fwd if key == answer
               else self.query_index2_bwd)
        return all(t.bits[idx] for t in pairs[key])

    def _pair_answers(self, instance: Interpretation):
        _elems, pairs, empty = self._fixpoint(instance)
        if empty:
            out = set()
            for key in self._guarded_pairs(instance):
                out.add(key)
                out.add((key[1], key[0]))
            return out
        answers: set[tuple[Element, Element]] = set()
        for key, types in pairs.items():
            if all(t.bits[self.query_index2_fwd] for t in types):
                answers.add(key)
            if all(t.bits[self.query_index2_bwd] for t in types):
                answers.add((key[1], key[0]))
        return answers

    def _fixpoint(
        self, instance: Interpretation,
    ) -> tuple[dict[Element, set[ElemType]],
               dict[tuple[Element, Element], set[PairType]], bool]:
        """Arc-consistency over element/pair type sets.

        Returns (element survivors, pair survivors, emptiness flag).
        """
        elements = sorted(instance.dom(), key=repr)
        elem_candidates: dict[Element, set[ElemType]] = {}
        for e in elements:
            allowed = set()
            for t in self.elem_types:
                if self._elem_type_matches(t, instance, e):
                    allowed.add(t)
            if not allowed:
                return {}, {}, True
            elem_candidates[e] = allowed
        pairs = self._guarded_pairs(instance)
        pair_candidates: dict[tuple[Element, Element], set[PairType]] = {}
        for (a, b) in pairs:
            allowed = {
                t for t in self.pair_types
                if self._pair_type_matches(t, instance, a, b)
            }
            if not allowed:
                return {}, {}, True
            pair_candidates[(a, b)] = allowed
        # A loop R(a,a) refines a the way the emitted program's edge rule
        # does: a is both endpoints of an R-pair type.
        loops = [
            (a, self.formulas2.index(Atom(pred, (_X1, _X2))))
            for pred, arity in self.onto.sig().items() if arity == 2
            for a, b in instance.tuples(pred) if a == b
        ]
        changed = True
        while changed:
            changed = False
            for (a, b), ptypes in pair_candidates.items():
                keep = {
                    t for t in ptypes
                    if t.left in elem_candidates[a] and t.right in elem_candidates[b]
                }
                if keep != ptypes:
                    pair_candidates[(a, b)] = keep
                    changed = True
                if not keep:
                    return {}, {}, True
                lefts = {t.left for t in keep}
                rights = {t.right for t in keep}
                if not elem_candidates[a] <= lefts:
                    elem_candidates[a] &= lefts
                    changed = True
                if not elem_candidates[b] <= rights:
                    elem_candidates[b] &= rights
                    changed = True
                if not elem_candidates[a] or not elem_candidates[b]:
                    return {}, {}, True
            for a, idx2 in loops:
                types = elem_candidates[a]
                witnesses = [
                    t for t in self.pair_types
                    if t.bits[idx2] and t.left in types and t.right in types
                ]
                keep = ({t.left for t in witnesses}
                        & {t.right for t in witnesses})
                if not types <= keep:
                    elem_candidates[a] = types & keep
                    changed = True
                if not elem_candidates[a]:
                    return {}, {}, True
        return elem_candidates, pair_candidates, False

    def _guarded_pairs(self, instance: Interpretation) -> list[tuple[Element, Element]]:
        out: set[tuple[Element, Element]] = set()
        for pred, arity in instance.sig().items():
            if arity != 2:
                continue
            for a, b in instance.tuples(pred):
                if a != b:
                    out.add((a, b) if repr(a) <= repr(b) else (b, a))
        return sorted(out, key=repr)

    def _elem_type_matches(self, t: ElemType, instance: Interpretation,
                           elem: Element) -> bool:
        """Open-world: present unary atoms must be true in the type."""
        for idx, phi in enumerate(self.formulas1):
            if isinstance(phi, Atom) and phi.arity == 1:
                if (elem,) in instance.tuples(phi.pred) and not t.bits[idx]:
                    return False
        return True

    def _pair_type_matches(self, t: PairType, instance: Interpretation,
                           a: Element, b: Element) -> bool:
        for idx, phi in enumerate(self.formulas2):
            if not isinstance(phi, Atom):
                continue  # query formulas are unconstrained by D's atoms
            args = tuple(a if v == _X1 else b for v in phi.args)
            if args in instance.tuples(phi.pred) and not t.bits[idx]:
                return False
        return True

    # -- explicit Datalog≠ emission -------------------------------------------

    def to_datalog_program(self, max_subsets: int = 4096) -> Program:
        """Emit the P_Θ program over the reachable subset lattice.

        The seed predicate assigns the full type set; rules narrow per
        present atom and per pair compatibility, mirroring lines 1-3 of the
        Theorem-5 construction; goal rules mirror lines 4-5.  Raises
        ``ValueError`` if the reachable lattice exceeds *max_subsets*.
        Program emission is implemented for unary rAQs (binary rAQs use
        the fixpoint evaluator).
        """
        program, _ = self.to_datalog_program_with_meta(max_subsets)
        return program

    def to_datalog_program_with_meta(
        self, max_subsets: int = 4096,
    ) -> "tuple[Program, dict]":
        """:meth:`to_datalog_program` plus the metadata a static analyzer
        (or the serving fast-path gate) needs about the emitted program:

        * ``seed_pred`` / ``empty_pred`` — the predicate naming the full
          type set and (if reachable) the empty set.  A derived
          ``empty_pred`` fact means the instance is inconsistent with the
          ontology, so *every* tuple is a certain answer — evaluators must
          special-case it rather than trust the emitted goal rules alone;
        * ``trivial`` — True when every element type is query-positive, i.e.
          the query is certain of any element the ontology can see at all.
          The program only derives goal facts for elements its seed rules
          reach (those in onto-signature atoms), so a trivially-certain OMQ
          is the one case where the program may under-approximate on
          elements mentioned only outside the signature;
        * lattice sizes, for reporting.
        """
        if self.query.arity != 1:
            raise ValueError("program emission is implemented for unary rAQs")
        full = frozenset(self.elem_types)
        names: dict[frozenset, str] = {}

        def name_of(subset: frozenset) -> str:
            if subset not in names:
                if len(names) >= max_subsets:
                    raise ValueError("reachable type lattice too large")
                names[subset] = f"P{len(names)}"
            return names[subset]

        x, y = Var("x"), Var("y")
        rules: list[Rule] = []
        # seeds: every element mentioned anywhere starts with all types
        seed = name_of(full)
        for pred, arity in sorted(self.onto.sig().items()):
            if arity == 1:
                rules.append(Rule(Atom(seed, (x,)), [Atom(pred, (x,))]))
            elif arity == 2:
                rules.append(Rule(Atom(seed, (x,)), [Atom(pred, (x, y))]))
                rules.append(Rule(Atom(seed, (x,)), [Atom(pred, (y, x))]))
        # narrowing by present unary atoms
        narrowing: list[tuple[frozenset, str, frozenset]] = []
        for idx, phi in enumerate(self.formulas1):
            if isinstance(phi, Atom) and phi.arity == 1:
                sat_types = frozenset(
                    t for t in self.elem_types if t.bits[idx])
                narrowing.append((full, phi.pred, sat_types))
        binaries = sorted(p for p, k in self.onto.sig().items() if k == 2)

        def edge_narrowings(left_subset: frozenset, right_subset: frozenset,
                            pred: str) -> tuple[frozenset, frozenset]:
            """Refined endpoint subsets across a pred-edge (left -> right)."""
            idx2 = self.formulas2.index(Atom(pred, (_X1, _X2)))
            witnesses = [
                t for t in self.pair_types
                if t.bits[idx2] and t.left in left_subset
                and t.right in right_subset
            ]
            return (frozenset(t.left for t in witnesses),
                    frozenset(t.right for t in witnesses))

        # close the subset lattice under unary and pairwise narrowing
        reachable: set[frozenset] = {full}
        changed = True
        while changed:
            changed = False
            for subset in list(reachable):
                for _, _pred, sat in narrowing:
                    new = subset & sat
                    if new not in reachable:
                        reachable.add(new)
                        changed = True
            for left_subset in list(reachable):
                for right_subset in list(reachable):
                    for pred in binaries:
                        nl, nr = edge_narrowings(left_subset, right_subset, pred)
                        for new in (nl, nr):
                            if new not in reachable:
                                reachable.add(new)
                                changed = True
            if len(reachable) > max_subsets:
                raise ValueError("reachable type lattice too large")
        # unary narrowing rules
        for subset in sorted(reachable, key=repr):
            for _, pred, sat in narrowing:
                new = subset & sat
                if new != subset:
                    rules.append(Rule(
                        Atom(name_of(new), (x,)),
                        [Atom(name_of(subset), (x,)), Atom(pred, (x,))]))
        # pairwise refinement rules between the two endpoints of an edge
        for left_subset in sorted(reachable, key=repr):
            for right_subset in sorted(reachable, key=repr):
                for pred in binaries:
                    nl, nr = edge_narrowings(left_subset, right_subset, pred)
                    body = [Atom(name_of(left_subset), (x,)),
                            Atom(name_of(right_subset), (y,)),
                            Atom(pred, (x, y))]
                    if nl != left_subset:
                        rules.append(Rule(Atom(name_of(nl), (x,)), body))
                    if nr != right_subset:
                        rules.append(Rule(Atom(name_of(nr), (y,)), body))
        # goal rules
        for subset in sorted(reachable, key=repr):
            if subset and all(t.bits[self.query_index] for t in subset):
                rules.append(Rule(
                    Atom("goal", (x,)), [Atom(name_of(subset), (x,))]))
        empty = frozenset()
        if empty in reachable:
            for pred, arity in sorted(self.onto.sig().items()):
                body_anchor = (
                    Atom(pred, (x,)) if arity == 1 else Atom(pred, (x, y)))
                rules.append(Rule(
                    Atom("goal", (x,)),
                    [body_anchor, Atom(name_of(empty), (Var("z"),))]))
        meta = {
            "seed_pred": seed,
            "empty_pred": names.get(empty),
            "trivial": all(t.bits[self.query_index] for t in self.elem_types),
            "elem_types": len(self.elem_types),
            "pair_types": len(self.pair_types),
            "subsets": len(names),
            "query": repr(self.query),
        }
        return Program(rules, goal="goal"), meta
