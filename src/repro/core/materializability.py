"""Materializability and the disjunction property (Section 3).

By Theorem 17, an ontology O is (UCQ-)materializable iff it has the
*disjunction property*: whenever ``O, D |= q1(d1) v ... v qn(dn)`` for
connected CQs q_i, some disjunct is already certain.  This module searches
for failures of the disjunction property over systematically generated small
instances and test queries.

* A found witness is definitive: O is **not** materializable, and by
  Theorem 3 (for ontologies invariant under disjoint unions) rAQ-evaluation
  w.r.t. O is coNP-hard.
* If the ontology is Horn (its rule conversion has no disjunctive rule),
  materializability holds definitively: the chase produces a universal model
  that answers every UCQ exactly.
* Otherwise the search reports ``MATERIALIZABLE_UP_TO_BOUND``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Const, Element, Formula, Or, Var
from ..queries.cq import CQ
from ..semantics.certain import CertainEngine
from ..semantics.chase import ChaseError, chase
from ..semantics.modelsearch import find_model, query_formula
from ..semantics.rules import convert_ontology
from ..logic.model_check import evaluate


# Chase depth of the disjunction checks (the ladder has its own bounds).
_CHASE_DEPTH = 5


class MatStatus(Enum):
    MATERIALIZABLE = "materializable"
    NOT_MATERIALIZABLE = "not materializable"
    MATERIALIZABLE_UP_TO_BOUND = "no witness found up to the search bound"


@dataclass(frozen=True)
class DisjunctionWitness:
    """A failure of the disjunction property."""

    instance: Interpretation
    disjuncts: tuple[tuple[CQ, tuple[Element, ...]], ...]

    def __repr__(self) -> str:
        parts = " v ".join(f"{q!r}@{t}" for q, t in self.disjuncts)
        return f"DisjunctionWitness({self.instance!r}; {parts})"


@dataclass(frozen=True)
class MaterializabilityReport:
    status: MatStatus
    witness: DisjunctionWitness | None
    instances_checked: int

    @property
    def materializable(self) -> bool | None:
        if self.status is MatStatus.MATERIALIZABLE:
            return True
        if self.status is MatStatus.NOT_MATERIALIZABLE:
            return False
        return None

    def __bool__(self) -> bool:
        return self.status is not MatStatus.NOT_MATERIALIZABLE


def is_horn(onto: Ontology) -> bool:
    """True if the ontology converts to rules without disjunctive heads."""
    rules = convert_ontology(onto)
    if rules is None:
        return False
    return not any(rule.is_disjunctive() for rule in rules)


def candidate_instances(
    sig: dict[str, int],
    max_elems: int = 2,
    max_facts: int = 2,
) -> list[Interpretation]:
    """Systematic small instances over a signature."""
    elems = [Const(f"w{i}") for i in range(max_elems)]
    atoms: list[Atom] = []
    for pred, arity in sorted(sig.items()):
        for combo in itertools.product(elems, repeat=arity):
            atoms.append(Atom(pred, combo))
    out: list[Interpretation] = []
    for r in range(1, max_facts + 1):
        for facts in itertools.combinations(atoms, r):
            out.append(Interpretation(facts))
    return out


def candidate_queries(sig: dict[str, int], include_boolean: bool = False) -> list[CQ]:
    """Atomic and depth-1 existential test queries over a signature.

    With ``include_boolean``, Boolean existential queries (``q() <- R(x,y)``)
    are added — required to detect Example-7-style witnesses, where the
    certain disjunction lives entirely among labelled nulls.
    """
    x, y = Var("x"), Var("y")
    queries: list[CQ] = []
    unaries = sorted(p for p, k in sig.items() if k == 1)
    binaries = sorted(p for p, k in sig.items() if k == 2)
    for p in unaries:
        queries.append(CQ((x,), [Atom(p, (x,))]))
    for r in binaries:
        queries.append(CQ((x, y), [Atom(r, (x, y))]))
        queries.append(CQ((x,), [Atom(r, (x, y))]))          # exists successor
        queries.append(CQ((x,), [Atom(r, (y, x))]))          # exists predecessor
        for p in unaries:
            queries.append(CQ((x,), [Atom(r, (x, y)), Atom(p, (y,))]))
    if include_boolean:
        for p in unaries:
            queries.append(CQ((), [Atom(p, (x,))]))
        for r in binaries:
            queries.append(CQ((), [Atom(r, (x, y))]))
    return queries


def _branch_table(
    onto: Ontology,
    instance: Interpretation,
    formulas: list[Formula],
    chase_depth: int,
) -> list[tuple[bool, tuple[bool, ...]]] | None:
    """Chase *instance* once and evaluate every formula once per branch.

    One row per consistent branch: ``(complete, holds)`` with ``holds[i]``
    the truth of ``formulas[i]`` in that branch's model.  ``None`` when the
    chase fails, so every disjunction falls back to SAT.
    """
    try:
        branches = chase(onto, instance, max_depth=chase_depth)
    except ChaseError:
        return None
    return [(b.complete, tuple(evaluate(f, b.interp) for f in formulas))
            for b in branches.consistent_branches()]


def _disjunction_certain(
    onto: Ontology,
    instance: Interpretation,
    formulas: list[Formula],
    chosen: tuple[int, ...],
    table: list[tuple[bool, tuple[bool, ...]]] | None,
    sat_extra: int,
) -> bool:
    """Is the disjunction of the *chosen* formulas certain on *instance*?

    Decided on the chase *table* when it can be: certain iff it holds in
    every consistent branch model (vacuously so when no branch is
    consistent), and a refuting branch that is complete is a definitive
    'no'.  Otherwise (or with no table) by SAT countermodel search.
    """
    if table is not None:
        if all(any(holds[i] for i in chosen) for _, holds in table):
            return True
        if any(complete and not any(holds[i] for i in chosen)
               for complete, holds in table):
            return False
    counter = find_model(onto, instance, extra=sat_extra,
                         require_false=Or.of(*(formulas[i] for i in chosen)))
    return counter is None


def certain_disjunction(
    onto: Ontology,
    instance: Interpretation,
    formulas: list[Formula],
    engine: CertainEngine,
    chase_depth: int = _CHASE_DEPTH,
    sat_extra: int = 3,
) -> bool:
    """Is the (instantiated) disjunction of the formulas certain?

    Uses chase branches when available (the disjunction is certain iff it
    holds in every consistent branch model), else SAT countermodel search.
    """
    table = (_branch_table(onto, instance, formulas, chase_depth)
             if engine.uses_chase else None)
    return _disjunction_certain(onto, instance, formulas,
                                tuple(range(len(formulas))), table, sat_extra)


def check_materializability(
    onto: Ontology,
    max_elems: int = 2,
    max_facts: int = 2,
    max_disjuncts: int = 2,
    sat_extra: int = 3,
    extra_instances: list[Interpretation] | None = None,
    include_boolean: bool = False,
) -> MaterializabilityReport:
    """Search for a disjunction-property failure (Theorem 17).

    ``extra_instances`` lets callers inject hand-crafted instances beyond
    the systematic enumeration (useful for ontologies whose witnesses need
    specific shapes).  ``include_boolean`` adds Boolean test queries
    (Example-7-style witnesses).
    """
    if is_horn(onto):
        return MaterializabilityReport(MatStatus.MATERIALIZABLE, None, 0)
    engine = CertainEngine(onto, sat_extra=sat_extra)
    sig = onto.sig()
    instances = candidate_instances(sig, max_elems, max_facts)
    if extra_instances:
        instances = list(extra_instances) + instances
    queries = candidate_queries(sig, include_boolean=include_boolean)

    checked = 0
    for instance in instances:
        if not engine.is_consistent(instance):
            continue
        checked += 1
        # Instantiated candidate disjuncts that are not individually certain.
        open_disjuncts: list[tuple[CQ, tuple[Element, ...], Formula]] = []
        domain = sorted(instance.dom(), key=repr)
        for query in queries:
            certain = engine.certain_answers(instance, query)
            for combo in itertools.product(domain, repeat=query.arity):
                if combo not in certain:
                    open_disjuncts.append(
                        (query, combo, query_formula(query, combo)))
        # One chase per instance, and only when there is a tuple to try:
        # the branches depend only on the instance, and each open disjunct
        # is evaluated once per branch.  A tuple the chase cannot settle
        # falls back to SAT countermodel search, as certain_disjunction.
        formulas = [f for (_, _, f) in open_disjuncts]
        table = None
        if engine.uses_chase and min(len(formulas), max_disjuncts) >= 2:
            table = _branch_table(onto, instance, formulas, _CHASE_DEPTH)
        for size in range(2, max_disjuncts + 1):
            for chosen in itertools.combinations(range(len(formulas)), size):
                if _disjunction_certain(onto, instance, formulas, chosen,
                                        table, sat_extra):
                    witness = DisjunctionWitness(
                        instance,
                        tuple(open_disjuncts[i][:2] for i in chosen),
                    )
                    return MaterializabilityReport(
                        MatStatus.NOT_MATERIALIZABLE, witness, checked)
    return MaterializabilityReport(
        MatStatus.MATERIALIZABLE_UP_TO_BOUND, None, checked)
