"""Finite (counter)model search for certain-answer computation.

``O, D |= q(a)`` holds iff ``D ∧ O ∧ ¬q(a)`` is unsatisfiable.  The guarded
fragment and GC2 enjoy the finite model property, so unsatisfiability can be
refuted by finite models; this module searches for models whose domain is
``dom(D)`` plus a configurable number of fresh labelled nulls, by grounding
to SAT (:mod:`repro.semantics.sat`).

Contract: a returned countermodel is definitive (the certain answer is
**no**).  The absence of a countermodel is definitive only relative to the
domain bound; callers choose ``extra`` generously (all tests in this
repository cross-check against the chase where applicable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..logic.instance import Interpretation, fresh_nulls
from ..logic.ontology import Ontology
from ..logic.syntax import Bottom, Element, Formula, Not, Or, substitute
from ..obs import current_tracer
from ..queries.cq import CQ, UCQ
from ..runtime import Budget
from .sat import CNF, add_formula, dpll, ground, model_to_interpretation


def query_formula(query: CQ | UCQ, answer: Sequence[Element]) -> Formula:
    """The sentence ``q(answer)`` (free answer variables instantiated)."""
    if isinstance(query, CQ):
        binding = query.bind(answer)
        if binding is None:
            return Bottom()
        return substitute(query.to_formula(), binding)  # type: ignore[arg-type]
    parts = [query_formula(d, answer) for d in query.disjuncts]
    return Or.of(*parts)


def find_model(
    onto: Ontology,
    base: Interpretation,
    extra: int = 2,
    require_true: Formula | None = None,
    require_false: Formula | None = None,
    budget: Budget | None = None,
) -> Interpretation | None:
    """Search for a model of *base* and *onto* over a bounded domain.

    The domain is ``dom(base)`` plus *extra* fresh nulls.  ``require_true``
    and ``require_false`` are sentences (already element-instantiated) that
    must hold / fail in the model.  A :class:`repro.runtime.Budget` makes
    the grounding loop and the SAT search cooperative (deadline and
    conflict checkpoints).
    """
    domain: list[Element] = sorted(base.dom(), key=repr)
    domain += fresh_nulls("m", extra, avoid=base.dom())
    if not domain:
        return None
    # The span's *self*-time is the grounding cost; the nested cdcl.solve
    # span accounts for the solver (repro.obs).
    with current_tracer().span("sat.search", extra=extra,
                               domain=len(domain)) as span:
        cnf = CNF()
        for fact in base:
            cnf.add_clause([cnf.atom_var((fact.pred, tuple(fact.args)))])
        for sentence in onto.all_sentences():
            if budget is not None:
                budget.check_deadline("modelsearch.ground")
            add_formula(cnf, ground(sentence, domain))
        if require_true is not None:
            add_formula(cnf, ground(require_true, domain))
        if require_false is not None:
            add_formula(cnf, Not(ground(require_false, domain)))
        if budget is not None:
            budget.solver_runs += 1
        span.set(vars=cnf.num_vars, clauses=len(cnf.clauses))
        assignment = dpll(cnf, budget=budget)
        span.set(model_found=assignment is not None)
        if assignment is None:
            return None
        return model_to_interpretation(cnf, assignment)


def is_consistent(onto: Ontology, instance: Interpretation, extra: int = 2,
                  budget: Budget | None = None) -> bool:
    """Bounded consistency check (definitive 'yes' when a model is found)."""
    return find_model(onto, instance, extra, budget=budget) is not None


@dataclass(frozen=True)
class CertainAnswerResult:
    """Outcome of a certain-answer check."""

    holds: bool
    countermodel: Interpretation | None
    domain_bound: int

    def __bool__(self) -> bool:
        return self.holds


def certain_answer(
    onto: Ontology,
    instance: Interpretation,
    query: CQ | UCQ,
    answer: Sequence[Element] = (),
    extra: int = 2,
    budget: Budget | None = None,
) -> CertainAnswerResult:
    """Decide ``O, D |= q(answer)`` by bounded countermodel search.

    ``holds=False`` comes with a concrete countermodel and is definitive;
    ``holds=True`` is definitive relative to the domain bound (see module
    docstring).
    """
    phi = query_formula(query, tuple(answer))
    counter = find_model(onto, instance, extra, require_false=phi,
                         budget=budget)
    bound = len(instance.dom()) + extra
    if counter is not None:
        return CertainAnswerResult(False, counter, bound)
    return CertainAnswerResult(True, None, bound)
