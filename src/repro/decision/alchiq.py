"""Deciding PTIME query evaluation for ALCHIQ depth-1 ontologies (Thm 13).

By Theorem 7 + Lemma 5 + Lemma 6, an ALCHIQ ontology of depth 1 has PTIME
query evaluation (equivalently, is Datalog≠-rewritable) iff every relevant
irreflexive bouquet has a *1-materialization*: a bouquet B ⊇ D that is the
1-neighbourhood of the root in some model of D and O, and that maps
homomorphically into every model of D and O preserving dom(D).

The homomorphism condition is exactly a certain-answer statement: turning
B's nulls into variables yields a CQ q_B with answer variables dom(D), and
B maps into every model iff ``O, D |= q_B(dom(D))``.  The implementation

1. enumerates the relevant bouquets D (:mod:`repro.decision.bouquets`),
2. enumerates candidate neighbourhoods B constructively — the O-saturation
   of D extended by up to k extra petals,
3. keeps candidates whose CQ is certain (they map into every model), and
4. checks exact-neighbourhood realizability by SAT (there is a model whose
   root neighbourhood is exactly B).

The petal and domain bounds make the procedure complete relative to those
bounds; the tests exercise both PTIME and coNP-hard inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dl.concepts import DLOntology
from ..dl.translate import dl_to_ontology
from ..guarded.decomposition import one_neighbourhood
from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..logic.syntax import Atom, Element, Var
from ..queries.cq import CQ
from ..semantics.certain import CertainEngine
from .bouquets import enumerate_bouquets


def bouquet_query(
    candidate: Interpretation,
    preserve: list[Element],
) -> tuple[CQ, tuple[Element, ...]]:
    """The CQ q_B of a candidate 1-materialization.

    Elements of the original bouquet (*preserve*) become answer variables
    — the homomorphism must fix them — while elements added by the
    completion become existential variables.  Returns the query together
    with the answer tuple (the preserved elements themselves).
    """
    mapping: dict[Element, Var] = {}
    answer_vars: list[Var] = []
    for idx, elem in enumerate(sorted(candidate.dom(), key=repr)):
        if elem in preserve:
            var = Var(f"x{idx}")
            answer_vars.append(var)
        else:
            var = Var(f"v{idx}")
        mapping[elem] = var
    atoms = [
        Atom(fact.pred, tuple(mapping[a] for a in fact.args))
        for fact in candidate
    ]
    answer = tuple(e for e in sorted(candidate.dom(), key=repr) if e in preserve)
    return CQ(tuple(answer_vars), atoms), answer


@dataclass(frozen=True)
class OneMatReport:
    """Outcome of the 1-materialization search for one bouquet."""

    bouquet: Interpretation
    found: Interpretation | None
    candidates_tried: int


def minimize_model(
    onto: Ontology,
    base: Interpretation,
    model: Interpretation,
) -> Interpretation:
    """Greedily drop atoms not in *base* while remaining a model.

    Minimal models have clean 1-neighbourhoods (SAT models may set atoms
    arbitrarily when unconstrained); the result is still a genuine model,
    so its root neighbourhood is realizable as an exact neighbourhood.
    """
    from ..logic.model_check import satisfies_all

    current = model.copy()
    sentences = onto.all_sentences()
    for fact in sorted(model, key=repr):
        if fact in base:
            continue
        current.discard(fact)
        if not satisfies_all(current, sentences):
            current.add(fact)
    return current


def is_exact_neighbourhood_realizable(
    onto: Ontology,
    candidate: Interpretation,
    root: Element,
    extra: int = 2,
) -> bool:
    """Is there a model A of the candidate and O with A^{<=1}_root equal
    to the candidate?

    Encoded as SAT over candidate's domain plus *extra* fresh nulls, with
    negative units fixing every atom over candidate's elements that is not
    in the candidate, and forbidding binary atoms linking the root to the
    fresh nulls (which would enlarge the neighbourhood).
    """
    import itertools as _it

    from ..logic.instance import fresh_nulls
    from ..semantics.sat import CNF, add_formula, dpll, ground

    elems = sorted(candidate.dom(), key=repr)
    nulls = fresh_nulls("m", extra, avoid=candidate.dom())
    domain = elems + nulls
    sig = dict(onto.sig())
    for pred, arity in candidate.sig().items():
        sig.setdefault(pred, arity)
    cnf = CNF()
    # exact neighbourhood: atoms over candidate elements are fixed
    for pred, arity in sorted(sig.items()):
        for combo in _it.product(elems, repeat=arity):
            var = cnf.atom_var((pred, combo))
            if combo in candidate.tuples(pred):
                cnf.add_clause([var])
            else:
                cnf.add_clause([-var])
        # no binary edges between the root and the helper nulls
        if arity == 2:
            for null in nulls:
                cnf.add_clause([-cnf.atom_var((pred, (root, null)))])
                cnf.add_clause([-cnf.atom_var((pred, (null, root)))])
    for sentence in onto.all_sentences():
        add_formula(cnf, ground(sentence, domain))
    return dpll(cnf) is not None


def candidate_completions(
    saturated: Interpretation,
    root: Element,
    sig: dict[str, int],
    max_extra_petals: int = 2,
):
    """Candidate 1-materializations: the saturated bouquet plus petals."""
    import itertools as _it

    from ..logic.syntax import Const

    from .bouquets import neighbour_types

    types = neighbour_types({p: k for p, k in sig.items() if k <= 2})
    for count in range(max_extra_petals + 1):
        for petals in _it.combinations_with_replacement(types, count):
            candidate = saturated.copy()
            for idx, petal in enumerate(petals):
                fresh = Const(f"o{idx}")
                for rel in sorted(petal.out_edges):
                    candidate.add(Atom(rel, (root, fresh)))
                for rel in sorted(petal.in_edges):
                    candidate.add(Atom(rel, (fresh, root)))
                for label in sorted(petal.labels):
                    candidate.add(Atom(label, (fresh,)))
            yield candidate


def find_one_materialization(
    onto: Ontology,
    bouquet: Interpretation,
    root: Element,
    extra: int = 2,
    max_extra_petals: int = 2,
    engine: CertainEngine | None = None,
) -> OneMatReport:
    """Search for a 1-materialization of the bouquet w.r.t. the ontology.

    Candidates are systematic completions of the O-saturated bouquet by up
    to ``max_extra_petals`` extra petals; each is checked for (a) exact
    neighbourhood realizability and (b) the certain-answer condition.
    """
    if engine is None:
        engine = CertainEngine(onto, backend="sat", sat_extra=extra + 1)
    preserve = sorted(bouquet.dom(), key=repr)
    saturated = engine.saturate(bouquet)
    tried = 0
    for candidate in candidate_completions(
            saturated, root, onto.sig(), max_extra_petals):
        query, answer = bouquet_query(candidate, preserve)
        if not engine.entails(bouquet, query, answer):
            continue  # would not map into every model
        tried += 1
        if is_exact_neighbourhood_realizable(onto, candidate, root, extra):
            return OneMatReport(bouquet, candidate, tried)
    return OneMatReport(bouquet, None, tried)


@dataclass(frozen=True)
class PTimeDecision:
    """The meta-decision outcome (Theorem 13)."""

    ptime: bool
    failing_bouquet: Interpretation | None
    bouquets_checked: int

    def __bool__(self) -> bool:
        return self.ptime


def decide_ptime_alchiq(
    tbox: DLOntology,
    max_outdegree: int = 2,
    extra: int = 2,
    max_extra_petals: int = 2,
) -> PTimeDecision:
    """Decide PTIME query evaluation for an ALCHIQ depth-1 TBox.

    ``max_outdegree`` caps the bouquet outdegree (Lemma 5 allows |O|, which
    is sound but rarely needed; the cap trades completeness of the refuter
    for speed and is sufficient for counting bounds up to max_outdegree).
    """
    if tbox.depth() > 1:
        raise ValueError("the procedure applies to depth-1 TBoxes only")
    onto = dl_to_ontology(tbox)
    return decide_ptime_ontology(onto, max_outdegree, extra, max_extra_petals)


def decide_ptime_ontology(
    onto: Ontology,
    max_outdegree: int = 2,
    extra: int = 2,
    max_extra_petals: int = 2,
) -> PTimeDecision:
    """The bouquet procedure on an already-translated ontology."""
    engine = CertainEngine(onto, backend="sat", sat_extra=extra + 1)
    sig = {p: k for p, k in onto.sig().items() if k <= 2}
    checked = 0
    for bouquet, root in enumerate_bouquets(sig, max_outdegree):
        if not engine.is_consistent(bouquet):
            continue
        checked += 1
        report = find_one_materialization(
            onto, bouquet, root, extra=extra, max_extra_petals=max_extra_petals,
            engine=engine)
        if report.found is None:
            return PTimeDecision(False, bouquet, checked)
    return PTimeDecision(True, None, checked)
