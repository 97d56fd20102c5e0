"""Content-addressed fingerprints for OMQ artifacts.

A fingerprint is the SHA-256 digest of a *canonical rendering* — a textual
form that is invariant under the accidents of construction: sentence order
in an ontology, atom order in a CQ, fact insertion order in an instance,
and the ontology's display name all wash out.  Two artifacts with the same
fingerprint denote the same mathematical object (up to the canonical
rendering), so fingerprints are safe keys for the plan/answer caches of
:mod:`repro.serving.cache` — including the on-disk cache shared between
CLI invocations and worker processes.

Renderings are built from the library's ``repr`` forms, which are already
canonical per node (``R(x, y)``, ``forall ...``); this module only adds
deterministic ordering and framing.  An instance renders through
:func:`render_facts`, which also renders parsed fact text, so the answer
key of a batch job needs no :class:`Interpretation`
(:func:`fingerprint_facts`).  An ontology renders once and keeps its text
and fingerprint (:attr:`Ontology.canonical_text`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

from ..logic.instance import Interpretation
from ..logic.ontology import Ontology
from ..queries.cq import CQ, UCQ

_DIGEST_CHARS = 16  # 64 bits of SHA-256: ample for cache keys, short on disk


def digest(text: str) -> str:
    """The fingerprint of an already-canonical text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


# -- canonical renderings ----------------------------------------------------


def canonical_ontology(onto: Ontology) -> str:
    """Order-independent rendering; the display name is *not* part of it
    (kept on the ontology: :attr:`Ontology.canonical_text`)."""
    return onto.canonical_text


def canonical_cq(cq: CQ) -> str:
    head = ",".join(v.name for v in cq.answer_vars)
    body = " & ".join(sorted(repr(a) for a in cq.atoms))
    return f"q({head}) <- {body}"


def canonical_query(query: CQ | UCQ) -> str:
    """Canonical rendering of a CQ or UCQ (disjunct order washes out)."""
    if isinstance(query, UCQ):
        return "query\n" + " ; ".join(
            sorted(canonical_cq(cq) for cq in query.disjuncts))
    return "query\n" + canonical_cq(query)


def render_facts(facts: Mapping[str, Iterable[tuple[str, ...]]]) -> str:
    """The canonical rendering of facts given as predicate -> argument
    tuples, each argument already rendered (a constant by its name):
    predicates sorted, each one's tuples ordered by their tuple ``repr``
    (the order an ``Interpretation`` iterates in), duplicates dropped.
    The tuples of one predicate share an arity."""
    lines = []
    for pred in sorted(facts):
        lines.extend(f"{pred}({', '.join(args)})"
                     for args in sorted(set(facts[pred]), key=_tuple_repr))
    return "instance\n" + "\n".join(lines)


def _tuple_repr(args: tuple[str, ...]) -> str:
    """``repr`` of a tuple of elements rendered as *args*."""
    return f"({args[0]},)" if len(args) == 1 else f"({', '.join(args)})"


def canonical_instance(instance: Interpretation) -> str:
    """Sorted fact list (:func:`render_facts` of the elements' ``repr``)."""
    return render_facts({
        pred: [tuple(map(repr, args))
               for args in instance.candidate_tuples(pred)]
        for pred in instance.sig()})


# -- fingerprints ------------------------------------------------------------


def fingerprint_ontology(onto: Ontology) -> str:
    return onto.fingerprint


def fingerprint_query(query: CQ | UCQ) -> str:
    return digest(canonical_query(query))


def fingerprint_instance(instance: Interpretation) -> str:
    return digest(canonical_instance(instance))


def fingerprint_facts(facts: Iterable[tuple[str, tuple[str, ...]]]) -> str:
    """``fingerprint_instance(make_instance(*texts))`` from the *texts*
    already parsed (:func:`repro.logic.instance.parse_fact`) into
    predicates and constant names, without building the instance."""
    table: dict[str, list[tuple[str, ...]]] = {}
    for pred, args in facts:
        table.setdefault(pred, []).append(args)
    return digest(render_facts(table))


def fingerprint_omq(onto: Ontology, query: CQ | UCQ) -> str:
    """The OMQ (O, q) fingerprint: the identity of a compiled plan."""
    return digest(onto.canonical_text + "\n--\n" + canonical_query(query))


def combine(*parts: str | Sequence[str]) -> str:
    """Fingerprint a composite key from already-computed fingerprints."""
    flat: list[str] = []
    for p in parts:
        if isinstance(p, str):
            flat.append(p)
        else:
            flat.extend(p)
    return digest("\x1f".join(flat))
