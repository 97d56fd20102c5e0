"""Homomorphisms between interpretations.

A homomorphism ``h : A -> B`` maps dom(A) to dom(B) such that every fact of A
is mapped to a fact of B.  The search renames each element of A to a
variable and matches A's facts into B with the shared join kernel
(:mod:`repro.logic.match`), so every step reads one of B's index buckets.
``preserve`` pins a set of elements to themselves — the "preserves dom(D)"
condition used throughout the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .instance import Interpretation
from .match import Pattern
from .syntax import Atom, Element, Var


def find_homomorphism(
    source: Interpretation,
    target: Interpretation,
    preserve: Iterable[Element] = (),
    partial: Mapping[Element, Element] | None = None,
) -> dict[Element, Element] | None:
    """Return a homomorphism from *source* to *target*, or None.

    ``preserve`` elements must map to themselves; ``partial`` pre-binds
    specific elements.
    """
    for hom in homomorphisms(source, target, preserve, partial):
        return hom
    return None


def has_homomorphism(
    source: Interpretation,
    target: Interpretation,
    preserve: Iterable[Element] = (),
    partial: Mapping[Element, Element] | None = None,
) -> bool:
    return find_homomorphism(source, target, preserve, partial) is not None


def homomorphisms(
    source: Interpretation,
    target: Interpretation,
    preserve: Iterable[Element] = (),
    partial: Mapping[Element, Element] | None = None,
) -> Iterator[dict[Element, Element]]:
    """Enumerate all homomorphisms from *source* to *target*.

    Each yielded mapping also carries the ``preserve``/``partial`` entries
    for elements outside dom(*source*).
    """
    assignment: dict[Element, Element] = dict(partial or {})
    for e in preserve:
        if assignment.get(e, e) != e:
            return
        assignment[e] = e
    elems = sorted(source.dom(), key=repr)
    var_of = {e: Var(f"e{i}") for i, e in enumerate(elems)}
    binding = {var_of[e]: v for e, v in assignment.items() if e in var_of}
    pattern = Pattern(
        [Atom(fact.pred, tuple(var_of[a] for a in fact.args))
         for fact in source],
        bound=binding)
    for env in pattern.matches(target, binding):
        hom = dict(assignment)
        for e in elems:
            hom[e] = env[var_of[e]]
        yield hom


def is_isomorphic_embedding(
    source: Interpretation,
    target: Interpretation,
    mapping: Mapping[Element, Element],
) -> bool:
    """Check *mapping* is injective and reflects facts (Section 2)."""
    values = list(mapping.values())
    if len(set(values)) != len(values):
        return False
    for fact in source:
        image = Atom(fact.pred, tuple(mapping[a] for a in fact.args))
        if image not in target:
            return False
    inverse = {v: k for k, v in mapping.items()}
    for pred in target.sig():
        for args in target.tuples(pred):
            if all(a in inverse for a in args):
                back = Atom(pred, tuple(inverse[a] for a in args))
                if back not in source:
                    return False
    return True


def are_isomorphic(a: Interpretation, b: Interpretation) -> bool:
    """Exact isomorphism test by guided backtracking (small inputs only)."""
    if len(a) != len(b) or len(a.dom()) != len(b.dom()):
        return False
    if a.sig() != b.sig():
        return False
    for hom in homomorphisms(a, b):
        if is_isomorphic_embedding(a, b, hom) and len(set(hom.values())) == len(b.dom()):
            return True
    return False
