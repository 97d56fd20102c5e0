"""Ontologies: finite sets of FO sentences plus functionality declarations.

An :class:`Ontology` bundles the sentences with the set of binary relations
declared to be partial functions (the ``f`` feature of uGF2(f), Section 2.1).
Functionality axioms are kept as declarations rather than FO sentences so
that fragment analysis can distinguish ``uGF2(1, f)`` from ontologies that
merely contain equality; :meth:`Ontology.functionality_sentences` produces
the corresponding FO axioms when a purely sentential view is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .parser import parse_sentences
from .syntax import (
    And, Atom, Eq, Forall, Formula, Implies, Var, atoms_of, formula_size,
    signature_of,
)


@dataclass(frozen=True)
class Ontology:
    """A finite set of FO sentences with optional functional relations.

    ``functional`` declares binary relations that are partial functions in
    the forward direction; ``inverse_functional`` in the backward direction
    (the translation of DL ``func(R-)``).  Being frozen, an ontology keeps
    its :attr:`canonical_text` and :attr:`fingerprint` once computed.
    """

    sentences: tuple[Formula, ...]
    functional: frozenset[str] = frozenset()
    inverse_functional: frozenset[str] = frozenset()
    name: str = ""

    def __init__(
        self,
        sentences: Iterable[Formula],
        functional: Iterable[str] = (),
        name: str = "",
        inverse_functional: Iterable[str] = (),
    ):
        object.__setattr__(self, "sentences", tuple(sentences))
        object.__setattr__(self, "functional", frozenset(functional))
        object.__setattr__(self, "inverse_functional", frozenset(inverse_functional))
        object.__setattr__(self, "name", name)
        for phi in self.sentences:
            if phi.free_vars():
                raise ValueError(f"ontology sentence {phi!r} has free variables")
        # Eager signature validation: a predicate used at two arities (or a
        # functional declaration on a non-binary relation) would otherwise
        # surface much later as a wrong verdict or an engine traceback.
        arities: dict[str, int] = {}
        for idx, phi in enumerate(self.sentences):
            for atom in atoms_of(phi):
                known = arities.setdefault(atom.pred, atom.arity)
                if known != atom.arity:
                    raise ValueError(
                        f"predicate {atom.pred} used at arity {atom.arity} "
                        f"in sentence {idx} but at arity {known} elsewhere "
                        "in the ontology")
        for rel in sorted(self.functional | self.inverse_functional):
            if arities.get(rel, 2) != 2:
                raise ValueError(
                    f"functionality declared on {rel}, which is used at "
                    f"arity {arities[rel]}; partial functions must be binary")

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.sentences)

    @cached_property
    def canonical_text(self) -> str:
        """The order-independent rendering that content fingerprints hash:
        the sorted sentences, then the (inverse) functionality
        declarations.  The display name is not part of it.  Rendered on
        first use and kept on the object."""
        lines = sorted(repr(phi) for phi in self.sentences)
        if self.functional:
            lines.append("functional: " + ",".join(sorted(self.functional)))
        if self.inverse_functional:
            lines.append("inverse_functional: "
                         + ",".join(sorted(self.inverse_functional)))
        return "ontology\n" + "\n".join(lines)

    @cached_property
    def fingerprint(self) -> str:
        """The digest of :attr:`canonical_text`
        (:func:`repro.serving.fingerprint.digest`), kept like it."""
        from ..serving.fingerprint import digest

        return digest(self.canonical_text)

    def __len__(self) -> int:
        return len(self.sentences)

    def sig(self) -> dict[str, int]:
        """All relation symbols used, including declared functions."""
        out: dict[str, int] = {}
        for phi in self.sentences:
            out.update(signature_of(phi))
        for f in self.functional | self.inverse_functional:
            out.setdefault(f, 2)
        return out

    def size(self) -> int:
        """|O|: total symbol count (used for outdegree bounds in Lemma 5)."""
        return (sum(formula_size(phi) for phi in self.sentences)
                + len(self.functional) + len(self.inverse_functional))

    def functionality_sentences(self) -> list[Formula]:
        """FO axioms for the declared partial functions.

        ``forall x,y1,y2 ((R(x,y1) & R(x,y2)) -> y1 = y2)`` following
        Section 2.1 (uGF2(f)); represented with a guarded shape so model
        checking stays efficient.  Inverse-functional relations get the
        mirrored axiom.
        """
        x, y1, y2 = Var("x"), Var("fy1"), Var("fy2")
        out: list[Formula] = []
        for rel in sorted(self.functional):
            guard = Atom(rel, (x, y1))
            body = Forall((y2,), Atom(rel, (x, y2)), Eq(y1, y2))
            out.append(Forall((x, y1), guard, body))
        for rel in sorted(self.inverse_functional):
            guard = Atom(rel, (y1, x))
            body = Forall((y2,), Atom(rel, (y2, x)), Eq(y1, y2))
            out.append(Forall((x, y1), guard, body))
        return out

    def all_sentences(self) -> list[Formula]:
        """Sentences plus functionality axioms."""
        return list(self.sentences) + self.functionality_sentences()

    def union(self, other: "Ontology", name: str = "") -> "Ontology":
        return Ontology(
            self.sentences + other.sentences,
            self.functional | other.functional,
            name or f"{self.name}+{other.name}",
            self.inverse_functional | other.inverse_functional,
        )

    def __repr__(self) -> str:
        label = self.name or "Ontology"
        return f"<{label}: {len(self.sentences)} sentences, functional={sorted(self.functional)}>"


def ontology(text: str, functional: Sequence[str] = (), name: str = "") -> Ontology:
    """Parse an ontology from newline-separated sentences."""
    return Ontology(parse_sentences(text), functional, name)
