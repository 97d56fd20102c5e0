"""Database instances and interpretations.

Following Section 2 of the paper, an *instance* is a finite, non-empty set of
facts ``R(a1, ..., ak)`` over data constants, and an *interpretation* is a set
of atoms over data constants and labelled nulls.  Both are represented by the
:class:`Interpretation` class; :func:`is_instance` checks the constants-only
condition.

The class keeps per-predicate, per-element and per-``(pred, position,
value)`` hash indexes, maintained incrementally on ``add``/``discard``.
:meth:`Interpretation.candidate_tuples` looks candidates up in them, so
the join kernel (:mod:`repro.logic.match`, behind the chase, CQ answering,
homomorphism search and Datalog) and guarded-quantifier model checking
never scan the full fact set to find candidates.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .syntax import Atom, Const, Element, Null, Term, Var, is_element


class Interpretation:
    """A set of ground atoms over constants and labelled nulls.

    The domain is the active domain: every element occurring in some fact.
    """

    __slots__ = ("_facts", "_by_elem", "_arity", "_index", "_size",
                 "_iter_cache")

    def __init__(self, facts: Iterable[Atom] = ()):
        # predicate -> set of argument tuples
        self._facts: dict[str, set[tuple[Element, ...]]] = {}
        # element -> set of (pred, tuple) facts it appears in
        self._by_elem: dict[Element, set[tuple[str, tuple[Element, ...]]]] = {}
        # (pred, position, value) -> set of argument tuples with that value
        # at that position; the join index of repro.logic.match.
        self._index: dict[tuple[str, int, Element], set[tuple[Element, ...]]] = {}
        self._arity: dict[str, int] = {}
        self._size = 0
        # Canonical iteration order, rebuilt lazily after mutations so
        # fingerprinting/journaling of a stable instance sorts only once.
        self._iter_cache: tuple[Atom, ...] | None = None
        for fact in facts:
            self.add(fact)

    # -- mutation -----------------------------------------------------------

    def add(self, fact: Atom) -> None:
        """Insert a ground fact."""
        if not all(is_element(a) for a in fact.args):
            raise ValueError(f"fact {fact!r} contains a variable")
        known = self._arity.setdefault(fact.pred, fact.arity)
        if known != fact.arity:
            raise arity_clash(fact.pred, known, fact.arity)
        args = tuple(fact.args)
        bucket = self._facts.get(fact.pred)
        if bucket is None:
            bucket = self._facts[fact.pred] = set()
        elif args in bucket:
            return
        bucket.add(args)
        self._size += 1
        self._iter_cache = None
        by_elem = self._by_elem
        entry = (fact.pred, args)
        index = self._index
        for pos, a in enumerate(args):
            occurrences = by_elem.get(a)
            if occurrences is None:
                by_elem[a] = {entry}
            else:
                occurrences.add(entry)
            key = (fact.pred, pos, a)
            slot = index.get(key)
            if slot is None:
                index[key] = {args}
            else:
                slot.add(args)

    def add_all(self, facts: Iterable[Atom]) -> None:
        for fact in facts:
            self.add(fact)

    def discard(self, fact: Atom) -> None:
        """Remove a fact if present."""
        args = tuple(fact.args)
        bucket = self._facts.get(fact.pred)
        if bucket is None or args not in bucket:
            return
        bucket.discard(args)
        self._size -= 1
        self._iter_cache = None
        if not bucket:
            del self._facts[fact.pred]
            del self._arity[fact.pred]
        entry = (fact.pred, args)
        for pos, a in enumerate(args):
            occurrences = self._by_elem.get(a)
            if occurrences is not None:
                occurrences.discard(entry)
                if not occurrences:
                    del self._by_elem[a]
            key = (fact.pred, pos, a)
            slot = self._index.get(key)
            if slot is not None:
                slot.discard(args)
                if not slot:
                    del self._index[key]

    # -- inspection ----------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        bucket = self._facts.get(fact.pred)
        return bucket is not None and tuple(fact.args) in bucket

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        cache = self._iter_cache
        if cache is None:
            cache = self._iter_cache = tuple(
                Atom(pred, args)
                for pred in sorted(self._facts)
                for args in sorted(self._facts[pred], key=repr))
        return iter(cache)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return self._facts == other._facts

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in itertools.islice(self, 12))
        suffix = ", ..." if len(self) > 12 else ""
        return f"Interpretation({{{inner}{suffix}}})"

    def copy(self) -> "Interpretation":
        """An independent clone: O(n) set copies, indexes carried over,
        no per-fact re-validation."""
        new = Interpretation.__new__(Interpretation)
        new._facts = {p: set(s) for p, s in self._facts.items()}
        new._by_elem = {e: set(s) for e, s in self._by_elem.items()}
        new._index = {k: set(s) for k, s in self._index.items()}
        new._arity = dict(self._arity)
        new._size = self._size
        new._iter_cache = self._iter_cache
        return new

    def dom(self) -> frozenset[Element]:
        """Active domain: all constants and nulls occurring in facts."""
        return frozenset(self._by_elem)

    def sig(self) -> dict[str, int]:
        """Relation symbols occurring in the interpretation, with arities."""
        return dict(self._arity)

    def arity(self, pred: str) -> int | None:
        return self._arity.get(pred)

    def tuples(self, pred: str) -> frozenset[tuple[Element, ...]]:
        """All argument tuples of *pred* (empty if absent)."""
        return frozenset(self._facts.get(pred, frozenset()))

    def facts_about(self, elem: Element) -> Iterator[Atom]:
        """All facts in which *elem* occurs."""
        for pred, args in self._by_elem.get(elem, ()):
            yield Atom(pred, args)

    def occurrences(self, elem: Element) -> int:
        """The number of facts in which *elem* occurs."""
        return len(self._by_elem.get(elem, ()))

    def constants(self) -> frozenset[Const]:
        return frozenset(e for e in self._by_elem if isinstance(e, Const))

    def nulls(self) -> frozenset[Null]:
        return frozenset(e for e in self._by_elem if isinstance(e, Null))

    # -- matching --------------------------------------------------------------

    def match_atom(
        self,
        atom: Atom,
        assignment: Mapping[Var, Element],
    ) -> Iterator[dict[Var, Element]]:
        """Yield extensions of *assignment* making *atom* true.

        Variables already bound must match; unbound variables are bound by
        each yielded dictionary (which contains only the *new* bindings).
        """
        bound = []
        for pos, term in enumerate(atom.args):
            value = assignment.get(term) if isinstance(term, Var) else term
            if value is not None:
                bound.append((pos, value))
        for args in self.candidate_tuples(atom.pred, bound):
            new: dict[Var, Element] = {}
            ok = True
            for term, value in zip(atom.args, args):
                if isinstance(term, Var):
                    bound_value = assignment.get(term, new.get(term))
                    if bound_value is None:
                        new[term] = value
                    elif bound_value != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if ok:
                yield new

    def candidate_tuples(
        self,
        pred: str,
        bound: Iterable[tuple[int, Element]] = (),
    ) -> Iterable[tuple[Element, ...]]:
        """Argument tuples of *pred* compatible with the ``(position,
        value)`` constraints in *bound*: the smallest index bucket over
        the bound positions, or every tuple of *pred* — one dict lookup
        per bound position, never a scan.

        The returned collection is a live internal set; callers must not
        mutate it or mutate the interpretation while iterating.
        """
        all_tuples = self._facts.get(pred)
        if not all_tuples:
            return ()
        best: Iterable[tuple[Element, ...]] = all_tuples
        best_len = len(all_tuples)
        index = self._index
        for pos, value in bound:
            bucket = index.get((pred, pos, value))
            if bucket is None:
                return ()  # a bound position with no occurrences: no match
            if len(bucket) < best_len:
                best = bucket
                best_len = len(bucket)
        return best

    def has_tuple(self, pred: str, args: tuple[Element, ...]) -> bool:
        """Membership test on raw ``(pred, argument-tuple)`` pairs."""
        bucket = self._facts.get(pred)
        return bucket is not None and args in bucket

    def count(self, pred: str) -> int:
        """Number of tuples of *pred* (0 if absent)."""
        bucket = self._facts.get(pred)
        return len(bucket) if bucket is not None else 0

    # -- structural notions ---------------------------------------------------

    def guarded_sets(self) -> set[frozenset[Element]]:
        """All guarded sets: singletons and fact argument sets (S(A))."""
        out: set[frozenset[Element]] = {frozenset([e]) for e in self._by_elem}
        for args_set in self._facts.values():
            for args in args_set:
                out.add(frozenset(args))
        return out

    def maximal_guarded_sets(self) -> set[frozenset[Element]]:
        """Guarded sets maximal under inclusion."""
        sets = self.guarded_sets()
        return {
            g for g in sets
            if not any(g < h for h in sets)
        }

    def is_guarded_tuple(self, elems: Sequence[Element]) -> bool:
        """True if the elements all lie inside one guarded set."""
        need = frozenset(elems)
        if len(need) <= 1:
            return all(e in self._by_elem for e in need) or not need
        return any(need <= g for g in self.guarded_sets())

    def gaifman_edges(self) -> set[frozenset[Element]]:
        """Edges of the Gaifman graph (Definition 6)."""
        edges: set[frozenset[Element]] = set()
        for args_set in self._facts.values():
            for args in args_set:
                distinct = set(args)
                for a, b in itertools.combinations(sorted(distinct, key=repr), 2):
                    edges.add(frozenset((a, b)))
        return edges

    def gaifman_neighbours(self) -> dict[Element, set[Element]]:
        nbrs: dict[Element, set[Element]] = {e: set() for e in self._by_elem}
        for edge in self.gaifman_edges():
            a, b = tuple(edge)
            nbrs[a].add(b)
            nbrs[b].add(a)
        return nbrs

    def distances_from(self, sources: Iterable[Element]) -> dict[Element, int]:
        """BFS distances in the Gaifman graph from a set of sources."""
        nbrs = self.gaifman_neighbours()
        dist: dict[Element, int] = {}
        frontier = [s for s in sources if s in nbrs]
        for s in frontier:
            dist[s] = 0
        depth = 0
        while frontier:
            depth += 1
            nxt: list[Element] = []
            for e in frontier:
                for n in nbrs[e]:
                    if n not in dist:
                        dist[n] = depth
                        nxt.append(n)
            frontier = nxt
        return dist

    def connected_components(self) -> list[frozenset[Element]]:
        """Connected components of the Gaifman graph."""
        nbrs = self.gaifman_neighbours()
        seen: set[Element] = set()
        comps: list[frozenset[Element]] = []
        for start in nbrs:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                e = stack.pop()
                for n in nbrs[e]:
                    if n not in comp:
                        comp.add(n)
                        stack.append(n)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def induced(self, elements: Iterable[Element]) -> "Interpretation":
        """Subinterpretation induced by *elements* (B|_A in the paper)."""
        keep = set(elements)
        sub = Interpretation()
        seen: set[tuple[str, tuple[Element, ...]]] = set()
        for e in keep:
            for pred, args in self._by_elem.get(e, ()):
                if (pred, args) in seen:
                    continue
                seen.add((pred, args))
                if all(a in keep for a in args):
                    sub.add(Atom(pred, args))
        return sub

    def restrict_signature(self, predicates: Iterable[str]) -> "Interpretation":
        """The reduct containing only facts over *predicates*."""
        keep = set(predicates)
        out = Interpretation()
        for pred, args_set in self._facts.items():
            if pred in keep:
                for args in args_set:
                    out.add(Atom(pred, args))
        return out

    # -- combination -----------------------------------------------------------

    def union(self, other: "Interpretation") -> "Interpretation":
        """Plain union of fact sets (domains may overlap)."""
        out = self.copy()
        for fact in other:
            out.add(fact)
        return out

    def rename(self, mapping: Mapping[Element, Element]) -> "Interpretation":
        """Apply an element renaming to every fact."""
        out = Interpretation()
        for fact in self:
            out.add(Atom(fact.pred, tuple(mapping.get(a, a) for a in fact.args)))
        return out


def disjoint_union(parts: Sequence[Interpretation]) -> Interpretation:
    """Disjoint union; overlapping elements of later parts are renamed apart.

    Renamed elements become fresh nulls tagged with the part index, the
    element kind and a uniqueness counter, so the result's restriction to
    part *i* is isomorphic to ``parts[i]``.  (The kind tag + counter keep
    a clashing ``Const("x")`` and ``Null("x")`` of the same part distinct
    after renaming, and dodge any like-named null already in play.)
    """
    out = Interpretation()
    used: set[Element] = set()
    fresh = 0
    for idx, part in enumerate(parts):
        dom = part.dom()
        clash = dom & used
        mapping: dict[Element, Element] = {}
        if clash:
            taken: set[Element] = set(used) | set(dom)
            for e in sorted(clash, key=repr):
                kind = "c" if isinstance(e, Const) else "n"
                name = getattr(e, "name", e)
                while True:
                    candidate = Null(f"du{idx}_{kind}{fresh}_{name}")
                    fresh += 1
                    if candidate not in taken:
                        break
                mapping[e] = candidate
                taken.add(candidate)
        renamed = part.rename(mapping) if mapping else part
        for fact in renamed:
            out.add(fact)
        used |= renamed.dom()
    return out


def is_instance(interp: Interpretation) -> bool:
    """True if the interpretation is a database instance (constants only)."""
    return all(isinstance(e, Const) for e in interp.dom())


def fresh_nulls(prefix: str, count: int, avoid: Iterable[Element] = ()) -> list[Null]:
    """Generate *count* nulls named ``prefix0, prefix1, ...`` avoiding clashes."""
    taken = {e.name for e in avoid if isinstance(e, Null)}
    out: list[Null] = []
    i = 0
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in taken:
            out.append(Null(name))
        i += 1
    return out


def arity_clash(pred: str, known: int, arity: int) -> ValueError:
    """The error for a fact of *pred* at *arity* where earlier facts have
    *known* arity."""
    return ValueError(f"arity clash for {pred}: {known} vs {arity}")


def parse_fact(text: str) -> tuple[str, tuple[str, ...]]:
    """Split ``"R(a, b)"`` into its predicate and argument names,
    ``("R", ("a", "b"))``.  Whitespace around the predicate and around
    each argument is dropped, and so are empty arguments; ``ValueError``
    on text that is not ``pred(...)``.  The one fact parser:
    :func:`make_instance` and the answer key of a batch job's text
    (:mod:`repro.serving.batch`) both read facts through it."""
    text = text.strip()
    pred, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"malformed fact {text!r}")
    return pred.strip(), tuple(filter(None, map(str.strip,
                                                rest[:-1].split(","))))


def make_instance(*facts: str | Atom) -> Interpretation:
    """Build an instance from ``"R(a,b)"`` strings or :class:`Atom` objects.

    String arguments are parsed (:func:`parse_fact`) with every term
    treated as a constant.
    """
    inst = Interpretation()
    for fact in facts:
        if not isinstance(fact, Atom):
            pred, args = parse_fact(fact)
            fact = Atom(pred, tuple(Const(a) for a in args))
        inst.add(fact)
    return inst
