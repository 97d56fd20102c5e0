"""One backtracking join for every conjunctive match.

Every engine asks the same question: which assignments map a conjunction
of atoms into an interpretation?  The chase asks it to find rule triggers
and satisfied heads, CQ answering for the query's own atoms under an
answer binding, homomorphism search for a source instance whose elements
are renamed to variables, and Datalog for rule bodies.  :class:`Pattern`
compiles the conjunction once: per-atom constant and variable positions,
the ``!=`` literals, and the join order.  :meth:`Pattern.matches` then
backtracks over the interpretation's ``(pred, position, value)`` index
buckets (:meth:`~repro.logic.instance.Interpretation.candidate_tuples`),
never over a whole predicate.

The join order is greedy most-bound-first: each step takes the atom that
shares the most variables with those already bound (then the fewest new
variables, then authoring order).  It is fixed when the pattern is
compiled, counting the variables the caller binds on entry as bound; a
caller always binds the same variables, so no order is worked out per
call.

Semi-naive Datalog passes a *delta* and a *seed* atom: the seed atom reads
the delta and comes first in the order, atoms before it in authoring order
read old facts only (the full set minus the delta), and atoms after it
read the full set.  Across the seeds this enumerates every assignment that
touches a delta fact exactly once.

``join_counter`` counts the candidate tuples touched, the unit of join
work.  The Datalog tests reset it to prove that semi-naive rounds scale
with the delta, and ``datalog.round`` tracer spans record it per round.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .instance import Interpretation
from .syntax import Atom, Element, Term, Var


class JoinCounter:
    """Join-work accounting: ``candidates`` counts every tuple pulled from
    an index bucket and tested against the partial assignment.  The
    module-global :data:`join_counter` is updated by every join; tests
    reset it to measure the work of one evaluation."""

    __slots__ = ("candidates",)

    def __init__(self) -> None:
        self.candidates = 0

    def reset(self) -> None:
        self.candidates = 0


#: Global join-work counter (reset via ``join_counter.reset()``).
join_counter = JoinCounter()


def _check_neqs(neqs: tuple[tuple[Term, Term], ...],
                env: dict[Var, Element]) -> bool:
    for left, right in neqs:
        if isinstance(left, Var):
            try:
                left = env[left]
            except KeyError:
                raise ValueError(
                    f"unsafe rule: inequality variable {left!r} is not "
                    "bound by any relational body atom") from None
        if isinstance(right, Var):
            try:
                right = env[right]
            except KeyError:
                raise ValueError(
                    f"unsafe rule: inequality variable {right!r} is not "
                    "bound by any relational body atom") from None
        if left == right:
            return False
    return True


def _greedy_order(var_sets: Sequence[frozenset[Var]], bound: Iterable[Var],
                  first: int | None = None) -> tuple[int, ...]:
    """Most-bound-first join order over atoms with variables *var_sets*,
    starting from the variables in *bound* (and from atom *first*, the
    semi-naive seed, when given)."""
    remaining = list(range(len(var_sets)))
    order: list[int] = []
    bound = set(bound)
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound |= var_sets[first]
    while remaining:
        def gain(i: int) -> tuple:
            vs = var_sets[i]
            return (-len(vs & bound), len(vs - bound), i)
        nxt = min(remaining, key=gain)
        order.append(nxt)
        remaining.remove(nxt)
        bound |= var_sets[nxt]
    return tuple(order)


class Pattern:
    """A conjunction of atoms and ``!=`` literals, compiled for matching.

    *atoms* may hold variables, constants and nulls; *neqs* are
    ``(left, right)`` term pairs whose variables the atoms bind.  *bound*
    names the variables every caller binds on entry; it only steers the
    join order.
    """

    __slots__ = ("atoms", "_neqs", "_order", "_steps", "_var_sets",
                 "_seed_orders")

    def __init__(self, atoms: Sequence[Atom],
                 neqs: Sequence[tuple[Term, Term]] = (),
                 bound: Iterable[Var] = ()):
        self.atoms = tuple(atoms)
        self._neqs = tuple(neqs)
        # (pred, (position, constant) pairs, (position, variable) pairs)
        # per atom, repeated variables included.
        self._steps = tuple(
            (atom.pred,
             tuple((pos, t) for pos, t in enumerate(atom.args)
                   if not isinstance(t, Var)),
             tuple((pos, t) for pos, t in enumerate(atom.args)
                   if isinstance(t, Var)))
            for atom in self.atoms)
        self._var_sets = tuple(
            frozenset(t for t in atom.args if isinstance(t, Var))
            for atom in self.atoms)
        self._order = _greedy_order(self._var_sets, bound)
        self._seed_orders: dict[int, tuple[int, ...]] = {}

    def matches(
        self,
        interp: Interpretation,
        binding: Mapping[Var, Element] | None = None,
        delta: Interpretation | None = None,
        seed: int = -1,
    ) -> Iterator[dict[Var, Element]]:
        """Enumerate the extensions of *binding* that make every atom true
        in *interp* and every ``!=`` literal hold.

        Each yielded dictionary is a fresh copy holding *binding* too.
        With *delta*, atom *seed* reads *delta* instead and the atoms
        before it read old facts only (see the module docstring).
        """
        if delta is None:
            order = self._order
        else:
            order = self._seed_orders.get(seed)
            if order is None:
                order = self._seed_orders[seed] = _greedy_order(
                    self._var_sets, (), first=seed)
        steps, neqs = self._steps, self._neqs
        env: dict[Var, Element] = dict(binding) if binding else {}
        counter = join_counter
        n = len(order)

        def rec(k: int) -> Iterator[dict[Var, Element]]:
            if k == n:
                if not neqs or _check_neqs(neqs, env):
                    yield dict(env)
                return
            j = order[k]
            pred, consts, var_terms = steps[j]
            rel = delta if (delta is not None and j == seed) else interp
            old_only = delta is not None and j < seed
            bound = list(consts)
            for pos, v in var_terms:
                value = env.get(v)
                if value is not None:
                    bound.append((pos, value))
            for args in rel.candidate_tuples(pred, bound):
                counter.candidates += 1
                if old_only and delta.has_tuple(pred, args):
                    continue  # already enumerated with an earlier seed
                newly = []
                ok = True
                for pos, c in consts:
                    value = args[pos]
                    if value is not c and value != c:
                        ok = False
                        break
                if ok:
                    for pos, v in var_terms:
                        value = args[pos]
                        cur = env.get(v)
                        if cur is None:
                            env[v] = value
                            newly.append(v)
                        elif cur is not value and cur != value:
                            ok = False
                            break
                if ok:
                    yield from rec(k + 1)
                for v in newly:
                    del env[v]

        return rec(0)
