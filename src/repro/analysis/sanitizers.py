"""Debug-mode runtime invariant checkers ("sanitizers") for the engines.

Sanitizers are the dynamic counterpart of the linter: instead of checking
inputs they re-verify, independently and from first principles, the
invariants the chase and the CDCL solver rely on while they run.  They are
off by default (the checks add measurable overhead) and enabled either via
the environment variable ``REPRO_SANITIZE=1`` or an explicit engine flag
(``chase(..., sanitize=True)``, ``Solver(..., sanitize=True)``).  The test
suite switches them on globally.

A violated invariant raises :class:`SanitizerError` — loudly, at the point
of corruption, rather than surfacing later as a wrong certain-answer
verdict.

Chase invariants
    * **restricted firing**: a rule only fires on a body match none of
      whose head disjuncts is already satisfied;
    * **null-depth monotonicity**: input elements sit at depth 0 (labelled
      nulls included — unravellings put nulls in the instance),
      chase-created nulls at depths ``1..max_depth``, and every null in
      the branch has a recorded depth;
    * **EGD consistency**: after the functionality fixpoint, no functional
      relation maps a key to two distinct values on a consistent branch;
    * **quiescence**: when the chase finds no trigger to fire, a re-scan of
      every rule finds none it missed: each trigger still active creates
      nulls, sits on a branch marked incomplete and, unless a fault plan
      could have truncated it, is cut off by the depth bound.

CDCL invariants
    * **two-watched literals**: every clause of length >= 2 is watched by
      exactly its first two literals, and a watch false at level 0 has a
      partner true at level 0;
    * **trail/reason consistency**: the trail is duplicate-free, every
      trail literal is true, decision levels match the trail boundaries,
      and every reason clause is genuinely propagating;
    * **learned clauses**: a learnt clause is asserting at its computed
      backjump level (first literal unassigned, all others false).

This module deliberately avoids importing the engines: the checkers
re-derive satisfaction and propagation from the primitive operations, so a
bug in the engine cannot hide inside its own sanitizer.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..logic.syntax import Atom, Const, Element, Null, Var

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import cycle
    from ..logic.instance import Interpretation
    from ..logic.ontology import Ontology


class SanitizerError(AssertionError):
    """An engine invariant was violated at runtime."""


_TRUTHY = ("1", "true", "yes", "on")


def sanitize_enabled(flag: bool | None = None) -> bool:
    """Resolve an engine's sanitize setting: explicit flag wins, then env."""
    if flag is not None:
        return flag
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


# ---------------------------------------------------------------------------
# Chase sanitizer
# ---------------------------------------------------------------------------


def _match_atoms(
    atoms: Sequence[Atom],
    interp: "Interpretation",
    env: Mapping[Var, Element],
) -> Iterator[dict[Var, Element]]:
    """Independent backtracking join (mirrors, but does not reuse, the
    join kernel the chase matches with, :mod:`repro.logic.match`)."""
    bound = dict(env)

    def rec(idx: int) -> Iterator[dict[Var, Element]]:
        if idx == len(atoms):
            yield dict(bound)
            return
        for ext in interp.match_atom(atoms[idx], bound):
            bound.update(ext)
            yield from rec(idx + 1)
            for v in ext:
                del bound[v]

    yield from rec(0)


def _head_satisfied(head, interp: "Interpretation",
                    env: Mapping[Var, Element]) -> bool:
    if not head.exist_vars:
        return all(
            Atom(a.pred, tuple(env[t] if isinstance(t, Var) else t
                               for t in a.args)) in interp
            for a in head.atoms
        )
    witnesses: set[tuple[Element, ...]] = set()
    for ext in _match_atoms(head.atoms, interp, env):
        witnesses.add(tuple(ext[v] for v in head.exist_vars))
        if len(witnesses) >= head.count:
            return True
    return False


class ChaseSanitizer:
    """Invariant checks plugged into :func:`repro.semantics.chase.chase`."""

    def check_firing(self, rule, interp: "Interpretation",
                     env: Mapping[Var, Element]) -> None:
        """Restricted-chase firing condition: the engine is about to fire
        *rule* under *env*, so no head disjunct may already be satisfied."""
        for pos, head in enumerate(rule.heads):
            if _head_satisfied(head, interp, env):
                raise SanitizerError(
                    f"restricted-chase violation: firing {rule!r} although "
                    f"head disjunct {pos} ({head!r}) is already satisfied "
                    f"under {env!r}")

    def check_quiescent(self, branch, rules, max_depth: int,
                        faulted: bool = False) -> None:
        """The chase found no trigger of *rules* to fire on *branch*.  Every
        trigger an independent re-scan still finds active must create
        nulls on a branch marked incomplete, and (unless *faulted*: a
        fault plan may truncate any trigger) sit at the depth bound."""
        interp = branch.interp
        domain = sorted(interp.dom(), key=repr)
        for rule in rules:
            frontier = sorted(rule.frontier_vars())
            for match in _match_atoms(rule.body, interp, {}):
                for combo in itertools.product(domain, repeat=len(frontier)):
                    env = {**match, **dict(zip(frontier, combo))}
                    if any(_head_satisfied(head, interp, env)
                           for head in rule.heads):
                        continue
                    depth = max((branch.depth.get(e, 0)
                                 for e in env.values()), default=0)
                    if not any(head.exist_vars for head in rule.heads):
                        problem = "creates no nulls"
                    elif branch.complete:
                        problem = "sits on a branch marked complete"
                    elif not faulted and depth + 1 <= max_depth:
                        problem = (f"sits at depth {depth}, within the "
                                   f"bound {max_depth}")
                    else:
                        continue
                    raise SanitizerError(
                        f"missed trigger: {rule!r} is still active under "
                        f"{env!r} when the chase stopped, and it {problem}")

    def check_branch(self, branch, onto: "Ontology",
                     max_depth: int | None = None,
                     base_dom: frozenset = frozenset()) -> None:
        """Null-depth and (on consistent branches) EGD consistency."""
        self.check_null_depths(branch, max_depth, base_dom)
        if branch.consistent:
            self.check_egd_consistency(branch, onto)

    def check_null_depths(self, branch, max_depth: int | None = None,
                          base_dom: frozenset = frozenset()) -> None:
        """Input elements (``base_dom``) sit at depth 0 — including labelled
        nulls that arrived in the instance, e.g. from an unravelling; every
        chase-*created* null must have a recorded depth in 1..max_depth."""
        for elem in branch.interp.dom():
            if isinstance(elem, Const):
                depth = branch.depth.get(elem, 0)
                if depth != 0:
                    raise SanitizerError(
                        f"constant {elem!r} recorded at chase depth {depth}, "
                        "expected 0")
            elif isinstance(elem, Null):
                if elem not in branch.depth:
                    raise SanitizerError(
                        f"null {elem!r} present in the branch but has no "
                        "recorded creation depth")
                depth = branch.depth[elem]
                if elem in base_dom:
                    if depth != 0:
                        raise SanitizerError(
                            f"input null {elem!r} recorded at chase depth "
                            f"{depth}, expected 0")
                    continue
                if depth < 1:
                    raise SanitizerError(
                        f"null {elem!r} has non-positive creation depth "
                        f"{depth}")
                if max_depth is not None and depth > max_depth:
                    raise SanitizerError(
                        f"null {elem!r} created at depth {depth} beyond the "
                        f"chase bound {max_depth}")

    def check_egd_consistency(self, branch, onto: "Ontology") -> None:
        """After the functionality fixpoint a consistent branch must be a
        model of every functionality EGD."""
        for key_pos, rels in ((0, onto.functional),
                              (1, onto.inverse_functional)):
            for rel in rels:
                values: dict[Element, Element] = {}
                for args in branch.interp.tuples(rel):
                    if len(args) != 2:
                        raise SanitizerError(
                            f"functional relation {rel} holds non-binary "
                            f"tuple {args!r}")
                    key, value = args[key_pos], args[1 - key_pos]
                    if key in values and values[key] != value:
                        raise SanitizerError(
                            f"EGD violation: {rel} maps {key!r} to both "
                            f"{values[key]!r} and {value!r} after the "
                            "functionality fixpoint")
                    values[key] = value


# ---------------------------------------------------------------------------
# CDCL sanitizer
# ---------------------------------------------------------------------------


class CdclSanitizer:
    """Invariant checks plugged into :class:`repro.semantics.cdcl.Solver`."""

    @staticmethod
    def _value(solver, lit: int) -> int:
        v = solver.assign[abs(lit)]
        return v if lit > 0 else -v

    def check_watches(self, solver) -> None:
        """Every clause of length >= 2 is watched by exactly its first two
        literals, and watch lists contain no stray entries.  A watched
        literal made false at level 0 by an already propagated assignment
        has a partner true at level 0: the clause is never visited again,
        so otherwise it could not propagate."""
        settled = {abs(lit) for lit in solver.trail[:solver._qhead]
                   if solver.level[abs(lit)] == 0}
        where: dict[int, list[int]] = {}
        for lit, clause_ids in solver.watches.items():
            for cidx in clause_ids:
                where.setdefault(cidx, []).append(lit)
        for cidx, clause in enumerate(solver.clauses):
            if len(clause) < 2:
                raise SanitizerError(
                    f"clause {cidx} has length {len(clause)} but watched "
                    "clauses must have >= 2 literals")
            expected = sorted((-clause[0], -clause[1]))
            actual = sorted(where.get(cidx, []))
            if actual != expected:
                raise SanitizerError(
                    f"two-watched-literal violation for clause {cidx} "
                    f"{clause!r}: watched under {actual}, expected "
                    f"{expected}")
            for watch, partner in ((clause[0], clause[1]),
                                   (clause[1], clause[0])):
                if (abs(watch) in settled
                        and self._value(solver, watch) == -1
                        and not (self._value(solver, partner) == 1
                                 and solver.level[abs(partner)] == 0)):
                    raise SanitizerError(
                        f"clause {cidx} {clause!r} watches {watch}, false "
                        "at level 0, without a partner true at level 0")
        stray = set(where) - set(range(len(solver.clauses)))
        if stray:
            raise SanitizerError(
                f"watch lists reference unknown clause indices {sorted(stray)}")

    def check_trail(self, solver) -> None:
        """Trail literals are true, duplicate-free, level-consistent, and
        every recorded reason clause actually propagates its literal."""
        seen: set[int] = set()
        boundaries = list(solver.trail_lim)
        for pos, lit in enumerate(solver.trail):
            var = abs(lit)
            if var in seen:
                raise SanitizerError(
                    f"variable {var} assigned twice on the trail")
            seen.add(var)
            if self._value(solver, lit) != 1:
                raise SanitizerError(
                    f"trail literal {lit} does not evaluate to true")
            expected_level = sum(1 for b in boundaries if b <= pos)
            if solver.level[var] != expected_level:
                raise SanitizerError(
                    f"variable {var} recorded at level {solver.level[var]} "
                    f"but sits at trail level {expected_level}")
            reason = solver.reason[var]
            if reason is not None:
                if lit not in reason:
                    raise SanitizerError(
                        f"reason clause {reason!r} does not contain the "
                        f"implied literal {lit}")
                others = [q for q in reason if q != lit]
                falsified = [q for q in others if self._value(solver, q) == -1]
                if len(falsified) != len(others):
                    raise SanitizerError(
                        f"reason clause {reason!r} for literal {lit} is not "
                        "propagating: some other literal is not false")
        for var in range(1, solver.num_vars + 1):
            if solver.assign[var] != 0 and var not in seen:
                raise SanitizerError(
                    f"variable {var} is assigned but absent from the trail")

    def check_learned(self, solver, learnt: Sequence[int], back: int) -> None:
        """A learnt clause, after backjumping to *back*, must be asserting:
        first literal unassigned, all others false at levels <= back."""
        if len(set(abs(q) for q in learnt)) != len(learnt):
            raise SanitizerError(
                f"learnt clause {learnt!r} mentions a variable twice")
        if self._value(solver, learnt[0]) != 0:
            raise SanitizerError(
                f"learnt clause {learnt!r}: asserting literal {learnt[0]} "
                "is already assigned after backjumping")
        for q in learnt[1:]:
            if self._value(solver, q) != -1:
                raise SanitizerError(
                    f"learnt clause {learnt!r}: literal {q} is not false "
                    "after backjumping")
        expected = 0 if len(learnt) == 1 else max(
            solver.level[abs(q)] for q in learnt[1:])
        if back != expected:
            raise SanitizerError(
                f"learnt clause {learnt!r}: assertion level {back} != "
                f"max level {expected} of the non-asserting literals")

    def check_model(self, solver) -> None:
        """At a SAT answer every variable is assigned and every clause
        (original and learnt) is satisfied."""
        for var in range(1, solver.num_vars + 1):
            if solver.assign[var] == 0:
                raise SanitizerError(
                    f"SAT answer with unassigned variable {var}")
        for cidx, clause in enumerate(solver.clauses):
            if not any(self._value(solver, lit) == 1 for lit in clause):
                raise SanitizerError(
                    f"SAT answer falsifies clause {cidx}: {clause!r}")


def chase_sanitizer(flag: bool | None = None) -> ChaseSanitizer | None:
    """A :class:`ChaseSanitizer` when enabled, else ``None``."""
    return ChaseSanitizer() if sanitize_enabled(flag) else None


def cdcl_sanitizer(flag: bool | None = None) -> CdclSanitizer | None:
    """A :class:`CdclSanitizer` when enabled, else ``None``."""
    return CdclSanitizer() if sanitize_enabled(flag) else None
