"""Brute-force semantic evaluator and finite-model enumerator.

Independent of the tableau engine: interprets concepts directly from the
semantics over a finite domain, checks knowledge bases exactly, and searches
for models by exhaustive enumeration over a degree grid.  A found model
proves consistency; exhaustion refutes it only on fragments where a model
within the searched grid and domain bound is guaranteed to exist.

The evaluator works on intervals, so that the search can prune partial
assignments with the same code that checks a finished one: an
interpretation may leave names and role pairs open within an interval,
and on a complete interpretation every interval is a point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .degrees import Degree, ONE, SignedBound, ZERO
from .kb import FuzzyKB, relative_degrees
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Bottom,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Role,
    Top,
    subconcepts,
)

Interval = tuple[Degree, Degree]


class UnknownName(Exception):
    pass


class BudgetExceeded(Exception):
    pass


@dataclass
class FuzzyInterpretation:
    """A finite fuzzy interpretation.  With `unknown` None it is complete: a
    missing name or role pair reads 0.  With `unknown` set it is partial:
    every missing name or role pair may take any degree in that interval."""

    domain: tuple[int, ...]
    concept_map: dict[tuple[str, int], Degree]
    role_map: dict[tuple[str, int, int], Degree]
    individual_map: dict[str, int]
    unknown: Optional[Interval] = None

    def concept_degree(self, name: str, e: int) -> Optional[Degree]:
        """The degree of `name` at e, or None if it is open."""
        return self.concept_map.get((name, e), ZERO if self.unknown is None else None)

    def role_degree(self, r: Role, a: int, b: int) -> Optional[Degree]:
        """The degree of r from a to b, or None if it is open."""
        if r.inverted:
            a, b = b, a
        return self.role_map.get((r.name, a, b), ZERO if self.unknown is None else None)

    def interval(self, v: Optional[Degree]) -> Interval:
        """The interval of a degree read with the two methods above."""
        return (v, v) if v is not None else self.unknown


def concept_interval(i: FuzzyInterpretation, c: Concept, e: int) -> Interval:
    """The least and greatest degree of c at e over every way of closing the
    open names and role pairs of i."""
    domain = i.domain

    def go(c: Concept, e: int) -> Interval:
        if isinstance(c, Top):
            return (ONE, ONE)
        if isinstance(c, Bottom):
            return (ZERO, ZERO)
        if isinstance(c, Name):
            return i.interval(i.concept_degree(c.id, e))
        if isinstance(c, Not):
            lo, hi = go(c.arg, e)
            return (ONE - hi, ONE - lo)
        if isinstance(c, And):
            l1, h1 = go(c.left, e)
            l2, h2 = go(c.right, e)
            return (min(l1, l2), min(h1, h2))
        if isinstance(c, Or):
            l1, h1 = go(c.left, e)
            l2, h2 = go(c.right, e)
            return (max(l1, l2), max(h1, h2))
        if isinstance(c, Exists):
            los, his = [], []
            for d in domain:
                rl, rh = i.interval(i.role_degree(c.role, e, d))
                bl, bh = go(c.body, d)
                los.append(min(rl, bl))
                his.append(min(rh, bh))
            return (max(los), max(his))
        if isinstance(c, Forall):
            # Kleene-Dienes: inf over d of max(1 - r(e, d), body(d)), which is
            # 1 minus the sup over d of min(r(e, d), 1 - body(d))
            return go(Not(Exists(c.role, Not(c.body))), e)
        if isinstance(c, AtLeast):
            # sup over p pairwise-distinct fillers of the minimum role degree:
            # the p-th largest outgoing degree
            if c.count == 0:
                return (ONE, ONE)
            pairs = [i.interval(i.role_degree(c.role, e, d)) for d in domain]
            if len(pairs) < c.count:
                return (ZERO, ZERO)
            los = sorted((p[0] for p in pairs), reverse=True)
            his = sorted((p[1] for p in pairs), reverse=True)
            return (los[c.count - 1], his[c.count - 1])
        if isinstance(c, AtMost):
            # inf over p+1 pairwise-distinct fillers of the maximum complement:
            # 1 minus the degree of (>= p+1 R)
            return go(Not(AtLeast(c.count + 1, c.role)), e)
        raise TypeError(f"not a concept: {c!r}")

    return go(c, e)


def eval_concept(i: FuzzyInterpretation, c: Concept, e: int) -> Degree:
    """The degree of c at e; i must determine it (a complete i always does)."""
    lo, hi = concept_interval(i, c, e)
    if lo != hi:
        raise UnknownName(f"degree of {c} at {e} is open: [{lo}, {hi}]")
    return lo


def _may_hold(ival: Interval, bound: SignedBound) -> bool:
    """Whether some degree in the interval satisfies the bound."""
    lo, hi = ival
    return bound.ineq.holds(hi if bound.ineq.positive else lo, bound.degree)


def _pairs(i: FuzzyInterpretation, r: Role) -> Iterable[tuple[int, int]]:
    """The pairs (a, b) where r(a, b) may be nonzero: on a complete i those
    the role map holds a nonzero degree for, else every pair."""
    if i.unknown is not None:
        return itertools.product(i.domain, repeat=2)
    nonzero = ((a, b) for (name, a, b), v in i.role_map.items() if name == r.name and v)
    return [(b, a) for a, b in nonzero] if r.inverted else list(nonzero)


def _chains(i: FuzzyInterpretation, r: Role) -> Iterable[tuple[int, int, int]]:
    """The triples (a, b, c) where r(a, b) and r(b, c) may both be nonzero."""
    if i.unknown is not None:
        return itertools.product(i.domain, repeat=3)
    succ: dict[int, list[int]] = {}
    for a, b in _pairs(i, r):
        succ.setdefault(a, []).append(b)
    return ((a, b, c) for a, bs in succ.items() for b in bs for c in succ.get(b, ()))


def satisfies_kb(i: FuzzyInterpretation, kb: FuzzyKB) -> bool:
    """Whether i can still satisfy kb: on a complete interpretation, whether
    it does.  On a partial one the answer is True whenever some closing of
    the open degrees satisfies kb, and may be True otherwise: transitivity
    is checked only where all three degrees are known, a role inclusion
    only where both are, and a definition only where the defined name is.
    A pair missing from a complete role map reads 0, so it breaks neither
    transitivity nor a role inclusion: there both range over the nonzero
    pairs alone."""
    imap = i.individual_map
    for ca in kb.abox.concept_assertions:
        if not _may_hold(concept_interval(i, ca.concept, imap[ca.individual]), ca.bound):
            return False
    for ra in kb.abox.role_assertions:
        v = i.role_degree(ra.role, imap[ra.subject], imap[ra.object])
        if not _may_hold(i.interval(v), ra.bound):
            return False
    for pair in kb.abox.inequalities:
        if len({imap[x] for x in pair}) < 2:
            return False
    for name in kb.rbox.transitive:
        r = Role(name)
        for a, b, c in _chains(i, r):
            ac, ab, bc = i.role_degree(r, a, c), i.role_degree(r, a, b), i.role_degree(r, b, c)
            if ac is not None and ab is not None and bc is not None and ac < min(ab, bc):
                return False
    for sub, sup in kb.rbox.inclusions:
        for a, b in _pairs(i, sub):
            vs, vp = i.role_degree(sub, a, b), i.role_degree(sup, a, b)
            if vs is not None and vp is not None and vs > vp:
                return False
    for name, (kind, body) in kb.tbox.definitions.items():
        for e in i.domain:
            v = i.concept_degree(name, e)
            if v is None:
                continue
            lo, hi = concept_interval(i, body, e)
            if v > hi or (kind == "equiv" and v < lo):
                return False
    for lhs, rhs in kb.tbox.gcis:
        for e in i.domain:
            if concept_interval(i, lhs, e)[0] > concept_interval(i, rhs, e)[1]:
                return False
    return True


def kb_concept_names(kb: FuzzyKB) -> list[str]:
    names = set(kb.tbox.definitions)
    for c in kb.concepts():
        for d in subconcepts(c):
            if isinstance(d, Name):
                names.add(d.id)
    return sorted(names)


def kb_role_names(kb: FuzzyKB) -> list[str]:
    names = set(kb.rbox.transitive)
    for sub, sup in kb.rbox.inclusions:
        names.update((sub.name, sup.name))
    for ra in kb.abox.role_assertions:
        names.add(ra.role.name)
    for c in kb.concepts():
        for d in subconcepts(c):
            if isinstance(d, (Exists, Forall, AtLeast, AtMost)):
                names.add(d.role.name)
    return sorted(names)


def default_grid(kb: FuzzyKB) -> tuple[Degree, ...]:
    """The relative degrees of the KB (its degrees, their complements and
    {0, 1/2, 1}) that lie in [0, 1], the range of every degree, plus the
    midpoint of every gap between adjacent base points.  The base set is
    closed under x -> 1-x, and midpoints preserve that symmetry, so any
    model can be retracted onto the grid without changing the truth of any
    assertion: the retraction is order-preserving, fixes the base points,
    and commutes with min, max, and the complement."""
    ladder = relative_degrees(kb.abox.degrees(), unit=True)
    mids = [(a + b) / 2 for a, b in zip(ladder, ladder[1:])]
    return tuple(x for pair in zip(ladder, mids) for x in pair) + ladder[-1:]


def search_model(
    kb: FuzzyKB, max_domain: int = 3, budget: int = 2_000_000
) -> Optional[FuzzyInterpretation]:
    """Exhaustive model search over domains of size 1..max_domain with all
    degrees drawn from default_grid.  Deterministic: domain size ascending,
    individual maps and degree assignments in lexicographic order."""
    grid = default_grid(kb)
    cnames = kb_concept_names(kb)
    rnames = kb_role_names(kb)
    individuals = kb.abox.individuals()
    counter = [0]

    for size in range(1, max_domain + 1):
        domain = tuple(range(size))
        for ind_map in itertools.product(domain, repeat=len(individuals)):
            imap = dict(zip(individuals, ind_map))
            if any(
                len({imap[x] for x in pair}) < 2 for pair in kb.abox.inequalities
            ):
                continue
            part = FuzzyInterpretation(domain, {}, {}, imap, (grid[0], grid[-1]))
            # a variable is a map, a key still missing from it, and the
            # values left for that key
            variables = [
                (part.role_map, (name, a, b), grid)
                for name in rnames
                for a, b in itertools.product(domain, repeat=2)
            ]
            variables += [(part.concept_map, (name, e), grid) for name in cnames for e in domain]
            found = _dfs(kb, part, variables, counter, budget)
            if found is not None:
                return found
    return None


def _dfs(
    kb: FuzzyKB,
    part: FuzzyInterpretation,
    variables: list[tuple[dict, tuple, tuple]],
    counter: list[int],
    budget: int,
) -> Optional[FuzzyInterpretation]:
    counter[0] += 1
    if counter[0] > budget:
        raise BudgetExceeded(f"model search budget of {budget} exceeded")
    if not satisfies_kb(part, kb):
        return None
    if not variables:
        i = FuzzyInterpretation(
            part.domain, dict(part.concept_map), dict(part.role_map), dict(part.individual_map)
        )
        return i if satisfies_kb(i, kb) else None
    # forward checking with minimum-remaining-values: narrow every variable's
    # candidate set against the current partial assignment, fail on a wipeout,
    # then branch on the tightest variable
    narrowed = []
    best = None
    for target, key, values in variables:
        kept = []
        for v in values:
            counter[0] += 1
            target[key] = v
            if satisfies_kb(part, kb):
                kept.append(v)
            del target[key]
        if not kept:
            return None
        narrowed.append((target, key, tuple(kept)))
        if best is None or len(kept) < len(best[2]):
            best = narrowed[-1]
    rest = [var for var in narrowed if var is not best]
    target, key, values = best
    for v in values:
        target[key] = v
        found = _dfs(kb, part, rest, counter, budget)
        if found is not None:
            return found
        del target[key]
    return None
