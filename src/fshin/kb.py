"""Knowledge-base model: TBox unfolding, role hierarchy, ABox, GCI normalization."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Union

from .degrees import HALF, ONE, ZERO, Degree, Ineq, SignedBound
from .syntax import (
    AtLeast,
    AtMost,
    Concept,
    Name,
    And,
    Role,
    inv,
    nnf,
    rebuild,
    subconcepts,
)


@dataclass(frozen=True)
class ConceptAssertion:
    individual: str
    concept: Concept
    bound: SignedBound


@dataclass(frozen=True)
class RoleAssertion:
    subject: str
    object: str
    role: Role
    bound: SignedBound


# the subject of an entailment, glb or lub query: (a, C) or (a, b, r)
Query = Union[tuple[str, Concept], tuple[str, str, Role]]


@dataclass
class ABox:
    concept_assertions: list[ConceptAssertion] = field(default_factory=list)
    role_assertions: list[RoleAssertion] = field(default_factory=list)
    # each pair is a frozenset {a, b}; a singleton encodes the absurd a != a
    inequalities: set[frozenset[str]] = field(default_factory=set)

    def individuals(self) -> list[str]:
        seen: dict[str, None] = {}
        for ca in self.concept_assertions:
            seen.setdefault(ca.individual)
        for ra in self.role_assertions:
            seen.setdefault(ra.subject)
            seen.setdefault(ra.object)
        for pair in sorted(self.inequalities, key=sorted):
            for ind in sorted(pair):
                seen.setdefault(ind)
        return list(seen)

    def degrees(self) -> list[Degree]:
        """The asserted degrees, repeats kept: a Fraction hashes in Python."""
        return [a.bound.degree for a in (*self.concept_assertions, *self.role_assertions)]

    def add(self, query: Query, bound: SignedBound) -> None:
        """Append the assertion that query meets bound."""
        if len(query) == 2:
            self.concept_assertions.append(ConceptAssertion(*query, bound))
        else:
            self.role_assertions.append(RoleAssertion(*query, bound))


@dataclass
class TBox:
    # name -> (kind, body) with kind "sub" (inclusion) or "equiv"
    definitions: dict[str, tuple[str, Concept]] = field(default_factory=dict)
    gcis: list[tuple[Concept, Concept]] = field(default_factory=list)


def _definition_order(tbox: TBox) -> Optional[list[str]]:
    """The defined names, each after those its body uses, or None when tbox
    does not unfold: it has inclusions, or its definitions are cyclic."""
    defs = tbox.definitions
    order: list[str] = []
    state: dict[str, int] = {}  # 1 = visiting, 2 = done

    def visit(name: str) -> bool:
        if name in state:
            return state[name] == 2  # False on a cycle
        state[name] = 1
        _, body = defs[name]
        for sub in subconcepts(body):
            if isinstance(sub, Name) and sub.id in defs and not visit(sub.id):
                return False
        state[name] = 2
        order.append(name)
        return True

    return None if tbox.gcis or not all(visit(name) for name in sorted(defs)) else order


def _fresh_primitive(base: str, taken: set[str]) -> str:
    cand = base + "_prim"
    while cand in taken:
        cand += "_"
    return cand


def unfold(tbox: TBox) -> dict[str, Concept]:
    """The unfolding of a TBox that unfolds (detect_mode is not "gci"):
    each defined name maps to the definition-free concept it is equivalent
    to.  An inclusion A (= C becomes the equivalence A = A' n C with a
    fresh primitive A'."""
    taken = set(tbox.definitions)
    for _, body in tbox.definitions.values():
        for sub in subconcepts(body):
            if isinstance(sub, Name):
                taken.add(sub.id)
    expanded: dict[str, Concept] = {}
    for name in _definition_order(tbox):
        kind, body = tbox.definitions[name]
        if kind == "sub":
            prim = _fresh_primitive(name, taken)
            taken.add(prim)
            body = And(Name(prim), body)
        expanded[name] = _substitute(body, expanded)
    return expanded


def _substitute(c: Concept, defs: dict[str, Concept]) -> Concept:
    if isinstance(c, Name):
        return defs.get(c.id, c)
    return rebuild(c, lambda d: _substitute(d, defs))


def expand_concept(c: Concept, unfolded: dict[str, Concept]) -> Concept:
    """Replace defined names in c by their unfoldings and normalize to NNF."""
    return nnf(_substitute(c, unfolded))


@dataclass
class RBox:
    """The role axioms as parsed: transitive role names and inclusions."""

    transitive: set[str] = field(default_factory=set)
    inclusions: set[tuple[Role, Role]] = field(default_factory=set)


@dataclass(frozen=True)
class RoleHierarchy:
    """An RBox's role hierarchy, closed reflexively, transitively and under
    inverses (R (= S gives Inv(R) (= Inv(S))); a role no axiom names is
    below and above itself alone, and is not transitive."""

    transitive: frozenset[str]
    # each named role and its inverse -> its super-roles, itself included
    supers: dict[Role, frozenset[Role]]
    # each named role and its inverse -> the transitive roles at or below
    # it, ordered by str (transitivity of a relation and of its inverse
    # coincide)
    transitive_below: dict[Role, tuple[Role, ...]]

    def includes(self, p: Role, r: Role) -> bool:
        """p is a sub-role of r."""
        return p == r or r in self.supers.get(p, ())

    def transitive_subroles(self, r: Role) -> tuple[Role, ...]:
        """The transitive roles at or below r, ordered by str."""
        return self.transitive_below.get(r, ())

    def simple(self, r: Role) -> bool:
        """No transitive role at or below r."""
        return not self.transitive_subroles(r)


def hierarchy_closure(rbox: RBox) -> RoleHierarchy:
    """The role hierarchy of rbox, closed in this one call."""
    roles: set[Role] = set()
    for sub, sup in rbox.inclusions:
        roles.update((sub, sup, inv(sub), inv(sup)))
    for name in rbox.transitive:
        roles.update((Role(name), inv(Role(name))))
    supers: dict[Role, set[Role]] = {r: {r} for r in roles}
    for a, b in rbox.inclusions:
        supers[a].add(b)
        supers[inv(a)].add(inv(b))
    changed = True
    while changed:
        changed = False
        for r in roles:
            extra = set().union(*(supers[s] for s in supers[r]))
            if not extra <= supers[r]:
                supers[r] |= extra
                changed = True
    trans = [p for p in roles if p.name in rbox.transitive]
    below = {r: tuple(sorted((p for p in trans if r in supers[p]), key=str)) for r in roles}
    return RoleHierarchy(
        frozenset(rbox.transitive), {r: frozenset(s) for r, s in supers.items()}, below
    )


@dataclass
class FuzzyKB:
    tbox: TBox = field(default_factory=TBox)
    rbox: RBox = field(default_factory=RBox)
    abox: ABox = field(default_factory=ABox)

    def with_assertion(self, query: Query, bound: SignedBound) -> "FuzzyKB":
        """A copy of the KB whose ABox also asserts that query meets bound."""
        abox = ABox(
            list(self.abox.concept_assertions),
            list(self.abox.role_assertions),
            set(self.abox.inequalities),
        )
        abox.add(query, bound)
        return FuzzyKB(self.tbox, self.rbox, abox)

    def concepts(self) -> Iterator[Concept]:
        for ca in self.abox.concept_assertions:
            yield ca.concept
        for _, (_, body) in sorted(self.tbox.definitions.items()):
            yield body
        for lhs, rhs in self.tbox.gcis:
            yield lhs
            yield rhs

    def number_restrictions(self) -> Iterator[Union[AtLeast, AtMost]]:
        """The AtLeast and AtMost sub-concepts of the KB, in concepts() order."""
        for c in self.concepts():
            for d in subconcepts(c):
                if isinstance(d, (AtLeast, AtMost)):
                    yield d


def detect_mode(kb: FuzzyKB) -> str:
    """The fragment whose procedure decides kb: "gci" when its TBox does not
    unfold (it has inclusions or cyclic definitions), else "shin" when it has
    role inclusions, inequalities or number restrictions, else "si"."""
    if _definition_order(kb.tbox) is None:
        return "gci"
    shin = kb.rbox.inclusions or kb.abox.inequalities or any(kb.number_restrictions())
    return "shin" if shin else "si"


def _rungs(degrees: Iterable[Degree]) -> tuple[int, dict[int, Optional[Degree]]]:
    """(L, rungs): L is the least common multiple of 2 and the degrees'
    denominators, and rungs maps k to the degree k/L for each relative
    degree, {0, 1/2, 1} with every degree and its complement; a complement
    not among the degrees maps to None.  An integer key compares and hashes
    in C, where a Fraction's operators are Python calls."""
    ratios = [(d, *d.as_integer_ratio()) for d in degrees]
    scale = lcm(2, *[q for _, _, q in ratios])
    rungs: dict[int, Optional[Degree]] = {0: ZERO, scale // 2: HALF, scale: ONE}
    for d, n, q in ratios:
        rungs.setdefault(n * (scale // q), d)
    for k in list(rungs):
        rungs.setdefault(scale - k, None)
    return scale, rungs


def relative_degrees(degrees: Iterable[Degree], unit: bool = False) -> tuple[Degree, ...]:
    """The ladder: {0, 1/2, 1} with every degree and its complement, each
    once, ascending; with unit, only those in [0, 1]."""
    scale, rungs = _rungs(degrees)
    keys = sorted([k for k in rungs if 0 <= k <= scale] if unit else rungs)
    return tuple([Fraction(k, scale) if rungs[k] is None else rungs[k] for k in keys])


def compute_ell(degrees: Iterable[Degree]) -> Degree:
    """Half the least gap between adjacent rungs of the ladder
    (relative_degrees); small enough to preserve all strict/non-strict
    distinctions when strict bounds are shifted by it."""
    scale, rungs = _rungs(degrees)
    keys = sorted(rungs)
    return Fraction(min(b - a for a, b in zip(keys, keys[1:])), 2 * scale)


def normalize_for_gci(abox: ABox, ell: Degree) -> tuple[ABox, tuple[Degree, ...]]:
    """Strict bounds become non-strict shifted by ell; also returns the
    ladder of the normalized ABox (relative_degrees)."""

    def norm(b: SignedBound) -> SignedBound:
        if b.ineq is Ineq.GT:
            return SignedBound(Ineq.GE, b.degree + ell)
        if b.ineq is Ineq.LT:
            return SignedBound(Ineq.LE, b.degree - ell)
        return b

    out = ABox(
        [replace(ca, bound=norm(ca.bound)) for ca in abox.concept_assertions],
        [replace(ra, bound=norm(ra.bound)) for ra in abox.role_assertions],
        set(abox.inequalities),
    )
    return out, relative_degrees(out.degrees())
