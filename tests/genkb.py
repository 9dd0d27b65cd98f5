"""Random knowledge-base generators shared by the differential tests."""

from fractions import Fraction
import random

from fshin.degrees import Ineq, SignedBound
from fshin.kb import ABox, ConceptAssertion, FuzzyKB, RBox, RoleAssertion, TBox
from fshin.syntax import (
    And,
    AtLeast,
    AtMost,
    BOTTOM,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Role,
    TOP,
)

GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
CONCEPT_NAMES = ["A", "B"]
DEFINED_NAMES = ["C", "D"]
INDIVIDUALS = ["a", "b", "c"]


def random_alc_concept(
    rng: random.Random, depth: int = 3, roles=("r",), names=CONCEPT_NAMES
) -> object:
    if depth == 0 or rng.random() < 0.35:
        pick = rng.randrange(4)
        if pick == 0:
            return Name(rng.choice(names))
        if pick == 1:
            return Not(Name(rng.choice(names)))
        return TOP if pick == 2 else BOTTOM
    ctor = rng.randrange(5)
    if ctor == 0:
        return Not(random_alc_concept(rng, depth - 1, roles, names))
    if ctor == 1:
        return And(random_alc_concept(rng, depth - 1, roles, names),
                   random_alc_concept(rng, depth - 1, roles, names))
    if ctor == 2:
        return Or(random_alc_concept(rng, depth - 1, roles, names),
                  random_alc_concept(rng, depth - 1, roles, names))
    role = Role(rng.choice(roles))
    body = random_alc_concept(rng, depth - 1, roles, names)
    return Exists(role, body) if ctor == 3 else Forall(role, body)


def random_bound(rng: random.Random) -> SignedBound:
    return SignedBound(rng.choice(list(Ineq)), rng.choice(GRID))


def random_alc_kb(rng: random.Random, names=CONCEPT_NAMES) -> FuzzyKB:
    """Plain f-ALC: no RBox, no TBox, at most 3 individuals, 1 role."""
    inds = INDIVIDUALS[: rng.randint(1, 3)]
    cas = [
        ConceptAssertion(
            rng.choice(inds), random_alc_concept(rng, names=names), random_bound(rng)
        )
        for _ in range(rng.randint(1, 3))
    ]
    ras = [
        RoleAssertion(rng.choice(inds), rng.choice(inds), Role("r"), random_bound(rng))
        for _ in range(rng.randint(0, 2))
    ]
    return FuzzyKB(abox=ABox(cas, ras))


def random_shin_concept(rng: random.Random, depth: int = 3, roles=("r", "s")):
    if depth > 0 and rng.random() < 0.25:
        role = Role(rng.choice(roles), inverted=rng.random() < 0.3)
        count = rng.randint(0, 2)
        # number restrictions stay on the simple role s
        if role.name == "s":
            return AtLeast(count, role) if rng.random() < 0.5 else AtMost(count, role)
    if depth > 0 and rng.random() < 0.3:
        role = Role(rng.choice(roles), inverted=rng.random() < 0.3)
        body = random_shin_concept(rng, depth - 1, roles)
        return Exists(role, body) if rng.random() < 0.5 else Forall(role, body)
    return random_alc_concept(rng, depth, roles)


def random_shin_kb(rng: random.Random) -> FuzzyKB:
    """f-SHIN features: Tr(r), optional s (= r, inverses, number
    restrictions on s, inequality assertions.  Negative role bounds are
    kept off the transitive role r."""
    inds = INDIVIDUALS[: rng.randint(1, 3)]
    cas = [
        ConceptAssertion(rng.choice(inds), random_shin_concept(rng), random_bound(rng))
        for _ in range(rng.randint(1, 3))
    ]
    ras = []
    for _ in range(rng.randint(0, 2)):
        role = Role(rng.choice(["r", "s"]))
        b = random_bound(rng)
        if role.name == "r" and b.ineq.negative:
            b = SignedBound(Ineq.GE, b.degree)
        ras.append(RoleAssertion(rng.choice(inds), rng.choice(inds), role, b))
    neqs = set()
    if len(inds) >= 2 and rng.random() < 0.3:
        neqs.add(frozenset(rng.sample(inds, 2)))
    rbox = RBox(transitive={"r"})
    if rng.random() < 0.4:
        # s (= r would make s non-simple; keep the hierarchy the other way
        rbox.inclusions.add((Role("r"), Role("q")))
    return FuzzyKB(rbox=rbox, abox=ABox(cas, ras, neqs))


def random_tbox_kb(rng: random.Random) -> FuzzyKB:
    """1-2 acyclic definitions (`sub` or `equiv`), each over genkb's names and
    the names defined before it; in 40% of KBs 1-2 inclusions; then an f-ALC
    ABox over every name.  Without inclusions the KB is SI."""
    names = list(CONCEPT_NAMES)
    tbox = TBox()
    for name in DEFINED_NAMES[: rng.randint(1, 2)]:
        kind = rng.choice(["sub", "equiv"])
        tbox.definitions[name] = (kind, random_alc_concept(rng, 2, names=names))
        names.append(name)
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            tbox.gcis.append(
                (random_alc_concept(rng, 1, names=names), random_alc_concept(rng, 2, names=names))
            )
    kb = random_alc_kb(rng, names)
    return FuzzyKB(tbox=tbox, abox=kb.abox)
