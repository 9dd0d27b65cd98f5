"""Random knowledge-base generators shared by the differential tests."""

from fractions import Fraction
import itertools
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
    inv,
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


def random_transitive_kb(rng: random.Random) -> FuzzyKB:
    """A path of role assertions >= n > 0 through the individuals over a
    transitive r, then 1-2 role assertions with any bounds, negative ones
    included, over r or, in 25% of KBs, over q with r (= q; each read
    through the inverse role 30% of the time; and 0-2 f-ALC concept
    assertions over the same roles.  Without the inclusion the KB is SI.  A
    negative bound over r or q holds only if no chain of edges reaches past
    it, which the tableau sees only through prepare's rewrite of such an
    assertion."""
    inds = INDIVIDUALS[: rng.randint(2, 3)]
    rbox = RBox(transitive={"r"})
    roles = ("r",)
    if rng.random() < 0.25:
        rbox.inclusions.add((Role("r"), Role("q")))
        roles = ("r", "q")

    def assertion(a: str, b: str, role: Role, bound: SignedBound) -> RoleAssertion:
        if rng.random() < 0.3:
            return RoleAssertion(b, a, inv(role), bound)
        return RoleAssertion(a, b, role, bound)

    path = rng.sample(inds, len(inds))
    ras = [
        assertion(a, b, Role("r"), SignedBound(Ineq.GE, rng.choice(GRID[1:])))
        for a, b in zip(path, path[1:])
    ]
    ras += [
        assertion(rng.choice(inds), rng.choice(inds), Role(rng.choice(roles)), random_bound(rng))
        for _ in range(rng.randint(1, 2))
    ]
    cas = [
        ConceptAssertion(rng.choice(inds), random_alc_concept(rng, 2, roles), random_bound(rng))
        for _ in range(rng.randint(0, 2))
    ]
    return FuzzyKB(rbox=rbox, abox=ABox(cas, ras))


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


def colouring_kb(n: int, cap: int, pairs) -> FuzzyKB:
    """n named r-successors b0..b{n-1} of a, each >= 0.9, distinct in the
    given (i, j) pairs, under (<= cap r) >= 0.5: since 0.9 > 0.5, no
    cap + 1 of the successors may stay pairwise distinct, so the KB is
    consistent iff merging can colour the distinct graph with cap colours."""
    succ = [f"b{i}" for i in range(n)]
    high = SignedBound(Ineq.GE, Fraction(9, 10))
    ras = [RoleAssertion("a", b, Role("r"), high) for b in succ]
    cas = [ConceptAssertion("a", AtMost(cap, Role("r")), SignedBound(Ineq.GE, Fraction(1, 2)))]
    return FuzzyKB(abox=ABox(cas, ras, {frozenset((succ[i], succ[j])) for i, j in pairs}))


def dense_colouring_kb(n: int, cap: int, seed: int = 1, p: float = 0.8) -> FuzzyKB:
    """colouring_kb with each pair, in combinations order, distinct with
    probability p."""
    rng = random.Random(seed)
    pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    return colouring_kb(n, cap, pairs)


def colourable(n: int, pairs, colours: int) -> bool:
    """Whether the graph on range(n) with these edges has a proper colouring
    with `colours` colours: backtracking vertex by vertex, where a vertex
    may open at most one new colour."""
    adjacent = [set() for _ in range(n)]
    for i, j in pairs:
        adjacent[i].add(j)
        adjacent[j].add(i)
    colour: list[int] = []

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        taken = {colour[u] for u in adjacent[v] if u < v}
        for c in range(min(used + 1, colours)):
            if c not in taken:
                colour.append(c)
                if place(v + 1, max(used, c + 1)):
                    return True
                colour.pop()
        return False

    return place(0, 0)


def random_colouring_kb(rng: random.Random) -> tuple[FuzzyKB, bool]:
    """A colouring_kb with 2-7 successors and random distinct pairs, and its
    planted verdict.  In half the KBs with 5 or more successors the pairs
    start with an odd cycle through the first 5, or 7, and few chords, so
    that colouring often takes more colours than any clique has members and
    only the merges can settle the verdict.  The cap is the fewest colours
    the graph needs, or one less (at least 1): consistent iff it is the
    fewest."""
    n = rng.randint(2, 7)
    pairs = set()
    density = rng.random()
    if n >= 5 and rng.random() < 0.5:
        m = 7 if n == 7 and rng.random() < 0.5 else 5
        pairs = {(min(i, (i + 1) % m), max(i, (i + 1) % m)) for i in range(m)}
        # few chords, which would mostly close triangles
        density /= 4
    pairs |= {pair for pair in itertools.combinations(range(n), 2) if rng.random() < density}
    pairs = sorted(pairs)
    fewest = next(k for k in range(1, n + 1) if colourable(n, pairs, k))
    cap = max(1, fewest - rng.randint(0, 1))
    return colouring_kb(n, cap, pairs), cap == fewest
