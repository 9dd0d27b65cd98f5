import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from fshin.degrees import Ineq, SignedBound
from fshin.kb import (
    ABox,
    ConceptAssertion,
    FuzzyKB,
    RBox,
    RoleAssertion,
    TBox,
    _definition_order,
    compute_ell,
    detect_mode,
    expand_concept,
    hierarchy_closure,
    normalize_for_gci,
    relative_degrees,
    unfold,
)
from fshin.syntax import And, AtLeast, Exists, Name, Not, Role, inv


def bound(op, d):
    return SignedBound(op, Fraction(d))


def test_unfold_expands_chains():
    tbox = TBox(definitions={
        "A": ("equiv", And(Name("B"), Name("P"))),
        "B": ("equiv", Exists(Role("r"), Name("Q"))),
    })
    u = unfold(tbox)
    assert u["A"] == And(Exists(Role("r"), Name("Q")), Name("P"))


def test_unfold_inclusion_gets_fresh_primitive():
    tbox = TBox(definitions={"A": ("sub", Name("B"))})
    body = unfold(tbox)["A"]
    assert isinstance(body, And)
    assert body.left == Name("A_prim")
    assert body.right == Name("B")
    # a body that names A_prim already pushes the fresh primitive past it
    tbox = TBox(definitions={"A": ("sub", Name("A_prim"))})
    assert unfold(tbox)["A"] == And(Name("A_prim_"), Name("A_prim"))


def test_cyclic_tbox_not_unfoldable():
    tbox = TBox(definitions={"A": ("equiv", Exists(Role("r"), Name("A")))})
    assert _definition_order(tbox) is None
    assert detect_mode(FuzzyKB(tbox=tbox)) == "gci"


def test_expand_concept_produces_nnf():
    tbox = unfold(TBox(definitions={"A": ("equiv", Not(Name("B")))}))
    out = expand_concept(Not(Name("A")), tbox)
    assert out == Name("B")


def test_hierarchy_closure_reflexive_transitive_inverse():
    r, s, t = Role("r"), Role("s"), Role("t")
    rbox = hierarchy_closure(RBox(inclusions={(r, s), (s, t)}))
    assert rbox.includes(r, t)
    assert rbox.includes(r, r)
    assert rbox.includes(inv(r), inv(t))
    assert not rbox.includes(t, r)


def test_simple_roles():
    r, s = Role("r"), Role("s")
    rbox = hierarchy_closure(RBox(transitive={"r"}, inclusions={(r, s)}))
    assert not rbox.simple(s)  # transitive sub-role r
    assert rbox.simple(Role("t"))
    assert rbox.transitive_subroles(inv(r)) == (inv(r),)  # survives inversion


def test_hierarchy_matches_reachability():
    """includes, transitive_subroles and simple agree with a search over the
    inclusions and their inverses, on every role, named or not."""
    rng = random.Random(11)
    names = "pqrs"
    named = [Role(n, i) for n in names for i in (False, True)]
    roles = named + [Role("t"), Role("t", True)]
    for _ in range(300):
        inclusions = {(rng.choice(named), rng.choice(named)) for _ in range(rng.randint(0, 6))}
        transitive = {n for n in names if rng.random() < 0.3}
        h = hierarchy_closure(RBox(transitive, inclusions))
        edges = inclusions | {(inv(a), inv(b)) for a, b in inclusions}

        def above(p):
            seen, todo = {p}, [p]
            while todo:
                x = todo.pop()
                for a, b in edges:
                    if a == x and b not in seen:
                        seen.add(b)
                        todo.append(b)
            return seen

        for r in roles:
            below = [p for p in roles if r in above(p)]
            trans = tuple(sorted((p for p in below if p.name in transitive), key=str))
            assert h.transitive_subroles(r) == trans
            assert h.simple(r) == (not trans)
            for p in roles:
                assert h.includes(p, r) == (p in below)


def test_detect_mode():
    assert detect_mode(FuzzyKB()) == "si"
    kb = FuzzyKB(rbox=RBox(inclusions={(Role("r"), Role("s"))}))
    assert detect_mode(kb) == "shin"
    kb = FuzzyKB(abox=ABox(concept_assertions=[
        ConceptAssertion("a", AtLeast(2, Role("r")), bound(Ineq.GE, "1/2"))
    ]))
    assert detect_mode(kb) == "shin"
    kb = FuzzyKB(tbox=TBox(gcis=[(Name("A"), Name("B"))]))
    assert detect_mode(kb) == "gci"
    # a cyclic definition, with no inclusion, does not unfold either
    kb = FuzzyKB(tbox=TBox(definitions={"A": ("sub", Exists(Role("r"), Name("A")))}))
    assert detect_mode(kb) == "gci"


def test_individual_order_first_appearance():
    abox = ABox(
        concept_assertions=[ConceptAssertion("b", Name("A"), bound(Ineq.GE, "1/2"))],
        role_assertions=[RoleAssertion("a", "b", Role("r"), bound(Ineq.GE, "1/2"))],
        inequalities={frozenset({"c", "a"})},
    )
    assert abox.individuals() == ["b", "a", "c"]


def test_compute_ell_halves_min_gap():
    # pool {0, 0.4, 0.5, 0.6, 1}: min gap 0.1
    assert compute_ell([Fraction(2, 5)]) == Fraction(1, 20)
    assert compute_ell([]) == Fraction(1, 4)


# degrees in [-1, 2], since normalize_for_gci shifts bounds by ell, and at
# most one whose denominator 2**201 is past 2**200
HUGE = 2**201
ladder_degrees = st.tuples(
    st.lists(st.fractions(-1, 2, max_denominator=10**6), max_size=8),
    st.lists(st.integers(-HUGE // 2, HUGE - 1).map(lambda n: Fraction(2 * n + 1, HUGE)), max_size=1),
).map(lambda drawn: drawn[0] + drawn[1] + drawn[0][:2])


@given(ladder_degrees)
def test_the_ladder_is_the_sorted_relative_degrees(degrees):
    """relative_degrees, from its integer keys, is {0, 1/2, 1} with every
    degree and its complement, sorted on Fractions, element for element;
    with unit, the part in [0, 1]; and compute_ell is half the least gap
    between adjacent rungs, taken on Fractions."""
    ladder = sorted({Fraction(0), Fraction(1, 2), Fraction(1), *degrees, *(1 - d for d in degrees)})
    got = relative_degrees(iter(degrees))
    assert all(type(d) is Fraction for d in got)
    assert got == tuple(ladder)
    assert relative_degrees(degrees, unit=True) == tuple(d for d in ladder if 0 <= d <= 1)
    assert compute_ell(iter(degrees)) == min(b - a for a, b in zip(ladder, ladder[1:])) / 2


def test_normalize_for_gci():
    ell = Fraction(1, 20)
    abox = ABox(
        concept_assertions=[ConceptAssertion("a", Name("C"), bound(Ineq.LT, "3/5"))],
        role_assertions=[RoleAssertion("a", "b", Role("r"), bound(Ineq.GT, "2/5"))],
    )
    out, xa = normalize_for_gci(abox, ell)
    assert out.concept_assertions[0].bound == bound(Ineq.LE, Fraction(11, 20))
    assert out.role_assertions[0].bound == bound(Ineq.GE, Fraction(9, 20))
    expected = {
        Fraction(0), Fraction(9, 20), Fraction(11, 20), Fraction(1, 2), Fraction(1)
    }
    assert expected <= set(xa)
    assert xa == tuple(sorted(set(xa)))
