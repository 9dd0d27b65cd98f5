import random
from fractions import Fraction

import pytest
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
    _closed,
    compute_ell,
    detect_mode,
    expand_concept,
    hierarchy_closure,
    normalize_for_gci,
    relative_degrees,
    unfold,
)
from fshin.syntax import And, AtLeast, Exists, Name, Not, Role, inv, rebuild, subconcepts

from genkb import random_tbox_kb


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
    assert unfold(tbox) is None
    assert detect_mode(FuzzyKB(tbox=tbox)) == "gci"


def two_step_unfold(tbox):
    """The unfolding in two steps, as kb.unfold once made it: the defined
    names in the post-order of a depth-first walk over sorted(definitions),
    or None; then, in that order, each inclusion's fresh primitive, named
    after every name the TBox uses, and the substitution."""
    defs, order, state = tbox.definitions, [], {}

    def visit(name):
        if name in state:
            return state[name] == 2
        state[name] = 1
        for sub in subconcepts(defs[name][1]):
            if isinstance(sub, Name) and sub.id in defs and not visit(sub.id):
                return False
        state[name] = 2
        order.append(name)
        return True

    if tbox.gcis or not all(visit(name) for name in sorted(defs)):
        return None

    def substitute(c, expanded):
        if isinstance(c, Name):
            return expanded.get(c.id, c)
        return rebuild(c, lambda d: substitute(d, expanded))

    taken = set(defs) | {
        sub.id for _, body in defs.values() for sub in subconcepts(body) if isinstance(sub, Name)
    }
    expanded = {}
    for name in order:
        kind, body = defs[name]
        if kind == "sub":
            prim = name + "_prim"
            while prim in taken:
                prim += "_"
            taken.add(prim)
            body = And(Name(prim), body)
        expanded[name] = substitute(body, expanded)
    return expanded


def unfold_variants(tbox):
    """tbox; its definitions alone; the first one also naming the last (a
    cycle, or a self-reference with one definition); and each body also
    naming the fresh primitive of another definition, which the walk may
    not have reached when it names that primitive."""
    defs = tbox.definitions
    first, last = sorted(defs)[0], sorted(defs)[-1]
    kind, body = defs[first]
    back = {**defs, first: (kind, And(body, Exists(Role("r"), Name(last))))}
    names = sorted(defs)
    clashing = {
        name: (kind, And(body, Name(names[(i + 1) % len(names)] + "_prim")))
        for i, (name, (kind, body)) in enumerate(sorted(defs.items()))
    }
    return [tbox, TBox(dict(defs)), TBox(back), TBox(clashing), TBox(back, list(tbox.gcis))]


def test_unfold_equals_the_two_step_unfolding():
    """unfold's one walk gives the maps of the two-step algorithm, entry for
    entry and in the same order, or None where it gives None."""
    rng = random.Random(36)
    seen = {"none": 0, "map": 0, "cycle": 0, "prim_": 0}
    for _ in range(200):
        for tbox in unfold_variants(random_tbox_kb(rng).tbox):
            got, want = unfold(tbox), two_step_unfold(tbox)
            if want is None:
                assert got is None
                seen["none"] += 1
                seen["cycle"] += not tbox.gcis
                continue
            assert got is not None and list(got.items()) == list(want.items())
            seen["map"] += 1
            seen["prim_"] += any("_prim_" in str(c) for c in got.values())
    assert all(seen.values()), seen


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


def test_cached_hierarchy_equals_a_fresh_closure():
    """hierarchy_closure gives every RBox of one value the same shared
    hierarchy, equal to one closed afresh, on random RBoxes with inverses,
    chains, cycles and transitive sub-roles; the cache stays bounded."""
    rng = random.Random(29)
    names = "pqrs"
    named = [Role(n, i) for n in names for i in (False, True)]
    for _ in range(300):
        inclusions = {(rng.choice(named), rng.choice(named)) for _ in range(rng.randint(0, 5))}
        chain = rng.sample(named, rng.randint(0, 4))
        inclusions |= set(zip(chain, chain[1:] + chain[:1] * (rng.random() < 0.5)))
        transitive = {n for n in names if rng.random() < 0.3}
        h = hierarchy_closure(RBox(transitive, inclusions))
        assert hierarchy_closure(RBox(set(transitive), set(inclusions))) is h
        fresh = _closed.__wrapped__(frozenset(inclusions), frozenset(map(Role, transitive)))
        assert fresh is not h and fresh == h
    assert 0 < _closed.cache_info().currsize <= _closed.cache_info().maxsize == 64
    with pytest.raises(TypeError):  # shared, so read only
        h.supers[Role("p")] = frozenset()


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
    # a non-strict bound keeps its assertion, the object itself
    ca = ConceptAssertion("b", Name("C"), bound(Ineq.GE, "1/2"))
    ra = RoleAssertion("a", "b", Role("r"), bound(Ineq.LE, "1/4"))
    kept, _ = normalize_for_gci(ABox([ca], [ra]), ell)
    assert kept.concept_assertions[0] is ca and kept.role_assertions[0] is ra
    expected = {
        Fraction(0), Fraction(9, 20), Fraction(11, 20), Fraction(1, 2), Fraction(1)
    }
    assert expected <= set(xa)
    assert xa == tuple(sorted(set(xa)))
