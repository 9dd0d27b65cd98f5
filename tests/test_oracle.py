import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fshin.kb import ABox, FuzzyKB, TBox
from fshin.oracle import (
    BudgetExceeded,
    FuzzyInterpretation,
    concept_interval,
    default_grid,
    eval_concept,
    kb_concept_names,
    kb_role_names,
    satisfies_kb,
    search_model,
)
from fshin.parser import parse_kb
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
    subconcepts,
)

from genkb import GRID, random_alc_kb, random_shin_concept, random_shin_kb, random_tbox_kb
from test_tableau import OUT_OF_RANGE, single_assertion_kb

F = Fraction


def interp():
    return FuzzyInterpretation(
        domain=(0, 1),
        concept_map={("A", 0): F(3, 4), ("A", 1): F(1, 4), ("B", 0): F(1, 2), ("B", 1): F(1)},
        role_map={("r", 0, 1): F(4, 5)},
        individual_map={"a": 0, "b": 1},
    )


def test_eval_connectives():
    m = interp()
    a, b = Name("A"), Name("B")
    assert eval_concept(m, TOP, 0) == F(1)
    assert eval_concept(m, BOTTOM, 0) == F(0)
    assert eval_concept(m, Not(a), 0) == F(1, 4)
    assert eval_concept(m, And(a, b), 0) == F(1, 2)
    assert eval_concept(m, Or(a, b), 0) == F(3, 4)


def test_eval_quantifiers():
    m = interp()
    r = Role("r")
    # sup_y min(r(0,y), A(y)) = min(4/5, 1/4)
    assert eval_concept(m, Exists(r, Name("A")), 0) == F(1, 4)
    # inf_y max(1 - r(0,y), A(y)) = max(1/5, 1/4)
    assert eval_concept(m, Forall(r, Name("A")), 0) == F(1, 4)
    # no outgoing r from 1
    assert eval_concept(m, Exists(r, Name("A")), 1) == F(0)
    assert eval_concept(m, Forall(r, Name("A")), 1) == F(1)
    # inverse direction
    assert eval_concept(m, Exists(inv(r), TOP), 1) == F(4, 5)


def test_eval_number_restrictions():
    m = FuzzyInterpretation(
        domain=(0, 1, 2),
        concept_map={},
        role_map={("r", 0, 1): F(4, 5), ("r", 0, 2): F(3, 5)},
        individual_map={},
    )
    r = Role("r")
    assert eval_concept(m, AtLeast(0, r), 0) == F(1)
    assert eval_concept(m, AtLeast(1, r), 0) == F(4, 5)
    assert eval_concept(m, AtLeast(2, r), 0) == F(3, 5)
    assert eval_concept(m, AtLeast(3, r), 0) == F(0)
    assert eval_concept(m, AtMost(0, r), 0) == F(1, 5)
    assert eval_concept(m, AtMost(1, r), 0) == F(2, 5)
    assert eval_concept(m, AtMost(2, r), 0) == F(1)


def test_satisfies_kb_checks_everything():
    m = interp()
    kb = parse_kb("assert a : A >= 0.7.\nassert (a,b): r >= 0.8.")
    assert satisfies_kb(m, kb)
    kb = parse_kb("assert a : A > 0.75.")
    assert not satisfies_kb(m, kb)
    kb = parse_kb("distinct a b.")
    assert satisfies_kb(m, kb)
    m2 = FuzzyInterpretation((0,), {("A", 0): F(1)}, {}, {"a": 0, "b": 0})
    assert not satisfies_kb(m2, parse_kb("distinct a b."))


def test_satisfies_transitivity():
    m = FuzzyInterpretation(
        domain=(0, 1, 2),
        concept_map={},
        role_map={("r", 0, 1): F(4, 5), ("r", 1, 2): F(4, 5)},
        individual_map={},
    )
    kb = parse_kb("trans r.")
    # sup-min composition demands r(0,2) >= 4/5
    assert not satisfies_kb(m, kb)
    m.role_map[("r", 0, 2)] = F(4, 5)
    assert satisfies_kb(m, kb)


def dense_role_axioms(i, kb):
    """The transitivity and role inclusion tests of satisfies_kb on a
    complete interpretation, over every triple and pair of the domain."""
    for name in kb.rbox.transitive:
        r = Role(name)
        for a, b, c in itertools.product(i.domain, repeat=3):
            if i.role_degree(r, a, c) < min(i.role_degree(r, a, b), i.role_degree(r, b, c)):
                return False
    for sub, sup in kb.rbox.inclusions:
        for a, b in itertools.product(i.domain, repeat=2):
            if i.role_degree(sub, a, b) > i.role_degree(sup, a, b):
                return False
    return True


def test_sparse_role_axioms_match_dense_loops():
    """On a complete interpretation satisfies_kb tests the role axioms over
    the nonzero pairs alone; the verdict is that of the dense loops, with
    explicit zero entries and inverse sub-roles among the cases."""
    rng = random.Random(17)
    roles = [Role(n) for n in "pq"] + [inv(Role(n)) for n in "pq"]
    seen = set()
    for _ in range(600):
        domain = tuple(range(rng.randint(1, 4)))
        role_map = {
            (name, a, b): rng.choice([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
            for name in "pq"
            for a, b in itertools.product(domain, repeat=2)
            if rng.random() < 0.4
        }
        i = FuzzyInterpretation(domain, {}, role_map, {})
        kb = FuzzyKB()
        kb.rbox.transitive = {n for n in "pq" if rng.random() < 0.5}
        pairs = rng.randint(0, 2)
        kb.rbox.inclusions = {(rng.choice(roles), rng.choice(roles)) for _ in range(pairs)}
        expected = dense_role_axioms(i, kb)
        assert satisfies_kb(i, kb) == expected, (role_map, kb.rbox)
        seen.add(expected)
    assert seen == {True, False}


def test_sparse_role_axioms_fast_on_chain():
    """The role axioms of an 80-element transitive chain's model, 3,160
    nonzero pairs, are checked at least 3 times faster than by the dense
    loops."""
    from fshin.services import consistency, model_for

    degrees = [F(k, 20) for k in (18, 12, 15, 16, 13)]
    kb = parse_kb("trans r.\n" + "".join(
        f"assert (a{i}, a{i + 1}) : r >= {degrees[i % 5]}.\n" for i in range(79)
    ))
    model = model_for(consistency(kb))
    start = time.perf_counter()
    assert dense_role_axioms(model, kb)
    dense = time.perf_counter() - start
    sparse = []
    for _ in range(3):
        start = time.perf_counter()
        assert satisfies_kb(model, kb)
        sparse.append(time.perf_counter() - start)
    assert 3 * min(sparse) < dense, (min(sparse), dense)


def test_default_grid_contains_closure():
    kb = parse_kb("assert a : A >= 0.3.")
    grid = default_grid(kb)
    assert {F(0), F(3, 10), F(7, 10), F(1, 2), F(1)} <= set(grid)


def test_search_model_keeps_degrees_in_range():
    """The grid holds only degrees in [0, 1], so a degree outside it is met
    by no model the search returns."""
    for c, ineq, degree, consistent in OUT_OF_RANGE:
        kb = single_assertion_kb(c, ineq, degree)
        assert all(F(0) <= d <= F(1) for d in default_grid(kb))
        m = search_model(kb, max_domain=1)
        assert (m is not None) is consistent, (c, ineq, degree)
        assert m is None or satisfies_kb(m, kb)


def test_search_model_simple():
    kb = parse_kb("assert a : A >= 0.6.\nassert a : not A >= 0.3.")
    m = search_model(kb, max_domain=1)
    assert m is not None and satisfies_kb(m, kb)


def test_search_model_none_for_contradiction():
    kb = parse_kb("assert a : A >= 0.6.\nassert a : A < 0.4.")
    assert search_model(kb, max_domain=2) is None
    kb = parse_kb("assert a : some r.A >= 0.7.\nassert a : all r.(not A) >= 0.7.")
    assert search_model(kb, max_domain=2) is None


def test_search_model_needs_second_element():
    kb = parse_kb("assert a : some r.A >= 0.8.\nassert a : not A >= 0.8.")
    m = search_model(kb, max_domain=2)
    assert m is not None and satisfies_kb(m, kb)
    assert len(m.domain) == 2


def test_search_model_runs_out_of_budget():
    """A search longer than its budget raises BudgetExceeded: the one for a
    model of at most two elements of the blocking example, which has none,
    takes more than 1,000 steps."""
    kb = parse_kb((Path(__file__).parent.parent / "examples" / "blocking.fkb").read_text())
    with pytest.raises(BudgetExceeded):
        search_model(kb, max_domain=2, budget=1_000)


def complete_interpretation(rng, kb):
    """A random complete interpretation of kb and of genkb's names on 1-3
    elements, made to satisfy kb's definitions, transitivity and role
    inclusions, so that it often satisfies the whole KB."""
    domain = tuple(range(rng.randint(1, 3)))
    names = set(kb_concept_names(kb)) | {"A", "B"}
    roles = set(kb_role_names(kb)) | {"r", "s"}
    cmap = {(n, e): rng.choice(GRID) for n in sorted(names) for e in domain}
    rmap = {(r, a, b): rng.choice(GRID) for r in sorted(roles) for a in domain for b in domain}
    imap = {x: rng.choice(domain) for x in kb.abox.individuals()}
    i = FuzzyInterpretation(domain, cmap, rmap, imap)
    # genkb writes each definition after the ones its body names
    for name, (kind, body) in kb.tbox.definitions.items():
        for e in domain:
            v = eval_concept(i, body, e)
            cmap[(name, e)] = v if kind == "equiv" else min(v, cmap[(name, e)])
    for name in sorted(kb.rbox.transitive):
        for _ in domain:
            for a, b, c in itertools.product(domain, repeat=3):
                through = min(rmap[(name, a, b)], rmap[(name, b, c)])
                rmap[(name, a, c)] = max(rmap[(name, a, c)], through)
    for sub, sup in kb.rbox.inclusions:
        for a, b in itertools.product(domain, repeat=2):
            key = (sup.name, a, b)
            rmap[key] = max(rmap[key], rmap[(sub.name, a, b)])
    return i


def single_axioms(kb):
    """A KB for each assertion, definition and inclusion of kb; its RBox
    axioms hold in every interpretation made above."""
    for ca in kb.abox.concept_assertions:
        yield FuzzyKB(abox=ABox([ca]))
    for ra in kb.abox.role_assertions:
        yield FuzzyKB(abox=ABox([], [ra]))
    for name, definition in kb.tbox.definitions.items():
        yield FuzzyKB(tbox=TBox({name: definition}))
    for gci in kb.tbox.gcis:
        yield FuzzyKB(tbox=TBox(gcis=[gci]))


def test_partial_interpretation_bounds_every_completion():
    """The search prunes with the interval of a partial interpretation, so
    the interval must hold the exact value of every completion, and a KB
    that a completion satisfies must still be possible."""
    rng = random.Random(5)
    generators = [random_alc_kb, random_shin_kb, random_tbox_kb, random_tbox_kb]
    satisfied = 0
    for n in range(400):
        kb = generators[n % 4](rng)
        i = complete_interpretation(rng, kb)
        concepts = [d for c in kb.concepts() for d in subconcepts(c)]
        concepts.append(random_shin_concept(rng))
        holding = [one for one in [kb, *single_axioms(kb)] if satisfies_kb(i, one)]
        satisfied += len(holding)
        for keep in (0.25, 0.5, 0.75):
            part = FuzzyInterpretation(
                i.domain,
                {k: v for k, v in i.concept_map.items() if rng.random() < keep},
                {k: v for k, v in i.role_map.items() if rng.random() < keep},
                i.individual_map,
                (F(0), F(1)),
            )
            for c in concepts:
                for e in i.domain:
                    lo, hi = concept_interval(part, c, e)
                    assert lo <= eval_concept(i, c, e) <= hi, (c, e)
            for one in holding:
                assert satisfies_kb(part, one), one
    assert satisfied >= 800
