"""End-to-end acceptance checks: worked-example reproduction, exhaustive
property grids, and differential testing against the semantic oracle."""

import random
import time
from fractions import Fraction
from functools import lru_cache

from fshin.degrees import Ineq, ONE, SignedBound, conjugates
from fshin.oracle import satisfies_kb, search_model
from fshin.parser import parse_kb, parse_query
from fshin.services import (
    InconsistentKB,
    _with_negated,
    consistency,
    entails,
    glb,
    lub,
    model_for,
    subsumes,
)
from fshin.syntax import Exists, Forall, Not, Role

from audit import audit_properties
from genkb import random_alc_concept, random_alc_kb, random_shin_kb

F = Fraction

EXAMPLE1 = """
trans isPartOf.
assert (o1, o2): isPartOf >= 0.8.
assert (o2, o3): isPartOf >= 0.9.
assert o1 : Arm >= 0.75.
assert o2 : Body >= 0.85.
"""

QUERY1 = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) >= 0.75"

BLOCKING = """
define C equiv all R-.(all P-.(not A)).
trans R.
assert a : A >= 0.8.
assert (a, b): P >= 0.8.
assert b : C >= 0.8.
assert b : some R.C >= 0.8.
assert b : all R.(some R.C) >= 0.8.
"""

GCI = """
implies >= 1 R C.
assert (a, b): R >= 0.6.
assert a : C < 0.6.
"""


def _branch_slices(trace):
    """Split a refutation trace into the per-alternative event runs."""
    slices, current = [], None
    for ev in trace:
        if ev[0] == "branch":
            if current is not None:
                slices.append(current)
            current = [ev]
        elif current is not None:
            current.append(ev)
    if current is not None:
        slices.append(current)
    return slices


def test_criterion_01_worked_example_both_branches():
    t0 = time.time()
    kb = parse_kb(EXAMPLE1)
    query, bound = parse_query(QUERY1)
    assert entails(kb, query, bound)

    res = consistency(_with_negated(kb, query, bound))
    assert not res.consistent
    branches = _branch_slices(res.trace)
    assert len(branches) == 2

    def adds(sl):
        return [(ev[1], ev[2], str(ev[3].subject), ev[3].ineq, ev[3].degree)
                for ev in sl if ev[0] == "add"]

    # first alternative: the Body conjunct travels to o2 and clashes there
    first = adds(branches[0])
    assert first == [
        ("choice", 2, "some isPartOf-.Body", Ineq.LT, F(3, 4)),
        ("exists-neg", 1, "Body", Ineq.LT, F(3, 4)),
    ]
    clash1 = [ev for ev in branches[0] if ev[0] == "clash"]
    assert len(clash1) == 1
    assert {t.degree for t in clash1[0][1].triples} == {F(3, 4), F(17, 20)}

    # second alternative: Arm travels through the transitive chain to o1
    second = adds(branches[1])
    assert second == [
        ("choice", 2, "some isPartOf-.Arm", Ineq.LT, F(3, 4)),
        ("exists-neg", 1, "Arm", Ineq.LT, F(3, 4)),
        ("exists-trans", 1, "some isPartOf-.Arm", Ineq.LT, F(3, 4)),
        ("exists-neg", 0, "Arm", Ineq.LT, F(3, 4)),
    ]
    clash2 = [ev for ev in branches[1] if ev[0] == "clash"]
    assert len(clash2) == 1
    assert {t.degree for t in clash2[0][1].triples} == {F(3, 4)}

    assert time.time() - t0 < 1.0
    print("ACCEPTANCE 1: PASS - entailed, both refutation branches clash as expected")


def test_criterion_02_dynamic_blocking_established_and_broken():
    t0 = time.time()
    res = consistency(parse_kb(BLOCKING))
    assert not res.consistent
    events = [ev[0] for ev in res.trace]
    assert "block" in events and "unblock" in events
    assert events.index("block") < events.index("unblock")
    # the generated node is blocked by the root for b, then released
    block = next(ev for ev in res.trace if ev[0] == "block")
    blocked, blocker = block[1], block[2]
    assert res.first_clash_forest.nodes[blocker].root_name == "b"
    assert not res.first_clash_forest.nodes[blocked].is_root
    assert time.time() - t0 < 1.0
    print("ACCEPTANCE 2: PASS - inconsistent with a block established and later broken")


def test_criterion_03_gci_all_branches_clash():
    t0 = time.time()
    res = consistency(parse_kb(GCI))
    assert res.prepared.mode == "gci"
    assert not res.consistent
    # the search ran out of alternatives: every expansion ended in a clash
    assert res.trace[-1] == ("exhausted",)
    branch_idxs = {ev[3] for ev in res.trace if ev[0] == "branch"}
    assert branch_idxs == {0, 1}
    assert sum(1 for ev in res.trace if ev[0] == "clash") >= 2
    # at the critical relative degree 0.6 both alternatives were explored
    critical = [
        ev for ev in res.trace
        if ev[0] == "branch" and ev[4][2].degree in (F(3, 5), F(11, 20))
    ]
    assert {ev[3] for ev in critical} == {0, 1}
    assert time.time() - t0 < 1.0
    print("ACCEPTANCE 3: PASS - gci mode inconsistent, every expansion clashes")


def test_criterion_04_conjugation_grid():
    grid = [F(k, 20) for k in range(21)]
    pairs = [
        (Ineq.GE, Ineq.LT),
        (Ineq.GE, Ineq.LE),
        (Ineq.GT, Ineq.LT),
        (Ineq.GT, Ineq.LE),
    ]
    checked = 0
    for n in grid:
        for m in grid:
            for pos_k, neg_k in pairs:
                pos = SignedBound(pos_k, n)
                neg = SignedBound(neg_k, m)
                # semantic reference: is there an x in [0,1] meeting both?
                feasible = n < m or (n == m and pos_k is Ineq.GE and neg_k is Ineq.LE)
                assert conjugates(pos, neg) == (not feasible), (pos, neg)
                assert conjugates(neg, pos) == (not feasible)
                checked += 1
    assert checked == 21 * 21 * 4
    print("ACCEPTANCE 4: PASS - conjugation matches the semantic check on the full grid")


def test_criterion_05_transitivity_propagation_subsumptions():
    kb = parse_kb("trans p.\nsubrole p r.")
    rng = random.Random(5)
    p, r = Role("p"), Role("r")
    for _ in range(50):
        c = random_alc_concept(rng, depth=2, roles=("q",))
        assert subsumes(Forall(p, Forall(p, c)), Forall(r, c), kb), c
    for _ in range(50):
        c = random_alc_concept(rng, depth=2, roles=("q",))
        assert subsumes(Exists(r, c), Exists(p, Exists(p, c)), kb), c
    print("ACCEPTANCE 5: PASS - 50/50 universal and existential propagation subsumptions")


@lru_cache(maxsize=1)
def _alc_corpus():
    """200 random plain-ALC KBs with their tableau results."""
    rng = random.Random(42)
    out = []
    for _ in range(200):
        kb = random_alc_kb(rng)
        out.append((kb, consistency(kb)))
    return out


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    for kb, res in _alc_corpus():
        model = search_model(kb, max_domain=3)
        assert (model is not None) == res.consistent
        if model is not None:
            assert satisfies_kb(model, kb)

    rng = random.Random(43)
    for _ in range(100):
        kb = random_shin_kb(rng)
        res = consistency(kb)
        if res.consistent:
            continue
        # one-sided: an inconsistent verdict forbids any small oracle model
        assert search_model(kb, max_domain=2) is None
    assert time.time() - t0 < 300
    print("ACCEPTANCE 6: PASS - 200 ALC verdicts match the oracle, 100 SHIN one-sided")


def test_criterion_07_model_extraction_soundness():
    count = 0
    for kb, res in _alc_corpus():
        if not res.consistent:
            continue
        assert res.prepared.mode == "si"
        model = model_for(res)
        assert satisfies_kb(model, kb)
        count += 1
    assert count > 0
    print(f"ACCEPTANCE 7: PASS - {count} extracted models satisfy their KBs exactly")


def test_criterion_08_glb_lub_duality():
    kb1 = parse_kb(EXAMPLE1)
    query, _ = parse_query("(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)")
    assert glb(kb1, query) == F(3, 4)

    rng = random.Random(8)
    done = 0
    while done < 100:
        kb = random_alc_kb(rng)
        c = random_alc_concept(rng, depth=2)
        ind = kb.abox.individuals()[0]
        try:
            low = glb(kb, (ind, c))
        except InconsistentKB:
            continue
        assert lub(kb, (ind, Not(c))) == ONE - low
        done += 1
    print("ACCEPTANCE 8: PASS - duality on 100 pairs, worked-example glb = 3/4")


def test_criterion_09_termination_stress():
    parts = " and ".join(f"(A{i} or B{i})" for i in range(6))
    kb = parse_kb(
        f"define D equiv {parts}.\n"
        "define C equiv (some R.D) and (all R.(some R.D)).\n"
        "trans R.\n"
        "assert a : C >= 0.6.\n"
    )
    res = consistency(kb)  # must not raise ResourceLimit
    assert res.consistent in (True, False)
    assert res.consistent
    print("ACCEPTANCE 9: PASS - exponential-path stress terminates with a definite answer")


def test_criterion_10_property_audit():
    audited = 0
    kb1 = parse_kb(EXAMPLE1)
    res1 = consistency(kb1)
    assert res1.consistent
    forests = [(res1.forest, res1.prepared.abox)]
    for kb, res in _alc_corpus():
        if res.consistent:
            forests.append((res.forest, res.prepared.abox))
    for forest, abox in forests:
        assert audit_properties(forest, abox) == []
        audited += 1
    assert audited > 50
    print(f"ACCEPTANCE 10: PASS - {audited} complete clash-free forests pass the audit")
