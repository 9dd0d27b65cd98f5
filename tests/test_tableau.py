import gc
import itertools
import json
import random
import time
import weakref
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import pytest

from fshin import syntax, tableau
from fshin.degrees import INEQ_ORDER, ONE, Ineq, SignedBound, conjugates
from fshin.kb import ABox, ConceptAssertion, FuzzyKB, RBox, hierarchy_closure
from fshin.oracle import satisfies_kb, search_model
from fshin.parser import parse_kb
from fshin.services import consistency, entails, model_for, prepare
from fshin.syntax import BOTTOM, TOP, AtLeast, Bottom, Exists, Forall, Name, Not, Or, Role, Top, inv
from fshin.tableau import (
    Budget,
    Clash,
    Forest,
    ResourceLimit,
    Triple,
    _apply_merge,
    _apply_root_merge,
    _concept_clash,
    _counting_clash,
    _gci_at,
    _generate_node,
    _has_pairwise_distinct,
    _merge_at,
    _merge_roots_at,
    _pair_clash,
    _propagate,
    _rule_atleast,
    _rule_exists_pos,
    _rule_forall_neg,
    _split_at,
    extract_model,
    init_forest,
    solve,
    triple_key,
)

from audit import audit_properties
from genkb import dense_colouring_kb, random_tbox_kb
from test_golden import EXTRA, GOLDEN, corpus, dense_distinct_text, render, sha


def run(text, budget=10**6):
    return consistency(parse_kb(text), budget)


def test_trivial_consistent():
    r = run("assert a : A >= 0.6.")
    assert r.consistent
    assert audit_properties(r.forest) == []


def test_conjugated_pair_clash():
    r = run("assert a : A >= 0.6.\nassert a : A < 0.5.")
    assert not r.consistent


def test_bottom_and_top_bounds():
    assert not run("assert a : bottom > 0.").consistent
    assert not run("assert a : top < 1.").consistent
    assert run("assert a : bottom <= 0.").consistent
    assert run("assert a : top >= 1.").consistent


def single_assertion_kb(c, ineq, degree):
    return FuzzyKB(abox=ABox([ConceptAssertion("a", c, SignedBound(ineq, degree))]))


# one assertion with a degree outside [0, 1], which the parser refuses but the
# library takes, and whether a model has it: every degree lies in [0, 1]
OUT_OF_RANGE = [
    (Name("A"), Ineq.GT, Fraction(3, 2), False),
    (Name("A"), Ineq.GE, Fraction(3, 2), False),
    (Name("A"), Ineq.LT, Fraction(-1, 2), False),
    (Name("A"), Ineq.LE, Fraction(-1, 2), False),
    (Name("A"), Ineq.LT, Fraction(3, 2), True),
    (Name("A"), Ineq.GT, Fraction(-1, 2), True),
    (TOP, Ineq.LT, Fraction(3, 2), True),
    (BOTTOM, Ineq.GT, Fraction(-1, 2), True),
]


def test_out_of_range_degrees():
    for c, ineq, degree, consistent in OUT_OF_RANGE:
        kb = single_assertion_kb(c, ineq, degree)
        assert consistency(kb).consistent is consistent, (c, ineq, degree)
    assert entails(FuzzyKB(), ("a", Name("A")), SignedBound(Ineq.LE, Fraction(3, 2)))
    assert entails(FuzzyKB(), ("a", Name("A")), SignedBound(Ineq.GT, Fraction(-1, 2)))


def test_negation_rule():
    r = run("assert a : not A >= 0.8.\nassert a : A >= 0.3.")
    assert not r.consistent


def test_disjunction_branches():
    r = run("assert a : A or B >= 0.6.\nassert a : A < 0.6.\nassert a : B < 0.6.")
    assert not r.consistent
    r = run("assert a : A or B >= 0.6.\nassert a : A < 0.6.")
    assert r.consistent


def test_exists_forall_interaction():
    r = run("assert a : some r.A >= 0.7.\nassert a : all r.(not A) >= 0.7.")
    assert not r.consistent
    # at 0.3 the universal is weak enough to coexist
    r = run("assert a : some r.A >= 0.7.\nassert a : all r.(not A) >= 0.3.")
    assert r.consistent


def test_role_assertion_propagation():
    r = run(
        "assert (a,b): r >= 0.8.\n"
        "assert a : all r.C >= 0.9.\n"
        "assert b : C < 0.5.\n"
    )
    assert not r.consistent


def test_inverse_role_propagation():
    r = run(
        "assert (a,b): r >= 0.8.\n"
        "assert b : all r-.C >= 0.9.\n"
        "assert a : C < 0.5.\n"
    )
    assert not r.consistent


def test_edge_clash_via_inverse():
    r = run("assert (a,b): r >= 0.8.\nassert (b,a): r- < 0.7.")
    assert not r.consistent


def test_transitive_propagation():
    r = run(
        "trans r.\n"
        "assert (a,b): r >= 0.9.\n"
        "assert (b,c): r >= 0.9.\n"
        "assert a : all r.C >= 0.8.\n"
        "assert c : C < 0.5.\n"
    )
    assert not r.consistent
    # without transitivity the chain does not reach c
    r = run(
        "assert (a,b): r >= 0.9.\n"
        "assert (b,c): r >= 0.9.\n"
        "assert a : all r.C >= 0.8.\n"
        "assert c : C < 0.5.\n"
    )
    assert r.consistent


# the shape of perfbench's chain_kb: a transitive r, its sub-role s on some
# links, the head's universal passed along the whole chain, a tail witness
CHAIN_KB = """trans r.
subrole s r.
assert (a0, a1): r >= 0.55.
assert (a1, a2): s >= 0.6.
assert (a2, a3): r >= 0.9.
assert (a3, a4): s >= 0.75.
assert (a4, a5): r >= 0.5.
assert a0 : all r.A >= 0.65.
assert a5 : some r-.(not A) >= 0.7.
assert a2 : <= 1 s >= 0.2.
"""


def test_derived_triples_are_shared():
    # each derived triple is the instance its source caches, so equal
    # triples along the chain are one object
    r = run(CHAIN_KB)
    assert r.consistent and len(r.forest.nodes) == 7
    held = {}
    for node in r.forest.nodes.values():
        for t in node.label:
            assert held.setdefault(t, t) is t, t
    forall = Triple(Forall(Role("r"), Name("A")), Ineq.GE, Fraction(13, 20))
    assert sum(forall in node.label for node in r.forest.nodes.values()) == 6
    assert forall.over(Role("r")) is forall
    assert forall.over(Role("s")).over(Role("s")) is forall.over(Role("s"))
    edge = Triple(Role("r"), Ineq.GE, Fraction(1, 2))
    assert edge.inverse.inverse is edge
    assert edge.inverse.inverse.inverse is edge.inverse


def test_over_and_inverse_build_through_the_table():
    """A quantifier triple passed along a transitive sub-role other than
    its own, and a role triple read backwards, are the instances the
    constructor returns; no workload reaches the first."""
    r, s = Role("over-r"), Role("over-s")
    rbox = hierarchy_closure(RBox(transitive={"over-s"}, inclusions={(s, r)}))
    assert rbox.transitive_subroles(r) == (s,)
    t = Triple(Forall(r, Name("A")), Ineq.GE, Fraction(3, 4))
    moved = t.over(s)
    assert moved is Triple(Forall(s, Name("A")), Ineq.GE, Fraction(3, 4)) is not t
    assert moved.over(s) is moved and moved.over(r) is t and t.over(r) is t
    edge = Triple(r, Ineq.LT, Fraction(1, 3))
    assert edge.inverse is Triple(inv(r), Ineq.LT, Fraction(1, 3))
    assert edge.inverse.inverse is edge and "inverse" not in edge.__dict__


def test_chain_solve_time_grows_with_the_chain(monkeypatch):
    """The benchmark's planted chain KB (seed 1) at n = 60 and n = 480, best
    of 5 each: the check takes at most 12 times as long for 8 times the
    individuals.  A scan or blocking pass that walks every node on each of
    the ~2n expand iterations made it about 20 times."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from workloads import chain_kb

    def best(n):
        kb = parse_kb(chain_kb(random.Random(1), n, True).kb_text)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert not consistency(kb).consistent
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(480) / best(60) <= 12


@pytest.mark.parametrize(
    "text, witnesses",
    [
        # one existential, propagated to two nodes, with a witness at each
        ("assert a : all r.(some r.B) >= 0.6.\nassert (a, b): r >= 0.9.\nassert (a, c): r >= 0.9.", 2),
        # one at-least's successors
        ("assert a : >= 3 r >= 0.5.", 3),
    ],
)
def test_witnesses_share_one_edge_triple(text, witnesses):
    f = run(text).forest
    generated = [lab for (a, b), lab in f.edges.items() if not f.nodes[b].is_root]
    assert len(generated) == witnesses
    (edge,) = generated[0]
    assert all(len(lab) == 1 and next(iter(lab)) is edge for lab in generated)


def test_blocking_terminates_cycle():
    r = run(
        "define C equiv some r.C.\n"
        "trans r.\n"
        "assert a : C >= 0.7.\n",
    )
    # a cyclic definition is not unfoldable; gci mode handles it
    assert r.prepared.mode == "gci"
    assert r.consistent


def test_si_blocking_infinite_chain():
    r = run(
        "trans r.\n"
        "assert a : some r.(some r.A) >= 0.6.\n"
        "assert a : all r.(some r.A) >= 0.6."
    )
    assert r.consistent
    blocks = [ev for ev in r.trace if ev[0] == "block"]
    assert blocks, "expected the chain to be stopped by blocking"


def test_number_restriction_atleast():
    r = run("assert a : >= 2 s >= 0.8.\nassert a : <= 1 s > 0.3.")
    assert not r.consistent
    r = run("assert a : >= 2 s >= 0.8.\nassert a : <= 1 s <= 0.1.")
    assert r.consistent


def test_atmost_merges_named_successors():
    r = run(
        "assert (a,b): s >= 0.9.\n"
        "assert (a,c): s >= 0.9.\n"
        "assert a : <= 1 s >= 0.8.\n"
    )
    assert r.consistent
    merges = [ev for ev in r.trace if ev[0] in ("merge", "merge-root")]
    assert merges


def test_atmost_distinct_successors_clash():
    r = run(
        "assert (a,b): s >= 0.9.\n"
        "assert (a,c): s >= 0.9.\n"
        "assert a : <= 1 s >= 0.8.\n"
        "distinct b c.\n"
    )
    assert not r.consistent


@pytest.mark.parametrize(
    "bound, consistent", [("<= 0.5", False), ("<= 1", True), ("< 1", False)]
)
def test_at_least_zero_under_a_negative_bound(bound, consistent):
    # (>= 0 r) is 1 everywhere, so only a bound that admits 1 is satisfiable
    r = run(f"assert a : >= 0 r {bound}.")
    assert r.consistent == consistent
    clashes = [ev[1].kind for ev in r.trace if ev[0] == "clash"]
    assert clashes == ([] if consistent else ["at-least"])


def brute_force_distinct(f, members, k):
    return any(
        all(v in f.nodes[u].distinct for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(members, k)
    )


def test_pairwise_distinct_matches_brute_force():
    rng = random.Random(7)
    # sparse to complete graphs, then dense ones, where the answer rests on
    # the colouring bound rather than on missing partners
    densities = [rng.random() for _ in range(300)] + [rng.uniform(0.7, 1) for _ in range(300)]
    for p in densities:
        n = rng.randint(0, 8) if p < 0.7 or rng.random() < 0.5 else rng.randint(9, 12)
        members = rng.sample(range(12), n)
        f = Forest(True, hierarchy_closure(RBox()), Budget(10**6))
        for _ in range(12):
            f.new_node(None)
        f.add_neq(pair for pair in itertools.combinations(range(12), 2) if rng.random() < p)
        for k in range(n + 2):
            assert _has_pairwise_distinct(f, members, k) == brute_force_distinct(f, members, k)


def test_many_successors_under_at_most_answer_quickly():
    # 26 named r-successors, none known distinct, under (<= 12 r): trying
    # every 13-subset for 13 pairwise distinct ones took about 28 s
    lines = [f"assert (a, b{i}): r >= 0.9." for i in range(26)]
    kb = parse_kb("\n".join(lines) + "\nassert a : <= 12 r >= 0.9.\n")
    start = time.perf_counter()
    r = consistency(kb, budget=2000)
    assert time.perf_counter() - start < 1.0
    assert r.consistent


@pytest.mark.parametrize("n, cap, consistent", [(20, 10, True), (26, 13, True), (20, 9, False)])
def test_dense_distinct_successors_answer_quickly(n, cap, consistent):
    # n named r-successors, pairwise distinct except within n/2 fixed pairs:
    # every member has n - 2 distinct partners, so pruning members by their
    # partner count keeps them all, and the largest distinct set has n/2
    # members, one of each pair, so trying every (cap + 1)-subset is
    # exponential in n.
    kb = parse_kb(dense_distinct_text(n, cap))
    start = time.perf_counter()
    r = consistency(kb, budget=2000)
    assert time.perf_counter() - start < 1.0
    assert r.consistent == consistent


def test_large_at_least_answers():
    # the rule's 1,000 new successors are pairwise distinct, which must be
    # seen without a search as deep as the clique (Python's recursion limit),
    # also next to a named successor that is distinct from none of them; the
    # last KB runs an expand iteration per successor, each of which must not
    # walk all 79,800 distinct pairs
    for text, nodes in (
        ("assert a : >= 1000 r >= 0.5.", 1001),
        ("assert (a, b): r >= 0.5.\nassert a : >= 1000 r >= 0.5.", 1002),
        ("assert a : >= 400 r >= 0.6.\nassert a : all r.B >= 0.5.", 401),
    ):
        start = time.perf_counter()
        r = consistency(parse_kb(text))
        assert time.perf_counter() - start < 5.0, text
        assert r.consistent and len(r.forest.nodes) == nodes, text
        del r  # each forest holds a million distinct-set entries


def test_dense_distinct_graph_exhausts_the_budget():
    # 60 named r-successors, each pair distinct with probability 0.8, under
    # (<= 16 r): the greedy clique and the colouring bound both fail, and
    # each call of the clique search charges the budget, so the search ends
    # in ResourceLimit instead of running on (54 s uncharged)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        consistency(dense_colouring_kb(60, 16), budget=20_000)
    assert time.perf_counter() - start < 5.0


def test_role_inclusion_propagation():
    r = run(
        "subrole p r.\n"
        "assert (a,b): p >= 0.8.\n"
        "assert a : all r.C >= 0.9.\n"
        "assert b : C < 0.5.\n"
    )
    assert not r.consistent


def test_gci_all_branches_clash():
    r = run(
        "implies >= 1 R C.\n"
        "assert (a, b): R >= 0.6.\n"
        "assert a : C < 0.6.\n"
    )
    assert r.prepared.mode == "gci"
    assert not r.consistent


def test_budget_exceeded():
    with pytest.raises(ResourceLimit):
        run(
            "assert a : some r.(some r.A) >= 0.6.\n"
            "assert a : all r.(some r.A) >= 0.6.",
            budget=5,
        )


def test_dump_format():
    r = run("assert (a,b): r >= 0.8.\nassert a : A >= 0.75.")
    text = r.forest.dump()
    lines = text.splitlines()
    assert lines[0] == "node 0 root {⟨A,>=,3/4⟩}"
    assert lines[1] == "node 1 root {}"
    assert lines[2] == "edge 0 -> 1 {⟨r,>=,4/5⟩}"


@pytest.mark.parametrize(
    "text, domain",
    [
        (
            "trans r.\n"
            "assert (a,b): r >= 0.8.\n"
            "assert a : some r.A >= 0.7.\n"
            "assert b : all r-.B >= 0.6.\n",
            (0, 1, 2),
        ),
        # forests with directly blocked nodes, whose in-edges the model
        # redirects to their blockers
        (EXTRA["si-chain"], (0, 1, 2)),
        (EXTRA["si-older-unblock"], (0,)),
        (EXTRA["si-new-blocker"], (0, 1, 2, 3, 5, 6, 12)),
    ],
    ids=("trans-r", "si-chain", "si-older-unblock", "si-new-blocker"),
)
def test_extracted_model_satisfies(text, domain):
    kb = parse_kb(text)
    res = consistency(kb)
    assert res.consistent
    model = model_for(res)
    nodes = res.forest.nodes
    assert model.domain == domain
    assert domain == tuple(x for x in sorted(nodes) if nodes[x].status[0] == tableau.UNBLOCKED)
    assert satisfies_kb(model, kb)


def test_extracted_model_is_sparse_closure():
    """On a transitive chain the role map holds exactly the nonzero pairs of
    the sup-min closure: r(a_i, a_j) is the least degree on the chain from
    a_i to a_j, and the 80 * 79 / 2 pairs with i < j are all there is."""
    degrees = [Fraction(k, 20) for k in (18, 12, 15, 16, 13)]
    n = 80
    text = "trans r.\nassert a0 : all r.A >= 0.6.\n" + "".join(
        f"assert (a{i}, a{i + 1}) : r >= {degrees[i % 5]}.\n" for i in range(n - 1)
    )
    kb = parse_kb(text)
    res = consistency(kb)
    assert res.consistent
    model = extract_model(res.forest)
    ids = [model.individual_map[f"a{i}"] for i in range(n)]
    closure = {
        ("r", ids[i], ids[j]): min(degrees[k % 5] for k in range(i, j))
        for i in range(n)
        for j in range(i + 1, n)
    }
    assert len(closure) == 3160
    assert model.role_map == closure
    assert satisfies_kb(model_for(res), kb)


def test_audit_on_clash_free_forests():
    samples = [
        "assert a : A or B >= 0.6.",
        "assert a : some r.(A and B) >= 0.7.\nassert a : all r.A >= 0.2.",
        "trans r.\nassert (a,b): r >= 0.9.\nassert a : all r.C >= 0.3.",
    ]
    for text in samples:
        res = run(text)
        assert res.consistent
        assert audit_properties(res.forest) == [], text


# --- index invariants -------------------------------------------------------
#
# The forest keeps derived views up to date as it changes: each node's label
# in canonical order and grouped by rule kind, the set of nodes whose label
# clashes, the per-node adjacency index, cached neighbour lists and the set
# of clashing edge pairs.  The reference
# versions below recompute each view by scanning, as the engine once did.

F = Fraction
S, R = Role("s"), Role("r")
KINDS = ("not", "decompose", "split", "forall+", "forall-", "exists+", "exists-", "count")


def scan_neighbour_bounds(f, x, r):
    out = []
    for (a, b), lab in f.edges.items():
        if a == x:
            out += [(b, t.bound) for t in lab if f.rbox.includes(t.subject, r)]
        if b == x:
            out += [(a, t.bound) for t in lab if f.rbox.includes(t.subject, inv(r))]
    return sorted(out, key=lambda p: (p[0], INEQ_ORDER[p[1].ineq], p[1].degree))


def scan_concept_clash(node):
    label = sorted(node.label, key=triple_key)
    for t in label:
        if t.unary_clash:
            return Clash(t.unary_clash, node.id, (t,))
    for i, t1 in enumerate(label):
        for t2 in label[i + 1:]:
            if t1.subject == t2.subject and conjugates(t1.bound, t2.bound):
                return Clash("conjugated-pair", node.id, (t1, t2))
    return None


def scan_edge_clash(f):
    for a, b in sorted({(min(k), max(k)) for k in f.edges}):
        clash = _pair_clash(f, a, b)
        if clash:
            return clash
    return None


def check_indexes(f):
    for node in f.nodes.values():
        label = sorted(node.label, key=triple_key)
        assert f.sorted_label(node) == label
        for kind in KINDS:
            assert node.of_kind(kind) == [t for t in label if t.kind == kind]
        clash = scan_concept_clash(node)
        assert _concept_clash(f, node) == clash
        assert (node.id in f.clashing_nodes) == (clash is not None)
        assert node.adjacent == {k for k in f.edges if node.id in k}
        assert all(node.id in f.nodes[y].distinct for y in node.distinct), node.id
        for r in (S, inv(S), R, inv(R)):
            assert f.neighbour_bounds(node.id, r) == scan_neighbour_bounds(f, node.id, r)
        children = sum(1 << y for y, other in f.nodes.items() if other.parent == node.id)
        assert node.children == children, node.id
    # the dirty sets hold live nodes only, none past the newest id
    assert all(ids >> len(f.nodes) == 0 for ids in f.dirty), f.dirty
    # a group's set holds only nodes that may enter it, and they include
    # each node whose label holds a kind of triple that the group reads
    for at, ids, holders in zip((*f.rules, _counting_clash), f.dirty, f.holders):
        assert ids & ~holders == 0 and (holders == -1 or holders >> len(f.nodes) == 0)
        for x, node in f.nodes.items():
            if any(node.of_kind(kind) for kind in tableau._READS[at] or ()):
                assert holders >> x & 1, (at.__name__, x)
    stored = f.clashing_pairs[min(f.clashing_pairs)] if f.clashing_pairs else None
    assert stored == scan_edge_clash(f)


def small_forest():
    rbox = hierarchy_closure(RBox(transitive={"r"}, inclusions={(S, R)}))
    f = Forest(True, rbox, Budget(10**6))
    a, b, c = (f.new_node(None, n).id for n in "abc")
    return f, a, b, c


def test_index_invariants_under_every_mutation():
    f, a, b, c = small_forest()
    check_indexes(f)
    for t in (
        Triple(Name("B"), Ineq.LE, F(1, 2)),
        Triple(Name("A"), Ineq.GE, F(3, 4)),
        Triple(Exists(S, Name("A")), Ineq.GE, F(3, 5)),
        Triple(Forall(R, Not(Name("B"))), Ineq.GE, F(1, 2)),
        Triple(AtLeast(2, S), Ineq.GE, F(7, 10)),
        Triple(Name("A"), Ineq.LE, F(4, 5)),
    ):
        f.add_triple(a, t, "test")
        check_indexes(f)
    assert a not in f.clashing_nodes
    f.add_triple(c, Triple(Name("A"), Ineq.LT, F(1, 2)), "test")
    f.add_triple(c, Triple(Name("A"), Ineq.GE, F(1, 2)), "test")
    assert c in f.clashing_nodes
    check_indexes(f)

    f.union_edge(a, b, {Triple(S, Ineq.GE, F(9, 10))})
    f.union_edge(b, a, {Triple(inv(S), Ineq.GE, F(1, 2))})  # joins edge (a, b)
    f.union_edge(c, a, {Triple(R, Ineq.GE, F(4, 5))})
    check_indexes(f)
    f.union_edge(a, c, {Triple(inv(R), Ineq.LT, F(1, 2))})  # edge clash
    assert f.clashing_pairs
    check_indexes(f)
    f.union_edge(a, c, {Triple(R, Ineq.GT, ONE)})  # an earlier clash replaces it
    assert f.clashing_pairs[(a, c)].triples == (Triple(R, Ineq.GT, ONE),)
    check_indexes(f)

    _generate_node(f, a, Triple(S, Ineq.GE, F(3, 5)), Triple(Name("A"), Ineq.GE, F(3, 5)), "test")
    check_indexes(f)
    f.blocking()
    assert _rule_atleast(f, f.nodes[a])
    check_indexes(f)
    y, z = sorted(i for i, n in f.nodes.items() if n.parent == a)[-2:]
    for node in f.nodes.values():
        node.distinct = frozenset()
    _apply_merge(f, a, y, z)
    check_indexes(f)

    g = f.clone()
    check_indexes(g)
    g.add_triple(z, Triple(Name("B"), Ineq.GT, F(1, 5)), "test")
    g.add_triple(z, Triple(Or(Name("A"), Name("B")), Ineq.GE, F(1, 5)), "test")
    g.union_edge(z, b, {Triple(S, Ineq.GE, F(1, 4))})
    _generate_node(g, b, Triple(R, Ineq.GE, F(1, 2)), Triple(Name("B"), Ineq.GE, F(1, 2)), "test")
    check_indexes(g)
    check_indexes(f)
    assert len(g.nodes) == len(f.nodes) + 1
    assert f.sorted_label(f.nodes[z]) != g.sorted_label(g.nodes[z])

    _apply_root_merge(f, a, c, b)
    assert f.nodes[c].label == set() and f.nodes[c].adjacent == set()
    check_indexes(f)
    f.add_triple(b, Triple(Name("B"), Ineq.GE, F(1, 4)), "test")
    check_indexes(f)
    check_indexes(g)


def test_node_built_with_a_label_is_indexed():
    label = [
        Triple(Name("A"), Ineq.GE, F(1, 2)),
        Triple(TOP, Ineq.GE, ONE),
        Triple(Name("A"), Ineq.LE, F(1, 4)),
    ]
    f, a, _, _ = small_forest()
    node = f.nodes[a]
    for t in label:
        assert a not in f.clashing_nodes
        f.add_label(node, t)
    assert node.ordered == sorted(label, key=triple_key)
    assert a in f.clashing_nodes
    copy = node.copy()
    assert (copy.id, copy.parent, copy.root_name) == (node.id, None, "a") and copy.is_root
    assert copy.label == node.label and copy.ordered == node.ordered
    check_indexes(f)


# --- dirty scan groups and the undo trail ---

SCAN_GROUPS = (
    _counting_clash, _propagate, _merge_at, _merge_roots_at, _rule_exists_pos,
    _rule_forall_neg, _rule_atleast, _split_at, _gci_at,
)

# the rules a forest of each fragment leaves out
LEFT_OUT = {
    "si": {_merge_at, _merge_roots_at, _rule_atleast, _gci_at},
    "shin": {_gci_at},
    "gci": set(),
}
FRAGMENT_KBS = {
    "si": "assert a : some r.A >= 0.5.\nassert a : all r.(not A) >= 0.6.",
    "shin": "assert a : (<= 1 r) >= 0.8.\nassert (a, b): r >= 0.7.",
    "gci": "implies >= 1 R C.\nassert (a, b): R >= 0.6.\nassert a : C < 0.6.",
}


def test_each_fragment_runs_its_rules():
    """Forest.rules is the rule tuple in priority order, less the rules the
    forest's fragment never runs: f-SI has no merges, at-least generator or
    inclusion split, and f-SHIN no inclusion split."""
    assert tableau._RULES == (
        _propagate, _merge_at, _merge_roots_at, _rule_exists_pos, _rule_forall_neg,
        _rule_atleast, _split_at, _gci_at,
    )
    assert set(tableau._RULES) == set(SCAN_GROUPS) - {_counting_clash}
    for mode, text in FRAGMENT_KBS.items():
        prepared = prepare(parse_kb(text))
        assert prepared.mode == mode
        f = init_forest(prepared)
        assert f.rules == tuple(r for r in tableau._RULES if r not in LEFT_OUT[mode])


def test_pruned_inclusion_splits_agree_with_the_papers_rule():
    """init_forest builds an inclusion split only for the degrees n of xa
    that can constrain, 0 < n and n - ell < 1: each split of the paper's
    rule (every n of xa, every inclusion) that it drops has a first
    alternative that clashes on its own (n <= 0) or that every degree meets
    (n - ell >= 1).  On the golden GCI KBs, a seeded genkb sample, and a KB
    whose `< 0` bound puts -ell and 1 + ell in xa, the verdict is the one
    the paper's full list of splits gives wherever both finish within the
    budget."""

    def verdict(f):
        try:
            return solve(f).consistent
        except ResourceLimit:
            return None

    kbs = [kb for _, kb in corpus()]
    rng = random.Random(2121)
    kbs += [random_tbox_kb(rng) for _ in range(100)]
    kbs.append(parse_kb("implies C some r.C.\nassert a : C >= 0.5.\nassert a : D < 0.\n"))
    compared, dropped = 0, Counter()
    for kb in kbs:
        prepared = prepare(kb)
        if prepared.mode != "gci":
            continue
        ell = prepared.ell
        full = tuple(
            (n, Triple(lhs, Ineq.LE, n - ell), Triple(rhs, Ineq.GE, n))
            for n in prepared.xa
            for lhs, rhs in prepared.gcis
        )
        pruned, paper = (init_forest(prepared, Budget(5_000)) for _ in range(2))
        kept, paper.gci_splits = pruned.gci_splits, full
        verdicts = (verdict(pruned), verdict(paper))
        assert kept == tuple(split for split in full if split in kept)
        for split in full:
            n, t1, _ = split
            assert (split in kept) == (0 < n and n - ell < 1)
            if split not in kept:
                assert t1.unary_clash or n - ell >= 1, split
                dropped[n > 0] += 1
        if None not in verdicts:
            assert verdicts[0] == verdicts[1], kb
            compared += 1
    # both kinds of dropped split occur: n <= 0, and n - ell >= 1
    assert compared > 70 and dropped[False] > 200 and dropped[True] > 0


# root merges of roots that already have generated children, which are
# re-parented, and a generated successor merged before a root merge
ROOT_MERGE_KBS = (
    "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\nassert b : some s.A >= 0.6.\n"
    "assert c : some s.B >= 0.6.\nassert a : (<= 1 s) or bottom >= 0.8.\n",
    "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\nassert b : some s.A >= 0.6.\n"
    "assert c : all s.(not A) >= 0.7.\nassert a : (<= 1 s) or bottom >= 0.8.\n",
    "assert (a,b): s >= 0.9.\nassert (c,b): s >= 0.9.\nassert b : some s-.(>= 2 s) >= 0.6.\n"
    "assert a : A or B >= 0.5.\nassert b : (<= 1 s-) or bottom >= 0.8.\n",
    # merging y into z at x makes z and w distinct, which closes a counting
    # clash at v although no edge at v changes
    "assert (x,y): s >= 0.9.\nassert (x,z): s >= 0.9.\nassert (v,z): r >= 0.9.\n"
    "assert (v,w): r >= 0.9.\nassert x : <= 1 s >= 0.8.\nassert v : <= 1 r >= 0.8.\n"
    "distinct y w.\n",
    # either root merge of b and c moves c's s-loop onto the merged root; in
    # the second KB b's universal then reaches A <= 0.2 through the loop
    "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\nassert (c,c): s >= 0.8.\n"
    "assert a : <= 1 s >= 0.8.\n",
    "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\nassert (c,c): s >= 0.8.\n"
    "assert a : <= 1 s >= 0.8.\nassert b : all s.A >= 0.7.\nassert c : A <= 0.2.\n",
)


def test_merge_skips_a_neighbour_that_is_not_a_child():
    """Under (<= 1 r-), node 2 counts its non-root parent 1 and its child 3
    as r- neighbours.  Only a child of node 2 can be merged away, so the
    one alternative is 3 into 1.  search_model(kb, max_domain=3) agrees
    with the verdict."""
    kb = parse_kb("assert a : some r.(some r.((<= 1 r-) and some r-.C)) >= 0.8.")
    cp = tableau.expand(init_forest(prepare(kb)))
    assert cp.alternatives == (("merge", 2, 3, 1),)
    res = consistency(kb)
    assert res.consistent
    assert [ev for ev in res.trace if ev[0] == "merge"] == [("merge", 2, 3, 1)]
    assert search_model(kb, max_domain=3) is not None


def test_root_merge_moves_a_self_loop():
    """Merging the roots b and c turns c's s-loop into one at the merged
    root.  search_model(kb, max_domain=3) agrees with both verdicts."""
    consistent, inconsistent = (parse_kb(text) for text in ROOT_MERGE_KBS[-2:])
    res = consistency(consistent)
    assert res.consistent
    assert any(e[0] == "merge-root" for e in res.trace)
    (x,) = {e[3] for e in res.trace if e[0] == "merge-root"}
    assert (x, x) in res.forest.edges
    assert not consistency(inconsistent).consistent


# random GCI KBs whose search undoes block events (the first) and distinct
# pairs (the second), which the golden corpus never does, an inconsistent
# one whose search backtracks over inclusion splits until the budget runs
# out (the third), and an f-SI KB whose search undoes two status changes
# (the fourth): node 2 is blocked by node 1 until the split at node 1 adds
# B, and node 3 by node 2 until the split at node 2 does
UNDO_KBS = (
    "implies all r.A some s.(some r.A).\ntrans r.\nassert b : (bottom and A) >= 0.\n"
    "assert a : all r.(not top or some r.top) >= 1.\nassert (c,c) : s >= 0.75.\n",
    "implies <= 1 s some r.top.\nimplies all r.B some s.(bottom or not B).\ntrans r.\n"
    "subrole r q.\nassert b : some r.(some r.(not A) or some s.top) <= 0.5.\n"
    "assert a : all s.(some r.A) < 1.\nassert c : A <= 0.25.\nassert (a,a) : s < 0.75.\n"
    "distinct b c.\n",
    "implies C some r.C.\nimplies some r.C D.\nassert a : C >= 0.3.\nassert a : some r.D < 0.2.\n",
    "trans r.\nassert a : some r.A >= 0.6.\nassert a : all r.(some r.A) >= 0.6.\n"
    "assert a : all r.(B or C) >= 0.6.\nassert a : all r.(not B) >= 0.6.\n",
)


def golden_runs(extra=()):
    """A fresh forest for each golden KB that the search completes within
    its budget and each root-merge KB, of every fragment, then for each of
    `extra` under a smaller budget."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kbs = [(kb, 20_000) for name, kb in corpus() if golden[name]["verdict"] != "ResourceLimit"]
    kbs += [(parse_kb(text), 20_000) for text in ROOT_MERGE_KBS]
    kbs += [(parse_kb(text), 1_000) for text in extra]
    for kb, budget in kbs:
        yield init_forest(prepare(kb), Budget(budget))


def dirty_sets(f):
    """Each scan group's and blocking's dirty set, with the fresh nodes that
    the next fold adds to it."""
    *sets, fresh = f.dirty
    return [ids | (fresh & holders) for ids, holders in zip(sets, f.holders)]


def check_clean(f, checked):
    """Reference for the dirty sets: at every node outside a scan group's
    set, the group itself, run on a clone with a budget and trace of its
    own, finds nothing to do."""
    g = f.clone()
    g.budget, g.trace = Budget(10**9), []
    # the rules' sets in f.rules order, then the counting clash's
    for at, ids in zip((*f.rules, _counting_clash), dirty_sets(f)):
        for x in f.nodes:
            if not ids >> x & 1:
                assert not at(g, g.nodes[x]), (at.__name__, x)
                checked[at.__name__] += 1


def test_settled_nodes_have_nothing_to_do(monkeypatch):
    checked = Counter()
    real_find_clash = tableau.find_clash

    def find_clash(f):
        # expand calls this once per iteration, right after blocking
        check_clean(f, checked)
        return real_find_clash(f)

    monkeypatch.setattr(tableau, "find_clash", find_clash)
    merged_roots = 0
    for f in golden_runs():
        trace = solve(f).trace
        merged_roots += sum(ev[0] == "merge-root" for ev in trace)
    assert merged_roots >= 3
    assert set(checked) == {at.__name__ for at in SCAN_GROUPS}


def one_triple_of_each_kind(a):
    """An atom on a, then a triple of each kind in KINDS order, at 1/2."""
    half = Fraction(1, 2)
    triples = [
        Triple(a, Ineq.GE, half),
        Triple(Not(a), Ineq.GE, half),
        Triple(syntax.And(a, Name("B")), Ineq.GE, half),
        Triple(Or(a, Name("B")), Ineq.GE, half),
        *(Triple(q(R, a), k, half) for q in (Forall, Exists) for k in (Ineq.GE, Ineq.LE)),
        Triple(AtLeast(2, R), Ineq.GE, half),
    ]
    assert [t.kind for t in triples] == [None, *KINDS[:3], "forall+", "forall-", "exists+", "exists-", "count"]
    return triples


def test_a_label_add_wakes_the_groups_that_read_its_kind():
    """On an initial forest with every dirty set emptied, add_label of a
    triple of kind k puts its node into exactly the sets of the groups whose
    _READS hold k, and blocking's, as a holder of each; an atom into
    blocking's alone.  Nothing goes through the fresh set, and undo(mark)
    gives back every set and holder as it was at the mark."""
    f = init_forest(prepare(parse_kb(FRAGMENT_KBS["gci"])))
    assert f.rules == tableau._RULES
    f.blocking()
    f.dirty[:] = [0] * len(f.dirty)
    mark = f.mark()
    dirty, holders = list(f.dirty), list(f.holders)
    groups = (*f.rules, _counting_clash)
    x = max(f.nodes)
    bit = 1 << x
    for t in one_triple_of_each_kind(Name("A")):
        assert t not in f.nodes[x].label
        f.add_label(f.nodes[x], t)
        woken = [j for j, at in enumerate(groups) if t.kind in (tableau._READS[at] or ())]
        woken.append(len(groups))  # blocking's
        assert f.dirty == [bit if j in woken else 0 for j in range(len(dirty))], t
        assert f.holders == [h | bit if j in woken else h for j, h in enumerate(holders)], t
        f.undo(mark)
        assert f.dirty == dirty and f.holders == holders and t not in f.nodes[x].label


def test_only_a_mark_logs_the_dirty_sets():
    """The dirty sets and holders roll back with the snapshot that each
    mark() appends to the trail, and no other write to them is logged: on
    a marked GCI forest, add_label appends one record whatever the kind of
    its triple; a _first scan that drops nodes, a blocking() pass that
    changes no status and add_neq, but for its distinct sets, append none;
    and undo(outer), past a nested mark and more adds, gives back the outer
    mark's sets and holders."""
    f = init_forest(prepare(parse_kb(FRAGMENT_KBS["gci"])))
    a, b = f.nodes
    outer = f.mark()
    dirty, holders = list(f.dirty), list(f.holders)
    labels = [set(node.label) for node in f.nodes.values()]
    for t in one_triple_of_each_kind(Name("A")):
        start = len(f.trail)
        f.add_label(f.nodes[b], t)
        assert f.trail[start:] == [(f.nodes[b]._unadd, (t, f.nodes[b].ordered.index(t)))], t
    start = len(f.trail)
    i = f.rules.index(_split_at)
    assert f.dirty[i] and f.dirty[tableau._BLOCKING]
    assert tableau._first(f, lambda f, node: None, i) is None and f.dirty[i] == 0
    statuses = [node.status for node in f.nodes.values()]
    f.blocking()
    assert f.dirty[tableau._BLOCKING] == 0 and [node.status for node in f.nodes.values()] == statuses
    assert len(f.trail) == start
    f.add_neq([(a, b)])
    assert [(fn, args[1]) for fn, args in f.trail[start:]] == [(setattr, "distinct")] * 2
    inner = f.mark()
    sets = (list(f.dirty), list(f.holders))
    assert sets != (dirty, holders)
    for t in one_triple_of_each_kind(Name("C")):
        f.add_label(f.nodes[a], t)
    f.undo(inner)
    assert (f.dirty, f.holders) == sets
    f.add_label(f.nodes[a], Triple(Name("C"), Ineq.LE, Fraction(1, 4)))
    f.undo(outer)
    assert f.dirty == dirty and f.holders == holders
    assert [node.label for node in f.nodes.values()] == labels


def test_blocking_traces_each_status_change(monkeypatch):
    """Each blocking() call traces exactly the events that comparing the
    old and new status maps gives: each node newly directly blocked, or by
    a new blocker, oldest first, then each node no longer directly
    blocked, oldest first, even where it is older than a blocked one (the
    golden f-SI KB si-older-unblock has such a pass, si-new-blocker a change
    of blocker)."""
    real_blocking = Forest.blocking
    seen = Counter()

    def statuses(f):
        return {x: node.status for x, node in f.nodes.items()}

    def blocking(f):
        old, start = statuses(f), len(f.trace)
        real_blocking(f)
        new = statuses(f)
        blocks = [("block", x, y) for x, (kind, y) in sorted(new.items())
                  if kind == tableau.DIRECT and old[x] != (kind, y)]
        unblocks = [("unblock", x) for x in sorted(new)
                    if old[x][0] == tableau.DIRECT and new[x][0] != tableau.DIRECT]
        assert f.trace[start:] == blocks + unblocks
        seen.update(ev[0] for ev in blocks + unblocks)
        seen["older unblock"] += bool(unblocks and blocks and unblocks[0][1] < blocks[-1][1])
        seen["new blocker"] += sum(old[x][0] == tableau.DIRECT for _, x, _ in blocks)

    monkeypatch.setattr(Forest, "blocking", blocking)
    for f in golden_runs(UNDO_KBS):
        try:
            solve(f)
        except ResourceLimit:
            pass
    assert all(seen[k] > 0 for k in ("block", "unblock", "older unblock", "new blocker")), seen


def reference_statuses(f):
    """Each node's blocking status from the definitions, top-down: a root
    is unblocked; the child of a parent that is not unblocked, or over an
    emptied in-edge, is indirectly blocked; otherwise the nearest ancestor
    y that blocks it directly is its blocker: in f-SI, y's label equals its
    own; in pair-wise blocking, y is no root, and y, y's parent and the edge
    between them carry the labels of the node, its parent and its in-edge."""
    nodes, out = f.nodes, {}
    for x in sorted(nodes):  # a parent's id is smaller than its child's
        node, p = nodes[x], nodes[x].parent
        if p is None:
            out[x] = (tableau.UNBLOCKED, None)
            continue
        in_edge = f.edges.get((p, x), frozenset())
        if out[p][0] != tableau.UNBLOCKED or (p, x) in f.edges and not in_edge:
            out[x] = (tableau.INDIRECT, None)
            continue
        path = [p]
        while nodes[path[-1]].parent is not None:
            path.append(nodes[path[-1]].parent)

        def blocks(y):
            if not f.pairwise:
                return nodes[y].label == node.label
            yp = nodes[y].parent
            return yp is not None and (nodes[y].label, nodes[yp].label, f.edges.get((yp, y), frozenset())) == (
                node.label, nodes[p].label, in_edge)

        y = next((y for y in path if blocks(y)), None)
        out[x] = (tableau.UNBLOCKED, None) if y is None else (tableau.DIRECT, y)
    return out


def test_blocking_matches_the_definitions(monkeypatch):
    """After every blocking() call, on the golden KBs and UNDO_KBS, each
    node's status is the one reference_statuses recomputes from scratch,
    though the pass checked only the nodes of its set and their
    descendants, and skipped the roots."""
    real_blocking = Forest.blocking
    seen = Counter()

    def blocking(f):
        real_blocking(f)
        expected = reference_statuses(f)
        assert {x: node.status for x, node in f.nodes.items()} == expected
        seen.update((f.pairwise, kind) for kind, _ in expected.values())

    monkeypatch.setattr(Forest, "blocking", blocking)
    for f in golden_runs(UNDO_KBS):
        try:
            solve(f)
        except ResourceLimit:
            pass
    kinds = (tableau.UNBLOCKED, tableau.DIRECT, tableau.INDIRECT)
    assert all(seen[pairwise, kind] for pairwise in (False, True) for kind in kinds), seen


def assert_same_forest(f, g):
    """f equals g in its dump, in every index and in its search state."""
    assert f.dump() == g.dump()
    check_indexes(f)
    assert list(f.nodes) == list(g.nodes)
    for x, node in f.nodes.items():
        other = g.nodes[x]
        assert (node.parent, node.root_name) == (other.parent, other.root_name)
        assert node.status == other.status, x
        assert node.adjacent == other.adjacent
        assert node.ordered == other.ordered and node.label == other.label
        for kind in KINDS:
            assert node.of_kind(kind) == other.of_kind(kind)
        assert node.children == other.children, x
        assert node.distinct == other.distinct and node.merged_into == other.merged_into, x
    assert f.edges == g.edges
    assert f.clashing_pairs == g.clashing_pairs and f.clashing_nodes == g.clashing_nodes
    assert f.self_distinct == g.self_distinct
    assert dirty_sets(f) == dirty_sets(g) and f.holders == g.holders


def test_undo_gives_back_each_choice_points_forest(monkeypatch):
    """At every choice point, clone the forest, as the engine once did for
    each branch; before each alternative, the forest undone to the choice
    point's mark must equal that clone."""
    real_expand, real_apply, real_undo = tableau.expand, tableau.apply_alternative, Forest.undo
    snapshots = {}  # id(alternative) -> (alternative, clone)
    undone = Counter()

    def expand(f):
        out = real_expand(f)
        if isinstance(out, tableau.ChoicePoint):
            # every mark is clash-free, so undo may empty the clash indexes
            assert not f.clashing_nodes and not f.clashing_pairs and f.self_distinct is None
            # the first alternative is applied with nothing to undo
            g = f.clone()
            for alt in out.alternatives[1:]:
                snapshots[id(alt)] = (alt, g)
        return out

    def apply_alternative(f, alt):
        if id(alt) in snapshots:
            assert_same_forest(f, snapshots.pop(id(alt))[1])
            undone["alternatives"] += 1
        real_apply(f, alt)
        if alt[0] == "merge_root":
            # Node.children follows y's children to their new parent
            check_indexes(f)

    def undo(f, mark):
        for fn, args in f.trail[mark:]:
            undone[fn.__name__ + ("." + args[1] if fn is setattr else "")] += 1
            # records put back facts: no clash flag, _kinds or neighbour
            # table; f.edges is the container an edge goes back into
            saved = (a for a in args if a is not f.edges)
            assert not any(isinstance(a, (bool, dict)) for a in saved), fn.__name__
        real_undo(f, mark)

    monkeypatch.setattr(tableau, "expand", expand)
    monkeypatch.setattr(tableau, "apply_alternative", apply_alternative)
    monkeypatch.setattr(Forest, "undo", undo)
    for f in golden_runs(UNDO_KBS):
        snapshots.clear()
        try:
            solve(f)
        except ResourceLimit:
            pass
    # every kind of undo record was exercised, and no other
    assert undone.pop("alternatives") > 500
    assert set(undone) == {
        "_unadd", "_unclear", "pop", "_restore_edge", "setattr.parent", "setattr.status",
        "setattr.distinct", "setattr.merged_into", "setattr.children", "_restore_sets",
    }


def test_solve_keeps_a_trail_its_caller_started():
    """solve keeps the trail of a forest that its caller marked, and undoing
    back to that mark gives back the forest as it was marked."""
    kept = 0
    for f in golden_runs():
        if f.clashing_nodes or f.clashing_pairs:
            continue
        base = f.clone()
        mark = f.mark()
        solve(f)
        f.undo(mark)
        assert_same_forest(f, base)
        kept += 1
    assert kept >= 100


def test_no_forest_is_left_to_the_cycle_collector():
    """A marked forest, solved, goes as soon as its last reference does: no
    undo record refers back to it."""
    refs = []
    gc.disable()
    try:
        for f in golden_runs():
            if f.clashing_nodes or f.clashing_pairs:
                continue
            f.mark()
            solve(f)
            refs.append(weakref.ref(f))
        del f
        assert len(refs) >= 100
        assert not [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()


def solve_hashes(forests, kept=None):
    """(trace hash, dump hash of the final or first clashing forest) of a
    solve of each forest; each forest is appended to `kept` if one is
    given, else dropped before the next is solved."""
    out = []
    for f in forests:
        try:
            result = solve(f)
        except ResourceLimit:
            dump = ""
        else:
            final = result.forest if result.consistent else result.first_clash_forest
            dump = final.dump() if final is not None else ""
        out.append((sha("\n".join(render(ev) for ev in f.trace)), sha(dump)))
        if kept is not None:
            kept.append(f)
    return out


def fresh_table() -> dict:
    """A constructor table that holds TOP and BOTTOM alone, the instances
    the package keeps as constants."""
    return {key: syntax._TABLE[key] for key in ((Top,), (Bottom,))}


def test_no_result_follows_the_keep_alive_or_the_ids(monkeypatch):
    """The golden_runs() solves trace and end alike with a keep-alive that
    holds nothing, so that each task builds its triples and their caches
    anew, with one that holds 64 triples, and with fresh tables while the
    first pass lives on, so that every concept, role and triple is a new
    object with a new id, and sets of them iterate in another order."""
    expected = solve_hashes(golden_runs())
    # monkeypatch holds on to the deque it replaces, so empty it first
    syntax._KEEP.clear()
    for size in (0, 64):
        monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=size))
        gc.collect()
        assert solve_hashes(golden_runs()) == expected
    assert len(syntax._KEEP) == 64
    monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=1 << 16))
    kept = []
    assert solve_hashes(golden_runs(), kept) == expected
    monkeypatch.setattr(syntax, "_TABLE", fresh_table())
    monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=1 << 16))
    fresh = []
    assert solve_hashes(golden_runs(), fresh) == expected
    old, new = kept[0].nodes[0].ordered[0], fresh[0].nodes[0].ordered[0]
    assert str(old) == str(new) and old.subject is not new.subject and old is not new


def test_reference_counting_frees_every_triple(monkeypatch):
    """With the keep-alive emptied and the cyclic collector off, solving
    golden_runs() and dropping each forest leaves no triple in the table:
    no cache of a triple refers back to it.  The table starts fresh, so
    that no triple another test's forest holds caches one made here."""
    monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=0))
    monkeypatch.setattr(syntax, "_TABLE", fresh_table())
    gc.collect()
    gc.disable()
    try:
        solve_hashes(golden_runs())
        left = [k for k in syntax._TABLE.keys() if k[0] is Triple]
        dead = [k for k, ref in syntax._TABLE.items() if ref() is None]
    finally:
        gc.enable()
    assert left == [] and dead == []


def test_a_held_triple_evicted_from_the_keep_alive_stays_shared(monkeypatch):
    """Eviction from the keep-alive only drops a cache entry: a triple still
    held is the one a constructor call returns, and one no longer held
    leaves the table."""
    syntax._KEEP.clear()
    monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=4))
    c = Exists(Role("held-role"), Name("held-name"))
    t = Triple(c, Ineq.GE, ONE)
    parts = t.parts
    for k in range(8):
        Triple(c, Ineq.LE, Fraction(k, 8))
    gc.collect()
    assert t not in syntax._KEEP and "parts" in t.__dict__
    assert Triple(c, Ineq.GE, ONE) is t and Triple(c.body, Ineq.GE, ONE) is parts[0]
    assert (Triple, c, Ineq.GE, 1, 1) in syntax._TABLE
    assert (Triple, c, Ineq.LE, 0, 1) not in syntax._TABLE
    forests = []
    solve_hashes(golden_runs(), forests)
    gc.collect()
    held = {t for f in forests for node in f.nodes.values() for t in node.label}
    assert len(held) > 100
    assert all(Triple(t.subject, t.ineq, t.degree) is t for t in held)
