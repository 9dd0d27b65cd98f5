import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fshin import services
from fshin.degrees import Ineq, ONE, SignedBound
from fshin.kb import ABox, FuzzyKB, detect_mode, relative_degrees
from fshin.oracle import satisfies_kb, search_model
from fshin.parser import parse_concept, parse_kb, parse_query, serialize_kb
from fshin.services import (
    InconsistentKB,
    ModeError,
    consistency,
    entails,
    glb,
    lub,
    model_for,
    n_satisfiable,
    prepare,
    satisfiable,
    subsumes,
)
from fshin.syntax import AtLeast, AtMost, Forall, Name, Not, Role, inv
from fshin.tableau import ResourceLimit, Triple

from genkb import (
    random_alc_concept,
    random_alc_kb,
    random_shin_concept,
    random_shin_kb,
    random_tbox_kb,
    random_transitive_kb,
)

F = Fraction
EXAMPLES = Path(__file__).parent.parent / "examples"

EXAMPLE1 = """
trans isPartOf.
assert (o1, o2): isPartOf >= 0.8.
assert (o2, o3): isPartOf >= 0.9.
assert o1 : Arm >= 0.75.
assert o2 : Body >= 0.85.
"""


def test_prepare_picks_the_fragment():
    """prepare runs the procedure of the fragment detect_mode gives."""
    kb = parse_kb("implies A B.\nassert a : A >= 0.5.")
    assert prepare(kb).mode == "gci"
    paths = sorted(EXAMPLES.glob("*.fkb"))
    assert paths
    for path in paths:
        kb = parse_kb(path.read_text(encoding="utf-8"))
        assert prepare(kb).mode == detect_mode(kb), path.name


def test_prepare_refuses_non_simple_number_restriction():
    # f-SHIN is decidable only with simple roles in number restrictions
    for text in (
        "trans r.\nassert a : >= 2 r >= 0.5.",
        "trans r.\nassert a : <= 1 r- > 0.25.",
        "trans p.\nsubrole p r.\nassert a : all s.(<= 1 r) >= 0.5.",
        "trans r.\nimplies A >= 1 r.\nassert a : A >= 0.5.",
    ):
        kb = parse_kb(text)
        with pytest.raises(ModeError, match="non-simple"):
            prepare(kb)
        with pytest.raises(ModeError):
            consistency(kb)
    # a sub-role of a transitive role is simple while nothing transitive
    # lies below it
    kb = parse_kb("trans r.\nsubrole s r.\nassert a : <= 1 s >= 0.5.")
    assert prepare(kb).mode == "shin"
    assert consistency(kb).consistent


def test_mode_error_names_the_first_non_simple_restriction():
    """The error names the first non-simple number restriction in
    kb.concepts() order: the ABox's concepts, then the definitions, then
    the inclusions, each read outside in and left to right."""
    for text, first in (
        ("trans r. trans s. define D equiv >= 2 r. assert a : <= 1 s >= 0.5.", "<= 1 s"),
        ("trans r. trans s. assert a : (>= 2 r) and (<= 1 s) >= 0.5.", ">= 2 r"),
        ("trans r. trans s. implies (<= 1 s) (>= 2 r).", "<= 1 s"),
    ):
        with pytest.raises(ModeError, match=f"^number restriction {first} is over "):
            prepare(parse_kb(text))


def test_entails_example():
    kb = parse_kb(EXAMPLE1)
    q, b = parse_query(
        "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) >= 0.75"
    )
    assert entails(kb, q, b)
    q2, b2 = parse_query(
        "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) > 0.8"
    )
    assert not entails(kb, q2, b2)


def test_entails_role_query():
    kb = parse_kb("trans r.\nassert (a,b): r >= 0.8.\nassert (b,c): r >= 0.6.")
    q, b = parse_query("(a,b): r >= 0.8")
    assert entails(kb, q, b)
    q, b = parse_query("(a,c): r >= 0.9")
    assert not entails(kb, q, b)


@pytest.mark.parametrize("text", [
    "trans r. assert (a,b): r >= 0.8. assert (b,c): r >= 0.9. assert (a,c): r < 0.8.",
    # through the inverse role, and over a non-simple super-role of r
    "trans r. assert (a,b): r >= 0.8. assert (b,c): r >= 0.9. assert (c,a): r- <= 0.7.",
    "trans r. subrole r q. assert (a,b): r >= 0.8. assert (b,c): r >= 0.9. assert (a,c): q < 0.8.",
])
def test_negative_role_bound_over_a_chain(text):
    """A negative bound on a non-simple role meets the chain of edges that
    transitivity closes, which no single edge shows.  The oracle agrees on
    domains of up to two elements; with the role inclusion that search
    takes seconds, so it is left out there."""
    kb = parse_kb(text)
    assert not consistency(kb).consistent
    if not kb.rbox.inclusions:
        assert search_model(kb, max_domain=2) is None


def test_glb_of_a_role_over_a_transitive_chain():
    kb = parse_kb(EXAMPLE1)
    q, b = parse_query("(o1, o3): isPartOf >= 0.8")
    assert entails(kb, q, b)
    assert (glb(kb, q), lub(kb, q)) == (F(4, 5), ONE)


def test_glb_lub():
    kb = parse_kb(EXAMPLE1)
    q, _ = parse_query("(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)")
    assert glb(kb, q) == F(3, 4)
    q, _ = parse_query("o1 : Arm")
    assert glb(kb, q) == F(3, 4)
    assert lub(kb, q) == ONE
    q, _ = parse_query("o1 : not Arm")
    assert lub(kb, q) == F(1, 4)


def test_glb_lub_gci():
    # KBs with inclusions: the bounds are relative degrees of the ABox,
    # not the GCI degree set's shifted strict bounds
    for text, query, low, high in (
        ("implies A B.\nassert a : A > 0.5.", "a : B", F(1, 2), ONE),
        ("implies A B.\nassert a : A >= 0.5.", "a : B", F(1, 2), ONE),
        ("implies A B.\nassert a : B < 0.3.", "a : A", F(0), F(3, 10)),
    ):
        kb = parse_kb(text)
        q, _ = parse_query(query)
        assert (glb(kb, q), lub(kb, q)) == (low, high), text


def test_glb_raises_on_inconsistent_kb():
    kb = parse_kb("assert a : A >= 0.8.\nassert a : A < 0.5.")
    q, _ = parse_query("a : A")
    with pytest.raises(InconsistentKB):
        glb(kb, q)
    with pytest.raises(InconsistentKB):
        lub(kb, q)


@pytest.mark.parametrize("text, expected", [
    ("implies top bottom.", False),
    ("implies top some r.bottom.", False),
    ("implies top A.\nimplies top not A.", False),
    ("implies top A.", True),
    ("define A equiv not A.", True),
])
def test_abox_free_tbox_on_a_nonempty_domain(text, expected):
    """A KB that names no individual still has a non-empty domain, so its
    inclusions must hold of some element; the oracle agrees."""
    kb = parse_kb(text)
    assert consistency(kb).consistent == expected
    assert (search_model(kb) is not None) == expected


def test_glb_lub_raise_on_unsatisfiable_tbox():
    kb = parse_kb("implies top bottom.")
    q, _ = parse_query("a : A")
    with pytest.raises(InconsistentKB):
        glb(kb, q)
    with pytest.raises(InconsistentKB):
        lub(kb, q)


def candidate_degrees(kb, ineq):
    # the GCI degree set too, which glb and lub leave out
    pool = {*relative_degrees(kb.abox.degrees()), *prepare(kb).xa}
    return sorted((d for d in pool if 0 <= d <= 1), reverse=ineq.positive)


def linear_bound(kb, query, ineq, budget=services.DEFAULT_BUDGET):
    """glb (ineq >=) or lub (ineq <=) by a linear scan: the KB's own check,
    then the candidates in order until one is entailed."""
    if not consistency(kb, budget).consistent:
        raise InconsistentKB()
    for n in candidate_degrees(kb, ineq):
        if entails(kb, query, SignedBound(ineq, n), budget):
            return n
    raise AssertionError("every KB entails q >= 0 and q <= 1")


def outcome(fn, *args):
    try:
        return fn(*args)
    except InconsistentKB:
        return "inconsistent"


def part_of_chain(rng, n):
    """A transitive isPartOf chain o1 -> ... -> on with o1 : A, and the
    degree of (on): some isPartOf-.A, the least of the chain's degrees."""
    degrees = [F(rng.randint(1, 19), 20) for _ in range(n)]
    lines = ["trans isPartOf."]
    lines += [f"assert (o{i}, o{i + 1}): isPartOf >= {degrees[i]}." for i in range(1, n)]
    lines.append(f"assert o1 : A >= {degrees[0]}.")
    return parse_kb("\n".join(lines)), min(degrees)


def assert_matches_linear_scan(kb, query, budget=services.DEFAULT_BUDGET):
    assert outcome(glb, kb, query, budget) == outcome(linear_bound, kb, query, Ineq.GE, budget)
    assert outcome(lub, kb, query, budget) == outcome(linear_bound, kb, query, Ineq.LE, budget)


def test_glb_lub_match_linear_scan_random():
    # criterion 8's KB/concept pairs, inconsistent KBs included, and a
    # query on an asserted concept of each KB, whose bounds are seldom 0 or 1
    rng = random.Random(8)
    for _ in range(100):
        kb = random_alc_kb(rng)
        c = random_alc_concept(rng, depth=2)
        assert_matches_linear_scan(kb, (kb.abox.individuals()[0], c))
        ca = rng.choice(kb.abox.concept_assertions)
        assert_matches_linear_scan(kb, (ca.individual, ca.concept))


def test_glb_lub_match_linear_scan_part_of_chains():
    rng = random.Random(10)
    for n in (3, 5, 8, 12):
        kb, g = part_of_chain(rng, n)
        q = (f"o{n}", parse_concept("some isPartOf-.A"))
        assert_matches_linear_scan(kb, q)
        assert glb(kb, q) == g
        assert lub(kb, (q[0], Not(q[1]))) == 1 - g


def test_glb_lub_match_linear_scan_gci():
    # KBs with inclusions (GCI mode, where the candidates take in the
    # normalized degree set); one concept assertion is kept, and queried, so
    # that fewer of them are inconsistent
    rng = random.Random(5)
    answers = []
    tried = 0
    while tried < 24:
        kb = random_tbox_kb(rng)
        if not kb.tbox.gcis:
            continue
        tried += 1
        ca = rng.choice(kb.abox.concept_assertions)
        kb = FuzzyKB(kb.tbox, kb.rbox, ABox([ca], list(kb.abox.role_assertions)))
        q = (ca.individual, ca.concept)
        try:
            assert_matches_linear_scan(kb, q, budget=3000)
        except ResourceLimit:
            continue
        answers.append(outcome(glb, kb, q, 3000))
    assert len(answers) >= 16
    assert sum(a != "inconsistent" for a in answers) >= 6


def test_glb_lub_probe_count(monkeypatch):
    """A glb or lub over k candidates makes at most ceil(log2 k) + 1
    consistency checks, on an inconsistent KB too: each check, a probe on
    the shared forest or a consistency call, is one solve."""
    calls = []
    solve = services.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(services, "solve", counted)
    kb, _ = part_of_chain(random.Random(4), 12)
    cases = [
        (parse_kb(EXAMPLE1), parse_query("(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)")[0]),
        (parse_kb(EXAMPLE1), parse_query("o1 : not Arm")[0]),
        (kb, ("o12", parse_concept("some isPartOf-.A"))),
        (parse_kb("implies A B.\nassert a : A > 0.5."), ("a", Name("B"))),
        (parse_kb("assert a : A >= 0.8.\nassert a : A < 0.5."), ("a", Name("A"))),
    ]
    for kb, q in cases:
        for fn, ineq in ((glb, Ineq.GE), (lub, Ineq.LE)):
            k = len(candidate_degrees(kb, ineq))
            calls.clear()
            outcome(fn, kb, q)
            assert 1 <= len(calls) <= (k - 1).bit_length() + 1, (fn.__name__, q, k, len(calls))


# the KB of every consistency check each service makes, as serialize_kb
# writes it; the individual x0 is taken, so the fresh one is x1
TAKEN = (
    "trans r.\nsubrole r s.\ndefine C equiv A and B.\n"
    "assert (x0, b): r >= 0.5.\nassert x0 : A > 0.25.\ndistinct x0 b.\n"
)
TAKEN_HEAD = "define C equiv (A and B).\ntrans r.\nsubrole r s.\n"
EXAMPLE1_ROLES = "assert (o1,o2) : isPartOf >= 0.8.\nassert (o2,o3) : isPartOf >= 0.9.\n"
EXAMPLE1_HEAD = "trans isPartOf.\nassert o1 : Arm >= 0.75.\nassert o2 : Body >= 0.85.\n"
PROBES = {
    "sat": (
        lambda: satisfiable(parse_concept("some r.A and all s.(not A)"), parse_kb(TAKEN)),
        True,
        [
            TAKEN_HEAD + "assert x0 : A > 0.25.\nassert x1 : (some r.A and all s.(not A)) > 0.\n"
            "assert (x0,b) : r >= 0.5.\ndistinct b x0.\n"
        ],
    ),
    "n-sat": (
        lambda: n_satisfiable(parse_concept("C or not A"), F(3, 5), parse_kb(TAKEN)),
        True,
        [
            TAKEN_HEAD + "assert x0 : A > 0.25.\nassert x1 : (C or not A) >= 0.6.\n"
            "assert x1 : (C or not A) <= 0.6.\nassert (x0,b) : r >= 0.5.\ndistinct b x0.\n"
        ],
    ),
    "subsumes": (
        lambda: subsumes(parse_concept("A"), parse_concept("C"), parse_kb(TAKEN)),
        True,
        [
            TAKEN_HEAD + "assert x0 : C >= 0.5.\nassert x0 : A < 0.5.\n",
            TAKEN_HEAD + "assert x0 : C >= 1.\nassert x0 : A < 1.\n",
        ],
    ),
    "entails-concept": (
        lambda: entails(
            parse_kb(EXAMPLE1),
            *parse_query("(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) >= 0.75"),
        ),
        True,
        [
            EXAMPLE1_HEAD
            + "assert o3 : (some isPartOf-.Body and some isPartOf-.Arm) < 0.75.\n"
            + EXAMPLE1_ROLES
        ],
    ),
    "entails-role": (
        lambda: entails(parse_kb(EXAMPLE1), *parse_query("(o1, o3): isPartOf >= 0.8")),
        True,
        [EXAMPLE1_HEAD + EXAMPLE1_ROLES + "assert (o1,o3) : isPartOf < 0.8.\n"],
    ),
    "glb": (
        lambda: glb(parse_kb(EXAMPLE1), parse_query("o1 : Arm")[0]),
        F(3, 4),
        [
            EXAMPLE1_HEAD + f"assert o1 : Arm < {n}.\n" + EXAMPLE1_ROLES
            for n in ("0.5", "0.85", "0.75", "0.8")
        ],
    ),
}


@pytest.mark.parametrize("service", PROBES)
def test_probe_kbs_pinned(monkeypatch, service):
    """Each service gives its answer from the same consistency checks, in
    the same order, on the same KBs, assertion for assertion: a consistency
    call, or a check on a shared forest."""
    seen = []
    check, consistency = services.Probes.check, services.consistency

    def spy_check(probes, degree):
        if probes.forest is not None:
            bound = SignedBound(probes.ineq, degree)
            seen.append(serialize_kb(services._with_negated(probes.kb, probes.query, bound)))
        return check(probes, degree)

    def spy_consistency(kb, budget):
        seen.append(serialize_kb(kb))
        return consistency(kb, budget)

    monkeypatch.setattr(services.Probes, "check", spy_check)
    monkeypatch.setattr(services, "consistency", spy_consistency)
    call, answer, probes = PROBES[service]
    assert call() == answer
    assert seen == probes


def test_entailments_build_no_probes(monkeypatch):
    """entails, satisfiable, n_satisfiable and subsumes build no Probes:
    each entailment they decide is one consistency check, one solve."""
    counts = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(services.Probes, "__init__", spy("probes", services.Probes.__init__))
    monkeypatch.setattr(services, "solve", spy("solves", services.solve))
    monkeypatch.setattr(services, "entails", spy("entailments", services.entails))
    rng = random.Random(25)
    modes = Counter()
    for _ in range(6):
        for kb in (random_alc_kb(rng), random_shin_kb(rng), random_tbox_kb(rng)):
            modes[detect_mode(kb)] += 1
            a = kb.abox.individuals()[0]
            c, d = random_alc_concept(rng, 2), random_alc_concept(rng, 2)
            n = rng.choice(relative_degrees(kb.abox.degrees()))
            for call in (
                lambda: services.entails(kb, (a, c), SignedBound(rng.choice(list(Ineq)), n), 3000),
                lambda: services.satisfiable(c, kb, 3000),
                lambda: services.n_satisfiable(c, n, kb, 3000),
                lambda: services.subsumes(d, c, kb, 3000),
            ):
                before = counts["solves"] - counts["entailments"]
                try:
                    call()
                except ResourceLimit:
                    pass
                assert counts["solves"] - counts["entailments"] == before
    assert counts["probes"] == 0 and counts["entailments"] > 50
    assert set(modes) == {"si", "shin", "gci"}


@pytest.fixture
def budgets_used(monkeypatch):
    """budget.used at the end of each solve that services runs, in order."""
    used = []
    solve = services.solve

    def spy(f):
        result = solve(f)
        used.append(f.budget.used)
        return result

    monkeypatch.setattr(services, "solve", spy)
    return used


def check_outcome(check, used):
    """The verdict, trace and budget.used of a check, or "exhausted"."""
    try:
        result = check()
    except ResourceLimit:
        return "exhausted"
    return result.consistent, result.trace, used[-1]


def assert_probes_match_fresh_checks(kb, query, ineqs, used, budget=2000) -> int:
    """Each Probes.check on kb and query equals the consistency check of kb
    plus the negated assertion, for every relative degree of kb and 1/3,
    and each inequality in ineqs.  Returns the number of checks made on a
    shared forest."""
    degrees = sorted({*relative_degrees(kb.abox.degrees()), F(1, 3)})
    shared = 0
    for ineq in ineqs:
        try:
            probes = services.Probes(kb, query, ineq, budget)
        except ResourceLimit:
            probes = None
        for n in degrees:
            negated = services._with_negated(kb, query, SignedBound(ineq, n))
            fresh = check_outcome(lambda: consistency(negated, budget), used)
            got = "exhausted" if probes is None else check_outcome(lambda: probes.check(n), used)
            assert got == fresh, (serialize_kb(negated), probes is not None and probes.forest)
            shared += probes is not None and probes.forest is not None
    return shared


def test_shared_probes_match_fresh_checks(budgets_used):
    """Over genkb's KBs in every mode, with concept queries, whose number
    restrictions can take an SI KB to SHIN, and role queries, on existing
    and fresh individuals."""
    rng = random.Random(24)
    shared = Counter()
    generators = (random_alc_kb, random_shin_kb, random_tbox_kb, random_transitive_kb)
    for _ in range(12):
        for kb in (generate(rng) for generate in generators):
            a, b = kb.abox.individuals()[0], kb.abox.individuals()[-1]
            role = Role(rng.choice(("r", "q")), inverted=rng.random() < 0.5)
            queries = [
                (a, random_shin_concept(rng, 2)),
                ("x9", random_alc_concept(rng, 2)),
                (b, a, role),
                (a, "x9", role),
            ]
            mode = detect_mode(kb)
            # a GCI probe is a consistency call on either side, and the
            # longest: one query, under a small budget
            budget = 300 if mode == "gci" else 2000
            for query in queries[:1] if mode == "gci" else queries:
                ineqs = rng.sample(list(Ineq), 2)
                used = assert_probes_match_fresh_checks(kb, query, ineqs, budgets_used, budget)
                shared[mode, len(query)] += used
    # both kinds of query took the shared path on SI and SHIN KBs, and none
    # on GCI KBs
    assert {key for key, n in shared.items() if n} == {
        ("si", 2), ("si", 3), ("shin", 2), ("shin", 3)
    }, shared


def test_shared_probes_match_fresh_checks_on_degree_queries(budgets_used, monkeypatch):
    """Over the first block of the benchmark's degree-query workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from workloads import blocks

    for task in next(blocks("degree-query", 1)):
        kb = parse_kb(task.kb_text)
        query, _ = parse_query(task.query_text)
        ineq = Ineq.LE if task.kind == "lub" else Ineq.GE
        assert assert_probes_match_fresh_checks(kb, query, [ineq], budgets_used, 5000)


def test_duality_random():
    rng = random.Random(7)
    for _ in range(25):
        kb = random_alc_kb(rng)
        if not consistency(kb).consistent:
            continue
        c = Name(rng.choice(["A", "B"]))
        ind = kb.abox.individuals()[0]
        assert lub(kb, (ind, Not(c))) == ONE - glb(kb, (ind, c))


def test_duality_random_gci():
    rng = random.Random(3)
    checked = tried = 0
    while tried < 16:
        kb = random_tbox_kb(rng)
        if not kb.tbox.gcis:
            continue
        tried += 1
        c = Name(rng.choice(["A", "B"]))
        ind = kb.abox.individuals()[0]
        try:
            low = glb(kb, (ind, c), budget=3000)
            high = lub(kb, (ind, Not(c)), budget=3000)
        except (InconsistentKB, ResourceLimit):
            continue
        assert high == ONE - low
        checked += 1
    assert checked >= 5


def test_satisfiable():
    assert satisfiable(parse_concept("A and not A"))
    assert not satisfiable(parse_concept("bottom"))
    assert n_satisfiable(parse_concept("A and not A"), F(1, 2))
    assert not n_satisfiable(parse_concept("A and not A"), F(3, 5))
    assert n_satisfiable(parse_concept("A or not A"), F(3, 5))


def test_subsumes_basic():
    a, b = parse_concept("A"), parse_concept("A and B")
    assert subsumes(a, b)  # A and B is subsumed by A
    assert not subsumes(b, a)
    assert subsumes(parse_concept("A or B"), a)
    assert subsumes(parse_concept("top"), a)
    assert subsumes(a, parse_concept("bottom"))


def test_subsumes_preorder():
    # reflexive, and transitive across a chain
    c1 = parse_concept("A and B")
    c2 = parse_concept("A")
    c3 = parse_concept("A or C")
    assert subsumes(c1, c1)
    assert subsumes(c2, c1) and subsumes(c3, c2) and subsumes(c3, c1)


def test_subsumes_uses_rbox():
    kb = parse_kb("trans p.\nsubrole p r.")
    lhs = Forall(Role("r"), Name("C"))
    rhs = Forall(Role("p"), Forall(Role("p"), Name("C")))
    assert subsumes(rhs, lhs, kb)
    assert not subsumes(rhs, lhs)  # fails without the role axioms


def test_subsumes_uses_tbox():
    kb = parse_kb("define C equiv A and B.")
    assert subsumes(parse_concept("A"), parse_concept("C"), kb)


MODEL_KBS = [
    "define C equiv some r.A.\nassert a : C >= 0.6.\nassert a : B >= 0.3.",
    # TBox names that no label bounds: A, and the fresh primitive D_prim
    "define D equiv A.\nassert a : B >= 0.5.",
    "define D subsumed-by some r.A.\nassert a : B >= 0.5.",
]


def test_model_for_consistent_kb():
    """model_for's model satisfies every consistent SI KB with definitions."""
    kbs = [parse_kb(text) for text in MODEL_KBS]
    for kb in kbs:
        assert consistency(kb).consistent
    rng = random.Random(11)
    # inclusions would make the KB GCI, where model_for returns None
    kbs += [kb for kb in (random_tbox_kb(rng) for _ in range(200)) if not kb.tbox.gcis]
    checked = 0
    for kb in kbs:
        res = consistency(kb)
        if res.consistent:
            model = model_for(res)
            assert model is not None and satisfies_kb(model, kb)
            checked += 1
    assert checked >= 40


def test_model_for_reads_no_model_off_a_pairwise_forest():
    """A consistent GCI or f-SHIN verdict has no model that model_for reads
    off its forest, so it returns None; an inconsistent verdict has none at
    all, and it raises."""
    gci = (EXAMPLES / "gci.fkb").read_text()
    shin = "assert a : (<= 1 r) >= 0.8.\nassert (a, b): r >= 0.7.\ndistinct a b."
    for text, mode in ((gci.rsplit("assert", 1)[0], "gci"), (shin, "shin")):
        res = consistency(parse_kb(text))
        assert res.consistent and res.prepared.mode == mode
        assert model_for(res) is None
    res = consistency(parse_kb(gci))
    assert not res.consistent
    with pytest.raises(ValueError, match="inconsistent"):
        model_for(res)


def test_entailment_antitone_in_degree():
    kb = parse_kb(EXAMPLE1)
    q, _ = parse_query("o1 : Arm")
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(4, 5), ONE]
    verdicts = [entails(kb, q, SignedBound(Ineq.GE, n)) for n in grid]
    # once entailment fails at some degree it stays failed above it
    assert verdicts == sorted(verdicts, reverse=True)


# Concepts and triples are shared through a table keyed by ==, under which
# 0.5 equals 1/2, 2.0 equals 2 and 1 equals True; so a bound's degree is a
# Fraction or an int, a triple's degree a Fraction, a count an int and a
# role's inverted a bool, and no call with a stand-in can hand a later
# correct call a wrong-typed concept, role or triple.


def test_a_float_degree_cannot_poison_later_queries():
    kb = parse_kb("assert a : A >= 0.7.")
    with pytest.raises(TypeError):
        entails(kb, ("a", Name("A")), SignedBound(Ineq.GE, 0.5))
    assert entails(kb, ("a", Name("A")), SignedBound(Ineq.GE, F(1, 2)))
    assert type(SignedBound(Ineq.GE, 1).degree) is F and SignedBound(Ineq.GE, 1).degree == ONE


def test_a_float_count_cannot_poison_later_parses():
    for count in (2.0, True, F(2)):
        with pytest.raises(TypeError):
            AtLeast(count, Role("r"))
        with pytest.raises(TypeError):
            AtMost(count, Role("r"))
    held = AtLeast(2, Role("r"))
    kb = parse_kb("assert a : >= 2 r >= 1.")
    assert kb.abox.concept_assertions[0].concept is held
    assert serialize_kb(kb) == "assert a : >= 2 r >= 1.\n"
    assert parse_kb(serialize_kb(kb)) == kb
    assert consistency(kb).consistent


def test_an_int_inverted_cannot_stand_in_for_a_bool():
    held = []
    for inverted in (1, 0, None):
        with pytest.raises(TypeError):
            held.append(Role("r", inverted))
    role = parse_concept("some r-.A").role
    assert role.inverted is True and repr(role) == "Role(name='r', inverted=True)"
    assert Role("r") is inv(role) and Role("r").inverted is False


def test_a_float_triple_degree_cannot_poison_later_checks():
    held = []
    for degree in (0.5, 1, True):
        with pytest.raises(TypeError):
            held.append(Triple(Name("A"), Ineq.GE, degree))
    assert not consistency(parse_kb("assert a : A >= 0.5. assert a : A < 0.5.")).consistent
    assert type(Triple(Name("A"), Ineq.GE, F(1, 2)).bound.degree) is F
