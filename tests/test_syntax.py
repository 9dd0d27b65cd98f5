import copy
import dataclasses
import gc
import pickle
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from fshin import syntax
from fshin.degrees import HALF, ONE, Ineq, conjugates
from fshin.parser import parse_concept
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
    concept_text,
    inv,
    nnf,
    rebuild,
    subconcepts,
)
from fshin.tableau import Triple

names = st.sampled_from(["A", "B", "C"])
roles = st.builds(Role, st.sampled_from(["r", "s"]), st.booleans())


def concepts(depth=3):
    base = st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(Name, names),
        st.builds(AtLeast, st.integers(0, 3), roles),
        st.builds(AtMost, st.integers(0, 3), roles),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Exists, roles, inner),
            st.builds(Forall, roles, inner),
        ),
        max_leaves=8,
    )


def test_inv_involution():
    r = Role("r")
    assert inv(inv(r)) == r
    assert inv(r).inverted


def _negations_atomic(c):
    for d in subconcepts(c):
        if isinstance(d, Not) and not isinstance(d.arg, Name):
            return False
    return True


@given(concepts())
def test_nnf_pushes_negation_to_names(c):
    assert _negations_atomic(nnf(c))


@given(concepts())
def test_nnf_idempotent(c):
    n = nnf(c)
    assert nnf(n) == n


def test_nnf_number_restrictions():
    r = Role("r")
    assert nnf(Not(AtMost(2, r))) == AtLeast(3, r)
    assert nnf(Not(AtLeast(3, r))) == AtMost(2, r)
    assert nnf(Not(AtLeast(0, r))) is BOTTOM
    assert nnf(Not(TOP)) is BOTTOM
    assert nnf(Not(BOTTOM)) is TOP


def test_nnf_de_morgan():
    a, b = Name("A"), Name("B")
    assert nnf(Not(And(a, b))) == Or(Not(a), Not(b))
    assert nnf(Not(Exists(Role("r"), a))) == Forall(Role("r"), Not(a))


def test_concept_text_examples():
    r = Role("r", inverted=True)
    c = And(Exists(r, Name("A")), Not(Name("B")))
    assert concept_text(c) == "(some r-.A and not B)"
    assert str(AtLeast(2, Role("s"))) == ">= 2 s"


@given(concepts())
def test_subconcepts_contains_self(c):
    assert c in set(subconcepts(c))


def test_deep_chain_hashes_and_compares_without_recursion():
    """Hashing and equality do not recurse into the fields: a 5,000-deep
    chain built in a loop hashes, compares and joins sets and dicts."""
    a = b = Name("A")
    for _ in range(5_000):
        a, b = Not(a), Not(b)
    assert hash(a) == hash(b) and a == b
    assert a in {b} and {b: 1}[a] == 1
    assert a != Not(a) and a not in {a.arg}
    assert a is b


@given(concepts())
def test_every_construction_path_gives_the_shared_instance(c):
    assert rebuild(c, lambda d: d) is c
    assert copy.copy(c) is c and copy.deepcopy(c) is c
    assert pickle.loads(pickle.dumps(c)) is c
    assert nnf(c) is nnf(c)
    for f in dataclasses.fields(c):
        assert dataclasses.replace(c, **{f.name: getattr(c, f.name)}) is c


def test_construction_paths_meet():
    r = Role("r")
    assert Role("r", inverted=True) is Role(name="r", inverted=True) is inv(r)
    assert inv(inv(r)) is r and dataclasses.replace(r, inverted=True) is inv(r)
    c = And(Exists(inv(r), Name("A")), Not(Name("B")))
    assert parse_concept("some r-.A and not B") is c
    assert parse_concept("not (all r-.(not A) or B)") is not c
    assert nnf(parse_concept("not (all r-.(not A) or B)")) is c
    assert dataclasses.replace(c, right=Not(Name("B"))) is c
    assert Exists(role=inv(r), body=Name("A")) is c.left
    assert copy.deepcopy([c, {r: c}]) == [c, {r: c}]
    assert copy.deepcopy([c])[0] is c and pickle.loads(pickle.dumps((r, c))) == (r, c)
    t = Triple(c, Ineq.GE, HALF)
    assert Triple(subject=c, ineq=Ineq.GE, degree=Fraction(1, 2)) is t
    assert Triple(c, Ineq.GE, Fraction(2, 4)) is t is syntax._TABLE[Triple, c, Ineq.GE, 1, 2]()
    assert copy.copy(t) is t and copy.deepcopy({t: [t]}) == {t: [t]}
    assert pickle.loads(pickle.dumps(t)) is t and pickle.loads(pickle.dumps(t.parts)) == t.parts
    assert dataclasses.replace(t, degree=HALF) is t
    assert dataclasses.replace(t, ineq=Ineq.LE) is Triple(c, Ineq.LE, HALF) is not t
    assert t.parts[0] is Triple(c.left, Ineq.GE, HALF) and t != Triple(c, Ineq.GE, ONE)


def test_a_dropped_concept_leaves_the_table(monkeypatch):
    """With the keep-alive emptied, a concept, a role and every triple over
    them leave the table once no one references them, and no dead weak
    reference is left behind."""
    monkeypatch.setattr(syntax, "_KEEP", deque(maxlen=0))
    c = Exists(Role("unseen-role"), Name("unseen-name"))
    key = (Exists, c.role, c.body)
    assert syntax._TABLE[key]() is c
    t = Triple(c, Ineq.LE, HALF)
    assert t.edge.subject is c.role and t.parts[0].subject is c.body
    assert syntax._TABLE[Triple, c, Ineq.LE, 1, 2]() is t
    del c, t
    gc.collect()
    assert key not in syntax._TABLE
    del key
    gc.collect()
    assert not [k for k in syntax._TABLE if isinstance(k, tuple) and {"unseen-name", "unseen-role"} & set(k)]
    assert not [k for k in syntax._TABLE if k[0] is Triple and "unseen" in str(k[1])]
    assert all(ref() is not None for ref in syntax._TABLE.values())


def test_a_dead_reference_leaves_the_table_and_no_other():
    """An instance's entry leaves the table as its reference dies, with no
    collection; a callback that comes late, once the key has been made
    again, leaves the new entry in place."""
    key = (Name, "dying-name")
    a = Name("dying-name")
    ref = syntax._TABLE[key]
    del a
    assert ref() is None and key not in syntax._TABLE
    b = Name("dying-name")
    syntax._drop(ref)
    assert syntax._TABLE[key]() is b


def python_calls(fn) -> set[tuple[str, str]]:
    """(file name, qualified name) of each Python function fn() enters."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((Path(code.co_filename).name, code.co_qualname))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


# what a table hit and conjugates ran in Python before they read the table
# and the degrees in C
SLOW = {
    ("weakref.py", "WeakValueDictionary.get"),
    ("fractions.py", "Fraction.__hash__"),
    ("fractions.py", "Fraction.__eq__"),
    ("enum.py", "Enum.__hash__"),
    ("fractions.py", "Fraction.numerator"),
    ("fractions.py", "Fraction.denominator"),
}


def test_a_table_hit_and_conjugates_run_no_python_dunder():
    """A table hit on a live triple, role or name, and conjugates on two
    cached bounds, enter no Python-level weak dict, Fraction or Enum hash,
    Fraction equality or Fraction property."""
    c = Exists(Role("r"), Name("A"))
    t, u, r, a = Triple(c, Ineq.GE, HALF), Triple(c, Ineq.LT, HALF), Role("r", True), Name("A")
    ge, lt = t.bound, u.bound
    hits = {
        "triple": (lambda: Triple(c, Ineq.GE, HALF) is t, "_new_triple"),
        "role": (lambda: Role("r", True) is r, "_new_role"),
        "name": (lambda: Name("A") is a, "_new_name"),
        "conjugates": (lambda: conjugates(ge, lt), "conjugates"),
    }
    for what, (fn, entry) in hits.items():
        assert fn(), what
        calls = python_calls(fn)
        assert any(name == entry for _, name in calls), (what, calls)
        assert not calls & SLOW, (what, calls & SLOW)
        assert not [call for call in calls if call[0] == "weakref.py"], (what, calls)
