import ast
import dataclasses
import itertools
import operator
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

import fshin
from fshin.degrees import (
    HALF,
    INEQ_ORDER,
    Ineq,
    ONE,
    SignedBound,
    ZERO,
    conjugates,
    format_degree,
    neg_lukasiewicz,
    negate,
    reflect,
    to_degree,
)
from fshin.oracle import FuzzyInterpretation, eval_concept
from fshin.syntax import And, Forall, Name, Not, Or, Role

degrees = st.fractions(min_value=0, max_value=1, max_denominator=20)


def test_to_degree_exact():
    assert to_degree("0.75") == Fraction(3, 4)
    assert to_degree("3/4") == Fraction(3, 4)
    assert to_degree(1) == ONE
    assert to_degree(Fraction(1, 3)) == Fraction(1, 3)


def test_format_degree():
    assert format_degree(Fraction(3, 4)) == "0.75"
    assert format_degree(Fraction(1, 3)) == "1/3"
    assert format_degree(ZERO) == "0"
    assert format_degree(ONE) == "1"
    assert format_degree(Fraction(1, 20)) == "0.05"
    # GCI normalization writes <= n - ell, so degrees can be negative
    assert format_degree(Fraction(-1, 4)) == "-0.25"
    assert format_degree(Fraction(1, 8)) == "0.125"
    assert format_degree(Fraction(7, 2)) == "3.5"
    assert format_degree(Fraction(-2)) == "-2"
    assert format_degree(Fraction(-1, 3)) == "-1/3"
    assert format_degree(Fraction(3, 1000)) == "0.003"


def read_degree(text: str) -> Fraction:
    """A rendered degree read back through Decimal, which has no digit
    limit."""
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


def test_format_degree_past_the_int_digit_limit():
    """format_degree renders degrees whose digits pass
    sys.get_int_max_str_digits() exactly, as a decimal, as p/q and as an
    int, and those below it as str() of their digits, as it always did.  A
    decimal with more places than the limit, which the parser could not
    read back, is written p/q."""
    big = 2**14000  # 4,215 digits; 5**14000, the digits of 1/big, has 9,786
    limit = sys.get_int_max_str_digits()
    half = Fraction(2 * big**2 + 1, 2)  # one place after 8,429 digits
    for d in (Fraction(1, big**2), Fraction(-1, 3 * big**2), Fraction(3 * big**2), half):
        text = format_degree(d)
        assert len(text) > limit and read_degree(text) == d
    assert format_degree(half).endswith(".5")
    assert format_degree(Fraction(1, big)) == f"1/{big}"
    assert format_degree(Fraction(1, 2**limit)) == "0." + str(5**limit).rjust(limit, "0")
    assert format_degree(Fraction(1, 2 ** (limit + 1))) == f"1/{2 ** (limit + 1)}"
    assert format_degree(Fraction(1, 2**100)) == "0." + str(5**100).rjust(100, "0")
    assert format_degree(Fraction(-7, 3 * 2**100)) == f"-7/{3 * 2**100}"


@given(degrees)
def test_format_round_trip(d):
    assert to_degree(format_degree(d)) == d


@given(degrees)
def test_complement_involution(d):
    assert neg_lukasiewicz(neg_lukasiewicz(d)) == d


A, B = Name("A"), Name("B")


def interpretation(a, b):
    """Elements 0 and 1, each with A = a and B = b, and r(0, 1) = a."""
    concepts = {(name, e): d for e in (0, 1) for name, d in (("A", a), ("B", b))}
    return FuzzyInterpretation((0, 1), concepts, {("r", 0, 1): a}, {})


@given(degrees, degrees)
def test_de_morgan(a, b):
    i = interpretation(a, b)
    value = eval_concept(i, Not(And(A, B)), 0)
    assert value == eval_concept(i, Or(Not(A), Not(B)), 0)
    assert value == neg_lukasiewicz(min(a, b))


@given(degrees, degrees)
def test_kd_implication_is_material(a, b):
    # the universal's implication r(0, d) -> B(d) is Kleene-Dienes: at
    # d = 1 it is max(1 - a, b), and at d = 0, where r is 0, it is 1
    i = interpretation(a, b)
    assert eval_concept(i, Forall(Role("r"), B), 0) == eval_concept(i, Or(Not(A), B), 0)


@given(degrees)
def test_idempotency(d):
    i = interpretation(d, d)
    assert eval_concept(i, And(A, A), 0) == d
    assert eval_concept(i, Or(A, A), 0) == d


def test_reflect_negate_involutions():
    for k in Ineq:
        assert reflect(reflect(k)) is k
        assert negate(negate(k)) is k
        # negate flips sign, reflect flips sign, but they differ in strictness
        assert reflect(k).positive != k.positive
        assert negate(k).positive != k.positive
        strict = {Ineq.GT, Ineq.LT}
        assert (reflect(k) in strict) == (k in strict)
        assert (negate(k) in strict) != (k in strict)


def test_ineq_order_total():
    assert sorted(Ineq, key=INEQ_ORDER.__getitem__) == [
        Ineq.GE,
        Ineq.GT,
        Ineq.LE,
        Ineq.LT,
    ]


# the table of the conjugates docstring, compared as Fractions: (positive,
# negative) inequality -> how n (the positive degree) must compare with m
CONJUGATION_TABLE = {
    (Ineq.GE, Ineq.LT): operator.ge,
    (Ineq.GT, Ineq.LT): operator.ge,
    (Ineq.GE, Ineq.LE): operator.gt,
    (Ineq.GT, Ineq.LE): operator.ge,
}

# GCI normalization gives bounds <= n - ell, negative at n = 0, and their
# complements 1 - (n - ell) lie above 1
wide_degrees = st.fractions(min_value=-2, max_value=3, max_denominator=60)


@given(wide_degrees, wide_degrees)
@example(Fraction(-1, 20), Fraction(21, 20))
@example(Fraction(1, 3), Fraction(2, 6))
def test_conjugation_table(n, m):
    for k1, k2 in itertools.product(Ineq, repeat=2):
        b1, b2 = SignedBound(k1, n), SignedBound(k2, m)
        got = conjugates(b1, b2)
        assert got == conjugates(b2, b1)
        if k1.positive == k2.positive:
            assert not got
        else:
            pos, neg = (b1, b2) if k1.positive else (b2, b1)
            assert got == CONJUGATION_TABLE[pos.ineq, neg.ineq](pos.degree, neg.degree)


def test_a_bound_keeps_its_ratio_out_of_repr_eq_and_hash():
    b = SignedBound(Ineq.GE, Fraction(2, 4))
    assert b.ratio == (1, 2) and SignedBound(Ineq.LT, 1).ratio == (1, 1)
    assert repr(b) == "SignedBound(ineq=<Ineq.GE: '>='>, degree=Fraction(1, 2))"
    other = SignedBound(Ineq.GE, HALF)
    object.__setattr__(other, "ratio", (3, 4))
    assert other == b and hash(other) == hash(b)
    moved = dataclasses.replace(b, degree=Fraction(3, 4))
    assert moved.ratio == (3, 4) and moved != b
    assert dataclasses.replace(b, ineq=Ineq.LT).ratio == (1, 2)


def test_ineq_reads_and_hashes_without_python_code():
    """positive and negative are plain attributes, and the hash is
    object's, so the rules read and hash an Ineq in C."""
    for k in Ineq:
        assert vars(k)["positive"] is (k.value[0] == ">") is not vars(k)["negative"]
        assert hash(k) == object.__hash__(k) and {k: 1}[k] == 1


def test_conjugation_boundaries():
    ge, gt = SignedBound(Ineq.GE, HALF), SignedBound(Ineq.GT, HALF)
    le, lt = SignedBound(Ineq.LE, HALF), SignedBound(Ineq.LT, HALF)
    assert not conjugates(ge, le)  # x = 1/2 satisfies both
    assert conjugates(ge, lt)
    assert conjugates(gt, le)
    assert conjugates(gt, lt)


def test_package_uses_no_float():
    """Degrees stay Fraction, because conjugation depends on exact
    equality: no module of the package has a float literal or uses the
    name float."""
    found = []
    for path in sorted(Path(fshin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
