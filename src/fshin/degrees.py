"""Exact degree arithmetic, the Lukasiewicz complement, inequality algebra,
conjugation.

Degrees are exact rationals (fractions.Fraction).  Floating point is never
used: whether two bounds conjugate can hinge on exact equality of degrees
(e.g. ">= n" against "< m" clashes exactly when n >= m), so rounding would
change answers.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Union

Degree = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

DegreeLike = Union[Degree, int, str]


def to_degree(value: DegreeLike) -> Degree:
    """Convert an int, exact-decimal string, or "p/q" string to a Degree."""
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)  # handles "0.75" and "3/4" exactly
    raise TypeError(f"cannot interpret {value!r} as a degree")


def fraction_text(d: Degree) -> str:
    """str(d), with the digits written as str() of a Decimal, which
    sys.get_int_max_str_digits() does not limit as it does str() of an int."""
    text = str(Decimal(d.numerator))
    return text if d.denominator == 1 else f"{text}/{Decimal(d.denominator)}"


def format_degree(d: Degree) -> str:
    """Shortest exact rendering: decimal when terminating in at most
    sys.get_int_max_str_digits() places (so the parser reads it back), else
    p/q as fraction_text writes it.  The digits are str() of a Decimal."""
    # a terminating decimal has max(twos, fives) places
    den, twos, fives = d.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    places = max(twos, fives)
    if den != 1 or d.denominator == 1 or 0 < sys.get_int_max_str_digits() < places:
        return fraction_text(d)
    scaled = d * 10**places
    assert scaled.denominator == 1
    digits = str(Decimal(abs(scaled.numerator))).rjust(places + 1, "0")
    sign = "-" if d < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def neg_lukasiewicz(d: Degree) -> Degree:
    """Lukasiewicz complement: 1 - d, exactly."""
    return ONE - d


class Ineq(enum.Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    def __init__(self, value: str) -> None:
        # plain attributes, not properties: conjugates and the rules read
        # them on every bound they compare
        self.positive = value[0] == ">"
        self.negative = not self.positive

    # members are singletons and == is identity: hash by identity, in C
    __hash__ = object.__hash__

    def holds(self, lhs: Degree, rhs: Degree) -> bool:
        """Whether "lhs <self> rhs" is true."""
        if self is Ineq.GE:
            return lhs >= rhs
        if self is Ineq.GT:
            return lhs > rhs
        if self is Ineq.LE:
            return lhs <= rhs
        return lhs < rhs

    def __str__(self) -> str:
        return self.value


_REFLECT = {Ineq.GE: Ineq.LE, Ineq.LE: Ineq.GE, Ineq.GT: Ineq.LT, Ineq.LT: Ineq.GT}
_NEGATE = {Ineq.GE: Ineq.LT, Ineq.LT: Ineq.GE, Ineq.GT: Ineq.LE, Ineq.LE: Ineq.GT}

# stable sort order for deterministic iteration
INEQ_ORDER = {Ineq.GE: 0, Ineq.GT: 1, Ineq.LE: 2, Ineq.LT: 3}


def reflect(k: Ineq) -> Ineq:
    """>= <-> <=, > <-> <."""
    return _REFLECT[k]


def negate(k: Ineq) -> Ineq:
    """>= <-> <, > <-> <=."""
    return _NEGATE[k]


@dataclass(frozen=True)
class SignedBound:
    """The "|><| n" suffix of a fuzzy assertion or membership triple."""

    ineq: Ineq
    degree: Degree
    ratio: tuple[int, int] = field(init=False, repr=False, compare=False)  # for conjugates

    def __post_init__(self) -> None:
        # the tableau's triples are shared through a table keyed by ==, so
        # a float degree equal to a Fraction would stand in for it
        if not isinstance(self.degree, Fraction):
            if not isinstance(self.degree, int):
                raise TypeError(f"a degree is a Fraction or an int, not {self.degree!r}")
            object.__setattr__(self, "degree", to_degree(self.degree))
        object.__setattr__(self, "ratio", self.degree.as_integer_ratio())

    def __str__(self) -> str:
        return f"{self.ineq} {format_degree(self.degree)}"


def conjugates(b1: SignedBound, b2: SignedBound) -> bool:
    """Whether two bounds on the same subject are jointly unsatisfiable.

    Only a positive and a negative bound can conjugate:
      (>= n, <  m) iff n >= m      (>  n, <  m) iff n >= m
      (>= n, <= m) iff n >  m      (>  n, <= m) iff n >= m
    Symmetric in argument order.

    n = p/q and m = r/s are compared as p * s against r * q, from the
    ratios the bounds hold, which is exact: a Fraction's denominator is
    positive, so multiplying both sides of n >= m by the two denominators
    keeps the order, and integer products never round.  It skips the
    Fraction comparison's own dispatch and reads no Fraction property.
    """
    if b1.ineq.positive == b2.ineq.positive:
        return False
    pos, neg = (b1, b2) if b1.ineq.positive else (b2, b1)
    (p, q), (r, s) = pos.ratio, neg.ratio
    lhs, rhs = p * s, r * q
    if pos.ineq is Ineq.GE and neg.ineq is Ineq.LE:
        return lhs > rhs
    return lhs >= rhs
