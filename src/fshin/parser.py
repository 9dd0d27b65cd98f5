"""Textual KB format (.fkb): tokenizer, parser, and canonical serializer.

Statement forms, each terminated by ".":

    define NAME (subsumed-by|equiv) concept
    implies concept concept          # general inclusion lhs (= rhs
    trans role
    subrole role role
    assert NAME : concept CMP degree
    assert ( NAME , NAME ) : role CMP degree
    distinct NAME NAME

Concepts use keywords top, bottom, not, and, or, some, all and number
restrictions ">= INT role" / "<= INT role"; "and" binds tighter than "or",
quantifier bodies bind tightly (write "some r.(A and B)" for a complex
body).  Roles are NAME or NAME- (inverse).  CMP is >=, >, <=, < or =,
where "=" stores the >=/<= pair.  Degrees are decimals, integers, or p/q
fractions, all read exactly.  Comments run from "#" to end of line.

Tokens are the strings a scan matches after any run of whitespace and
comments, and the end of input is the empty token "".  A token's kind is
read off the string:

    decimal   DIGITS "." DIGITS
    int       DIGITS
    word      "subsumed-by", or a letter or "_" followed by any run of
              str.isalnum characters and "_" (a keyword or a name)
    sym       >=  <=  ⊑  ≡  (  )  :  ,  .  -  >  <  =  /

DIGITS are Unicode decimal digits (str.isdecimal), a letter is as
str.isalpha, and whitespace is as str.isspace.  Offsets are not kept: a
ParseError's span is found by running the scan again up to its token, and
gives the line and column of its offset, where only "\n" starts a line.

parse_kb's scan first tries a flat statement, "assert (a, b) : r[-] CMP
DEGREE ." or "assert a : A CMP DEGREE ." with only whitespace between its
parts, and matches it whole as one token, which no plain token is: longer
than one character and ending in ".".  The parser reads its fields with
one more match.  Any error in that parse, or a flat field that fails a
check (a keyword for a name, a degree that degree() refuses), makes
parse_kb parse the text again with the plain tokens, and that parse gives
every error its message and span.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Optional

from .degrees import Degree, Ineq, SignedBound, format_degree
from .kb import ConceptAssertion, FuzzyKB, Query, RoleAssertion
from .syntax import (
    And,
    AtLeast,
    AtMost,
    BOTTOM,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Role,
    TOP,
    concept_text,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    offset: int

    @classmethod
    def of_token(cls, text: str, index: int) -> SourceSpan:
        """The span of tokenize(text)[index], found by running the same scan
        again: only an error needs it."""
        offset = next(islice(_TOKEN.finditer(text), index, None)).start(1)
        line_start = text.rfind("\n", 0, offset) + 1
        return cls(text.count("\n", 0, offset) + 1, offset - line_start + 1, offset)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(f"{span}: {message}" if span else message)
        self.message = message
        self.span = span


KEYWORDS = {
    "define", "subsumed-by", "equiv", "implies", "trans", "subrole",
    "assert", "distinct", "top", "bottom", "not", "and", "or", "some", "all",
}
_SYMS = {">=", "<=", "⊑", "≡", "(", ")", ":", ",", ".", "-", ">", "<", "=", "/"}

_BLANKS = r"(?: \s | \#[^\n]* )*"
_DECIMAL = r"\d+ \. \d+"
_INT = r"\d+"
# \w is str.isalnum or "_", so a word may start with a numeral such as "½"
# (tokenize refuses those); after blanks, the end is matched twice
_PLAIN = rf"{_DECIMAL} | {_INT} | subsumed-by | [^\W\d]\w* | [<>]= | [⊑≡():,.\-<>=/] | \Z | ."
_TOKEN = re.compile(rf"{_BLANKS} ( {_PLAIN} )", re.X)


def _flat(field: str) -> str:
    """The pattern of a flat assertion, "assert (a, b) : r[-] CMP DEGREE ."
    or "assert a : A CMP DEGREE .", with only whitespace between its parts
    and each field wrapped as field.format(pattern).  Where it matches, the
    plain scan would split the same text into the same tokens: a name
    starts with an ASCII letter or "_", a p/q has an integer numerator, and
    no digit follows the final "."."""
    name = field.format(r"[A-Za-z_]\w*")
    return rf"""
        assert (?: \s* \( \s* {name} \s* , \s* {name} \s* \) \s* : \s* {name} \s* {field.format("-")}?
                 | \s+ {name} \s* : \s* {name} )
        \s* {field.format("[<>]=?|=")} \s*
        (?: {field.format(_DECIMAL)} | {field.format(_INT)} (?: \s* / \s* {field.format(_INT)} )? )
        \s* \. (?!\d)
    """


# parse_kb's scan: a flat assertion is one token
_FLAT_TOKEN = re.compile(rf"{_BLANKS} ( {_flat('(?:{})')} | {_PLAIN} )", re.X)
# a flat token's fields: a, b, role, "-", individual, concept, CMP, decimal, p, q
_FIELDS = re.compile(_flat("({})"), re.X)


def _is_name(tok: str) -> bool:
    """Whether tok is a name: not a keyword, and not a flat token (which
    ends in ".")."""
    return (tok[:1].isalpha() or tok[:1] == "_") and tok not in KEYWORDS and tok[-1] != "."


def _is_bad(tok: str) -> bool:
    c = tok[:1]
    return not (c.isalpha() or c == "_" or c.isdecimal() or tok in _SYMS or not tok)


# a token is bad if and only if its first character is, since a token that
# starts with a symbol's character is a symbol; tokenize tests those
_first = itemgetter(slice(1))


def tokenize(text: str, scan: re.Pattern = _TOKEN) -> list[str]:
    toks = scan.findall(text)
    if len(toks) > 1 and toks[-2] == "":
        del toks[-1]
    if any(map(_is_bad, set(map(_first, toks)))):
        i = next(i for i, tok in enumerate(toks) if _is_bad(tok))
        raise ParseError(f"unexpected character {toks[i][0]!r}", SourceSpan.of_token(text, i))
    return toks


_CMP = {">=": Ineq.GE, ">": Ineq.GT, "<=": Ineq.LE, "<": Ineq.LT}
_DEFINE_KINDS = {"subsumed-by": "sub", "⊑": "sub", "equiv": "equiv", "≡": "equiv"}

# the only numerals that int() and Fraction() refuse once the tokenizer has
# matched them
_NUMERAL_ERROR = "numeral has more digits than sys.get_int_max_str_digits() allows"
# what kb() raises for a flat field that fails a check; parse_kb reads the
# text again, so this message is never shown
_FLAT_REFUSED = "a flat field fails a check"


class _Parser:
    def __init__(self, text: str, scan: re.Pattern = _TOKEN):
        self.text = text
        self.toks = tokenize(text, scan)
        self.pos = 0
        self.tok = self.toks[0]  # the next token
        self.degrees: dict[str, Degree] = {}  # each degree text read so far

    def next(self) -> str:
        tok = self.tok
        if tok:
            self.pos += 1
            self.tok = self.toks[self.pos]
        return tok

    def fail(self, message: str, at: Optional[int] = None) -> ParseError:
        """An error at the token with index at, by default the next one."""
        return ParseError(message, SourceSpan.of_token(self.text, self.pos if at is None else at))

    def expected(self, want: str) -> ParseError:
        return self.fail(f"expected {want!r}, found {self.tok or 'end of input'!r}")

    def expect(self, sym: str) -> None:
        """Consume sym, or the end of input if sym is ""."""
        if self.tok != sym:
            raise self.expected(sym or "eof")
        self.next()

    def name(self) -> str:
        tok = self.tok
        if not _is_name(tok):
            raise self.expected("name")
        self.next()
        return tok

    def integer(self) -> int:
        tok = self.tok
        if not tok.isdecimal():
            raise self.expected("int")
        try:
            value = int(tok)
        except ValueError:
            raise self.fail(_NUMERAL_ERROR) from None
        self.next()
        return value

    # --- degrees, roles, concepts ---

    def degree(self) -> Degree:
        """A decimal, an integer or p/q; each distinct text is read and
        checked once per parse."""
        at, tok, toks = self.pos, self.tok, self.toks
        text = tok + "/" + toks[at + 2] if tok.isdecimal() and toks[at + 1] == "/" else tok
        value = self.degrees.get(text)
        if value is None:
            if tok.isdecimal():
                num = self.integer()
                den = 1
                if self.tok == "/":
                    self.next()
                    den = self.integer()
                if not den:
                    raise self.fail("degree has a zero denominator", at)
                value = Fraction(num, den)
            elif tok[:1].isdecimal():
                try:
                    value = Fraction(tok)
                except ValueError:
                    raise self.fail(_NUMERAL_ERROR) from None
            else:
                raise self.fail("expected a degree")
            if not 0 <= value.numerator <= value.denominator:
                # a degree longer than the longest numeral int() reads is left out
                shown = format_degree(value)
                if len(shown) > sys.get_int_max_str_digits():
                    raise self.fail("degree outside [0,1]", at)
                raise self.fail(f"degree {shown} outside [0,1]", at)
            self.degrees[text] = value
        self.pos = at + (3 if "/" in text else 1)
        self.tok = toks[self.pos]
        return value

    def role(self) -> Role:
        name = self.name()
        if self.tok == "-":
            self.next()
            return Role(name, inverted=True)
        return Role(name)

    def concept(self) -> Concept:
        left = self.conjunction()
        while self.tok == "or":
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Concept:
        left = self.primary()
        while self.tok == "and":
            self.next()
            left = And(left, self.primary())
        return left

    def primary(self) -> Concept:
        tok = self.tok
        if tok in KEYWORDS:
            self.next()
            if tok == "top":
                return TOP
            if tok == "bottom":
                return BOTTOM
            if tok == "not":
                return Not(self.primary())
            if tok == "some" or tok == "all":
                role = self.role()
                self.expect(".")
                body = self.primary()
                return Exists(role, body) if tok == "some" else Forall(role, body)
            raise self.fail(f"unexpected keyword {tok!r} in concept", self.pos - 1)
        if _is_name(tok):
            self.next()
            return Name(tok)
        if tok == "(":
            self.next()
            inner = self.concept()
            self.expect(")")
            return inner
        if tok == ">=" or tok == "<=":
            self.next()
            count = self.integer()
            role = self.role()
            return AtLeast(count, role) if tok == ">=" else AtMost(count, role)
        raise self.fail(f"expected a concept, found {tok or 'end of input'!r}")

    def bounds(self) -> list[SignedBound]:
        tok = self.tok
        if tok in _CMP:
            return [SignedBound(_CMP[self.next()], self.degree())]
        if tok == "=":
            self.next()
            d = self.degree()
            return [SignedBound(Ineq.GE, d), SignedBound(Ineq.LE, d)]
        raise self.fail("expected a comparison (>=, >, <=, <, =)")

    # --- statements ---

    def kb(self) -> FuzzyKB:
        """The statements up to the end of input; a flat token is read off
        its fields, and its degree checked as degree() does."""
        out = FuzzyKB()
        concepts, roles = out.abox.concept_assertions, out.abox.role_assertions
        degrees, bounds_of = self.degrees, {}  # (CMP, degree text) -> its bounds
        while tok := self.tok:
            if tok[-1] != "." or len(tok) == 1:
                self.statement(out)
                self.expect(".")
                continue
            fields = _FIELDS.fullmatch(tok).groups()
            a, b, role, minus, ind, concept, cmp, decimal, p, q = fields
            if not KEYWORDS.isdisjoint(fields):
                raise ParseError(_FLAT_REFUSED)
            text = decimal or (p + "/" + q if q else p)
            bounds = bounds_of.get((cmp, text))
            if bounds is None:
                value = degrees.get(text)
                if value is None:
                    try:
                        value = Fraction(decimal) if decimal else Fraction(int(p), int(q or 1))
                    except (ValueError, ZeroDivisionError):
                        raise ParseError(_FLAT_REFUSED) from None
                    if not 0 <= value.numerator <= value.denominator:
                        raise ParseError(_FLAT_REFUSED)
                    degrees[text] = value
                ineq = _CMP.get(cmp)
                if ineq is not None:
                    bounds = [SignedBound(ineq, value)]
                else:
                    bounds = [SignedBound(Ineq.GE, value), SignedBound(Ineq.LE, value)]
                bounds_of[cmp, text] = bounds
            if role:
                r = Role(role, inverted=True) if minus else Role(role)
                for bound in bounds:
                    roles.append(RoleAssertion(a, b, r, bound))
            else:
                c = Name(concept)
                for bound in bounds:
                    concepts.append(ConceptAssertion(ind, c, bound))
            self.pos += 1
            self.tok = self.toks[self.pos]
        return out

    def statement(self, out: FuzzyKB) -> None:
        tok = self.tok
        if tok not in KEYWORDS:
            raise self.fail(f"expected a statement, found {tok or 'end of input'!r}")
        self.next()
        if tok == "define":
            at = self.pos
            name = self.name()
            kind = _DEFINE_KINDS.get(self.tok)
            if kind is None:
                raise self.fail("expected 'subsumed-by' or 'equiv'")
            self.next()
            if name in out.tbox.definitions:
                raise self.fail(f"duplicate definition of {name!r}", at)
            out.tbox.definitions[name] = (kind, self.concept())
        elif tok == "implies":
            lhs = self.concept()
            rhs = self.concept()
            out.tbox.gcis.append((lhs, rhs))
        elif tok == "trans":
            out.rbox.transitive.add(self.role().name)
        elif tok == "subrole":
            sub = self.role()
            sup = self.role()
            out.rbox.inclusions.add((sub, sup))
        elif tok == "assert":
            self.assertion(out)
        elif tok == "distinct":
            a = self.name()
            b = self.name()
            out.abox.inequalities.add(frozenset((a, b)))
        else:
            raise self.fail(f"unexpected keyword {tok!r}", self.pos - 1)

    def assertion(self, out: FuzzyKB) -> None:
        subject = self.subject()
        for bound in self.bounds():
            out.abox.add(subject, bound)

    def subject(self, lone: bool = False) -> Query:
        """What an assertion bounds: "(a, b) : r" as (a, b, r) or "a : C" as
        (a, C); with lone, "(a) : C" as well."""
        if self.tok != "(":
            a = self.name()
        else:
            self.next()
            a = self.name()
            if not lone or self.tok == ",":
                self.expect(",")
                b = self.name()
                self.expect(")")
                self.expect(":")
                return (a, b, self.role())
            self.expect(")")
        self.expect(":")
        return (a, self.concept())


def parse_kb(text: str) -> FuzzyKB:
    try:
        return _Parser(text, _FLAT_TOKEN).kb()
    except ParseError:
        # the plain tokens give every error its message and span
        return _Parser(text).kb()


def parse_degree(text: str) -> Degree:
    """A degree in [0, 1] written as in a .fkb file: decimal, integer or
    p/q."""
    p = _Parser(text)
    d = p.degree()
    p.expect("")
    return d


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    p.expect("")
    return c


def parse_query(text: str) -> tuple[Query, Optional[SignedBound]]:
    """Query syntax for the CLI: "a : C [CMP degree]", "(a): C ...", or
    "(a,b): r [CMP degree]".  "=" bounds are not accepted here."""
    p = _Parser(text)
    subject = p.subject(lone=True)
    bound: Optional[SignedBound] = None
    if p.tok:
        if p.tok not in _CMP:
            raise p.fail("expected a comparison or end of query")
        bound = SignedBound(_CMP[p.next()], p.degree())
    p.expect("")
    return subject, bound


# --- serialization ---


def serialize_kb(kb: FuzzyKB) -> str:
    lines: list[str] = []
    for name, (kind, body) in kb.tbox.definitions.items():
        word = "subsumed-by" if kind == "sub" else "equiv"
        lines.append(f"define {name} {word} {concept_text(body)}.")
    for lhs, rhs in kb.tbox.gcis:
        lines.append(f"implies {concept_text(lhs)} {concept_text(rhs)}.")
    for name in sorted(kb.rbox.transitive):
        lines.append(f"trans {name}.")
    for sub, sup in sorted(kb.rbox.inclusions, key=lambda p: (str(p[0]), str(p[1]))):
        lines.append(f"subrole {sub} {sup}.")
    for ca in kb.abox.concept_assertions:
        lines.append(
            f"assert {ca.individual} : {concept_text(ca.concept)} "
            f"{ca.bound.ineq} {format_degree(ca.bound.degree)}."
        )
    for ra in kb.abox.role_assertions:
        lines.append(
            f"assert ({ra.subject},{ra.object}) : {ra.role} "
            f"{ra.bound.ineq} {format_degree(ra.bound.degree)}."
        )
    for pair in sorted(kb.abox.inequalities, key=sorted):
        names = sorted(pair)
        a = names[0]
        b = names[-1]
        lines.append(f"distinct {a} {b}.")
    return "\n".join(lines) + ("\n" if lines else "")
