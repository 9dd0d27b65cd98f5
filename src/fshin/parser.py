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

Tokens, after any run of whitespace and comments:

    decimal   DIGITS "." DIGITS
    int       DIGITS
    word      "subsumed-by", or a letter or "_" followed by any run of
              str.isalnum characters and "_" (a keyword or a name)
    sym       >=  <=  ⊑  ≡  (  )  :  ,  .  -  >  <  =  /

DIGITS are Unicode decimal digits (str.isdecimal), a letter is as
str.isalpha, and whitespace is as str.isspace.  A ParseError's span gives
the line and column of an offset, where only "\n" starts a new line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .degrees import Degree, Ineq, ONE, SignedBound, ZERO, format_degree
from .kb import FuzzyKB, Query
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
    def at(cls, text: str, offset: int) -> SourceSpan:
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

# \w is str.isalnum or "_", so a word may also start with a numeral such as
# "½"; tokenize refuses those
_TOKEN = re.compile(
    r"""
    (?: \s | \#[^\n]* )*
    (?: (?P<decimal> \d+ \. \d+ )
      | (?P<int> \d+ )
      | (?P<word> subsumed-by | [^\W\d]\w* )
      | (?P<sym> [<>]= | [⊑≡():,.\-<>=/] )
      | (?P<eof> \Z )
      | (?P<bad> . )
    )
    """,
    re.X,
)


class Token(NamedTuple):
    kind: str  # "name", "keyword", "int", "decimal", "sym", "eof"
    text: str
    offset: int


# builds a Token in C; Token(...) would run NamedTuple's __new__ in Python
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, start = m[kind], m.start(kind)
        if kind == "word":
            kind = "keyword" if word in KEYWORDS else "name"
        if kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", SourceSpan.at(text, start))
        toks.append(_new_token(Token, (kind, word, start)))
        if kind == "eof":
            break
    return toks


_CMP = {">=": Ineq.GE, ">": Ineq.GT, "<=": Ineq.LE, "<": Ineq.LT}

# the only numerals that int() and Fraction() refuse once the tokenizer has
# matched them
_NUMERAL_ERROR = "numeral has more digits than sys.get_int_max_str_digits() allows"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.tok = self.toks[0]  # the next token

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.toks[self.pos]
        return tok

    def fail(self, message: str, tok: Optional[Token] = None) -> ParseError:
        """An error at tok, by default the next token."""
        return ParseError(message, SourceSpan.at(self.text, (tok or self.tok).offset))

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tok
        return tok.kind == kind and (text is None or tok.text == text)

    # --- degrees, roles, concepts ---

    def degree(self) -> Degree:
        tok = self.tok
        try:
            if tok.kind == "decimal":
                self.next()
                value = Fraction(tok.text)
            elif tok.kind == "int":
                self.next()
                num, den = self.integer(tok), 1
                if self.at("sym", "/"):
                    self.next()
                    den = self.integer(self.expect("int"))
                value = Fraction(num, den)
            else:
                raise self.fail("expected a degree")
        except ZeroDivisionError:
            raise self.fail("degree has a zero denominator", tok) from None
        except ValueError:
            raise self.fail(_NUMERAL_ERROR, tok) from None
        if not ZERO <= value <= ONE:
            raise self.fail(f"degree {format_degree(value)} outside [0,1]", tok)
        return value

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:
            raise self.fail(_NUMERAL_ERROR, tok) from None

    def role(self) -> Role:
        name = self.expect("name")
        if self.at("sym", "-"):
            self.next()
            return Role(name.text, inverted=True)
        return Role(name.text)

    def concept(self) -> Concept:
        left = self.conjunction()
        while self.at("keyword", "or"):
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Concept:
        left = self.primary()
        while self.at("keyword", "and"):
            self.next()
            left = And(left, self.primary())
        return left

    def primary(self) -> Concept:
        tok = self.tok
        if tok.kind == "keyword":
            if tok.text == "top":
                self.next()
                return TOP
            if tok.text == "bottom":
                self.next()
                return BOTTOM
            if tok.text == "not":
                self.next()
                return Not(self.primary())
            if tok.text in ("some", "all"):
                self.next()
                role = self.role()
                self.expect("sym", ".")
                body = self.primary()
                return Exists(role, body) if tok.text == "some" else Forall(role, body)
            raise self.fail(f"unexpected keyword {tok.text!r} in concept")
        if tok.kind == "name":
            self.next()
            return Name(tok.text)
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            inner = self.concept()
            self.expect("sym", ")")
            return inner
        if tok.kind == "sym" and tok.text in (">=", "<="):
            self.next()
            count = self.integer(self.expect("int"))
            role = self.role()
            return AtLeast(count, role) if tok.text == ">=" else AtMost(count, role)
        raise self.fail(f"expected a concept, found {tok.text or 'end of input'!r}")

    def bounds(self) -> list[SignedBound]:
        tok = self.tok
        if tok.kind == "sym" and tok.text in _CMP:
            self.next()
            return [SignedBound(_CMP[tok.text], self.degree())]
        if tok.kind == "sym" and tok.text == "=":
            self.next()
            d = self.degree()
            return [SignedBound(Ineq.GE, d), SignedBound(Ineq.LE, d)]
        raise self.fail("expected a comparison (>=, >, <=, <, =)")

    # --- statements ---

    def kb(self) -> FuzzyKB:
        out = FuzzyKB()
        while not self.at("eof"):
            self.statement(out)
            self.expect("sym", ".")
        return out

    def statement(self, out: FuzzyKB) -> None:
        tok = self.tok
        if tok.kind != "keyword":
            raise self.fail(f"expected a statement, found {tok.text or 'end of input'!r}")
        if tok.text == "define":
            self.next()
            name = self.expect("name")
            kind_tok = self.next()
            if (kind_tok.kind, kind_tok.text) in (("keyword", "subsumed-by"), ("sym", "⊑")):
                kind = "sub"
            elif (kind_tok.kind, kind_tok.text) in (("keyword", "equiv"), ("sym", "≡")):
                kind = "equiv"
            else:
                raise self.fail("expected 'subsumed-by' or 'equiv'", kind_tok)
            if name.text in out.tbox.definitions:
                raise self.fail(f"duplicate definition of {name.text!r}", name)
            out.tbox.definitions[name.text] = (kind, self.concept())
        elif tok.text == "implies":
            self.next()
            lhs = self.concept()
            rhs = self.concept()
            out.tbox.gcis.append((lhs, rhs))
        elif tok.text == "trans":
            self.next()
            role = self.role()
            out.rbox.transitive.add(role.name)
        elif tok.text == "subrole":
            self.next()
            sub = self.role()
            sup = self.role()
            out.rbox.inclusions.add((sub, sup))
        elif tok.text == "assert":
            self.next()
            self.assertion(out)
        elif tok.text == "distinct":
            self.next()
            a = self.expect("name")
            b = self.expect("name")
            out.abox.inequalities.add(frozenset((a.text, b.text)))
        else:
            raise self.fail(f"unexpected keyword {tok.text!r}")

    def assertion(self, out: FuzzyKB) -> None:
        subject = self.subject()
        for bound in self.bounds():
            out.abox.add(subject, bound)

    def subject(self, lone: bool = False) -> Query:
        """What an assertion bounds: "(a, b) : r" as (a, b, r) or "a : C" as
        (a, C); with lone, "(a) : C" as well."""
        if not self.at("sym", "("):
            a = self.expect("name").text
        else:
            self.next()
            a = self.expect("name").text
            if not lone or self.at("sym", ","):
                self.expect("sym", ",")
                b = self.expect("name").text
                self.expect("sym", ")")
                self.expect("sym", ":")
                return (a, b, self.role())
            self.expect("sym", ")")
        self.expect("sym", ":")
        return (a, self.concept())


def parse_kb(text: str) -> FuzzyKB:
    return _Parser(text).kb()


def parse_degree(text: str) -> Degree:
    """A degree in [0, 1] written as in a .fkb file: decimal, integer or
    p/q."""
    p = _Parser(text)
    d = p.degree()
    p.expect("eof")
    return d


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    p.expect("eof")
    return c


def parse_query(text: str) -> tuple[Query, Optional[SignedBound]]:
    """Query syntax for the CLI: "a : C [CMP degree]", "(a): C ...", or
    "(a,b): r [CMP degree]".  "=" bounds are not accepted here."""
    p = _Parser(text)
    subject = p.subject(lone=True)
    bound: Optional[SignedBound] = None
    if not p.at("eof"):
        tok = p.tok
        if tok.kind == "sym" and tok.text in _CMP:
            p.next()
            bound = SignedBound(_CMP[tok.text], p.degree())
        else:
            raise p.fail("expected a comparison or end of query")
    p.expect("eof")
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
