import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fshin.degrees import Ineq, SignedBound
from fshin.kb import ABox, ConceptAssertion, FuzzyKB, RBox, RoleAssertion, TBox
from fshin.parser import (
    _FLAT_TOKEN,
    _Parser,
    ParseError,
    SourceSpan,
    parse_concept,
    parse_degree,
    parse_kb,
    parse_query,
    serialize_kb,
    tokenize,
)
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
)

import parsecorpus
import workloads


def test_role_assertion_example():
    kb = parse_kb("assert (o1,o2):isPartOf >= 0.8.")
    [ra] = kb.abox.role_assertions
    assert ra.subject == "o1" and ra.object == "o2"
    assert ra.role == Role("isPartOf")
    assert ra.bound == SignedBound(Ineq.GE, Fraction(4, 5))


def test_bottom_assertion_parses():
    kb = parse_kb("assert a : bottom > 0.")
    [ca] = kb.abox.concept_assertions
    assert ca.concept is BOTTOM


def test_precedence_and_binds_tighter():
    c = parse_concept("A and B or C")
    assert c == Or(And(Name("A"), Name("B")), Name("C"))
    assert parse_concept("not A and B") == And(Not(Name("A")), Name("B"))


def test_quantifier_body_tight():
    c = parse_concept("some r.A and B")
    assert c == And(Exists(Role("r"), Name("A")), Name("B"))
    c = parse_concept("all r-.(A or B)")
    assert c == Forall(Role("r", inverted=True), Or(Name("A"), Name("B")))


def test_number_restrictions():
    assert parse_concept(">= 2 r") == AtLeast(2, Role("r"))
    assert parse_concept("<= 0 s-") == AtMost(0, Role("s", inverted=True))


def test_equals_expands_to_pair():
    kb = parse_kb("assert a : A = 0.5.")
    bounds = [ca.bound for ca in kb.abox.concept_assertions]
    assert bounds == [
        SignedBound(Ineq.GE, Fraction(1, 2)),
        SignedBound(Ineq.LE, Fraction(1, 2)),
    ]


def test_statements():
    kb = parse_kb(
        """
        define C equiv all r.A.
        define D subsumed-by C.
        implies A B.
        trans r.
        subrole r s.
        distinct a b.
        # comment lines vanish
        assert a : top >= 1.
        """
    )
    assert kb.tbox.definitions["C"] == ("equiv", Forall(Role("r"), Name("A")))
    assert kb.tbox.definitions["D"][0] == "sub"
    assert kb.tbox.gcis == [(Name("A"), Name("B"))]
    assert kb.rbox.transitive == {"r"}
    assert (Role("r"), Role("s")) in kb.rbox.inclusions
    assert frozenset({"a", "b"}) in kb.abox.inequalities


LONG = "1" * 5000
NUMERAL_ERROR = "numeral has more digits than sys.get_int_max_str_digits() allows"
HUGE = "9" * 4300


def test_errors_carry_spans():
    cases = [
        # (text, message, (line, column, offset))
        ("assert a : A >= 1.5.", "degree 1.5 outside [0,1]", (1, 17, 16)),
        ("assert a : A >= 0.5.\nassert b B >= 1.", "expected ':', found 'B'", (2, 10, 30)),
        # end of input after a comment, with and without a newline before it
        ("assert a : A >= 0.5 # c", "expected '.', found 'end of input'", (1, 24, 23)),
        ("assert a : A >= 0.5\n# c", "expected '.', found 'end of input'", (2, 4, 23)),
        ("assert a : A >= 0.5.\n  @ b", "unexpected character '@'", (2, 3, 23)),
        ("assert a : A >= 1/0.", "degree has a zero denominator", (1, 17, 16)),
        # numerals past int()'s default limit of 4300 digits
        (f"assert a : A >= 0.{LONG}.", NUMERAL_ERROR, (1, 17, 16)),
        (f"assert a : >= {LONG} r >= 0.5.", NUMERAL_ERROR, (1, 15, 14)),
        # numerals int() reads, of degrees whose decimal str() cannot print
        (f"assert a : A >= {HUGE}.5.", "degree outside [0,1]", (1, 17, 16)),
        (f"assert a : A >= {HUGE}/2.", "degree outside [0,1]", (1, 17, 16)),
        ("define A subsumed-by B.\ndefine A equiv C.", "duplicate definition of 'A'", (2, 8, 31)),
        ("define A ⊑ B.\ndefine A ≡ C.", "duplicate definition of 'A'", (2, 8, 21)),
        ("define A foo B.", "expected 'subsumed-by' or 'equiv'", (1, 10, 9)),
        ("define A", "expected 'subsumed-by' or 'equiv'", (1, 9, 8)),
        ("define A ≡ ⊑ B.", "expected a concept, found '⊑'", (1, 12, 11)),
        ("define A ⊑ B ≡ C.", "expected '.', found '≡'", (1, 14, 13)),
        # a word may not start with a numeral that is not a decimal digit
        ("assert a : ½x >= 1.", "unexpected character '½'", (1, 12, 11)),
        # bad characters are refused before any parsing, the first one first
        ("a : ½ b @", "unexpected character '½'", (1, 5, 4)),
        ("assert a : A and trans >= 1.", "unexpected keyword 'trans' in concept", (1, 18, 17)),
        ("assert a : ) >= 1.", "expected a concept, found ')'", (1, 12, 11)),
        ("a : A >= 1.", "expected a statement, found 'a'", (1, 1, 0)),
        ("top.", "unexpected keyword 'top'", (1, 1, 0)),
        ("assert a : >= x r >= 1.", "expected 'int', found 'x'", (1, 15, 14)),
        ("assert a : >= 1.5 r >= 1.", "expected 'int', found '1.5'", (1, 15, 14)),
        ("assert a : A >= 1/x.", "expected 'int', found 'x'", (1, 19, 18)),
        ("assert a : A >= x.", "expected a degree", (1, 17, 16)),
        ("assert a : A.", "expected a comparison (>=, >, <=, <, =)", (1, 13, 12)),
        ("assert (a, b) : r- >= 1/3. trans .", "expected 'name', found '.'", (1, 34, 33)),
    ]
    cases = [(parse_kb, *case) for case in cases] + [
        (parse_concept, "A B", "expected 'eof', found 'B'", (1, 3, 2)),
        (parse_concept, "and A", "unexpected keyword 'and' in concept", (1, 1, 0)),
        (parse_degree, "", "expected a degree", (1, 1, 0)),
        (parse_degree, "1/2 x", "expected 'eof', found 'x'", (1, 5, 4)),
        (parse_degree, HUGE + ".5", "degree outside [0,1]", (1, 1, 0)),
        (parse_query, "a : A x", "expected a comparison or end of query", (1, 7, 6)),
        (parse_query, "a : A = 0.5", "expected a comparison or end of query", (1, 7, 6)),
        (parse_query, "a : A >= 0.5 x", "expected 'eof', found 'x'", (1, 14, 13)),
        (parse_query, "(a) : A >= 2", "degree 2 outside [0,1]", (1, 12, 11)),
    ]
    for parse, text, message, where in cases:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.message == message
        assert (e.value.span.line, e.value.span.column, e.value.span.offset) == where
        assert str(e.value) == f"{where[0]}:{where[1]}: {message}"
    with pytest.raises(ParseError):
        parse_concept("and A")
    with pytest.raises(ParseError):
        parse_kb("assert a : A >= 0.5")  # missing final dot


def test_parse_query_forms():
    q, b = parse_query("a : A >= 0.5")
    assert q == ("a", Name("A"))
    assert b == SignedBound(Ineq.GE, Fraction(1, 2))
    q, b = parse_query("(a): A and B")
    assert q == ("a", And(Name("A"), Name("B"))) and b is None
    q, b = parse_query("(a,b): r- < 1/3")
    assert q == ("a", "b", Role("r", inverted=True))
    assert b == SignedBound(Ineq.LT, Fraction(1, 3))


def test_degree_rendering_in_serialization():
    kb = FuzzyKB(abox=ABox(concept_assertions=[
        ConceptAssertion("a", Name("A"), SignedBound(Ineq.GE, Fraction(3, 4))),
        ConceptAssertion("a", Name("A"), SignedBound(Ineq.LE, Fraction(1, 3))),
    ]))
    text = serialize_kb(kb)
    assert "0.75" in text and "1/3" in text
    assert serialize_kb(FuzzyKB()) == ""


# --- round-trip property ---

names = st.sampled_from(["A", "B", "Cname"])
inds = st.sampled_from(["a", "b", "c"])
roles = st.builds(Role, st.sampled_from(["r", "s"]), st.booleans())
degs = st.fractions(min_value=0, max_value=1, max_denominator=16)
bounds = st.builds(SignedBound, st.sampled_from(list(Ineq)), degs)

concepts = st.recursive(
    st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(Name, names),
        st.builds(AtLeast, st.integers(0, 3), roles),
        st.builds(AtMost, st.integers(0, 3), roles),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Exists, roles, inner),
        st.builds(Forall, roles, inner),
    ),
    max_leaves=6,
)


@st.composite
def kbs(draw):
    defs = {}
    for name in draw(st.sets(st.sampled_from(["D1", "D2"]), max_size=2)):
        defs[name] = (draw(st.sampled_from(["sub", "equiv"])), draw(concepts))
    tbox = TBox(definitions=defs, gcis=draw(st.lists(st.tuples(concepts, concepts), max_size=2)))
    rbox = RBox(
        transitive=draw(st.sets(st.sampled_from(["r", "s"]), max_size=2)),
        inclusions=draw(st.sets(st.tuples(roles, roles), max_size=2)),
    )
    abox = ABox(
        concept_assertions=draw(
            st.lists(st.builds(ConceptAssertion, inds, concepts, bounds), max_size=3)
        ),
        role_assertions=draw(
            st.lists(st.builds(RoleAssertion, inds, inds, roles, bounds), max_size=3)
        ),
        inequalities=draw(
            st.sets(
                st.tuples(inds, inds).map(lambda p: frozenset(p)), max_size=2
            )
        ),
    )
    return FuzzyKB(tbox, rbox, abox)


@given(kbs())
def test_round_trip(kb):
    assert parse_kb(serialize_kb(kb)) == kb


def test_round_trip_of_a_degree_past_the_int_digit_limit():
    """1/N for N = 2**14000 (4,215 digits, so the KB parses) has 14,000
    decimal places, more than int() reads, so it is written back as 1/N."""
    text = f"assert a : A >= 1/{2**14000}.\n"
    assert serialize_kb(parse_kb(text)) == text


# --- tokens tile the input ---


def _blank(gap: str, at_end: bool) -> bool:
    """Whether gap holds only whitespace and comments; a comment must end
    at a newline unless the gap runs to the end of the input."""
    lines = gap.split("\n")
    if any(line.partition("#")[0].strip() for line in lines):
        return False
    return at_end or "#" not in lines[-1]


INSERTS = [" ", "\n", "\t", "\u2028", "\x1c", "# note\n", "#", "  # c >= 1.\n"]


@st.composite
def commented_kb_texts(draw):
    text = serialize_kb(draw(kbs()))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(INSERTS)) + text[i:]
    return text


@given(st.one_of(st.text(), commented_kb_texts()))
def test_tokens_tile_the_input(source):
    try:
        toks = tokenize(source)
    except ParseError:
        return
    offsets = [SourceSpan.of_token(source, i).offset for i in range(len(toks))]
    assert toks[-1] == "" and offsets[-1] == len(source)
    end = 0
    for tok, offset in zip(toks, offsets):
        assert offset >= end
        assert tok == source[offset : offset + len(tok)]
        assert _blank(source[end:offset], tok == "")
        end = offset + len(tok)
    assert toks.count("") == 1


# --- pinned parse corpus ---

# parsecorpus.digest(1, 5000), recorded with the parser as it stood before
# the tokenizer was rewritten to string tokens; a parser change must keep
# every result, message and span, so it must keep this digest
CORPUS_DIGEST = ("30264bb6ef7175327eaceabcf13a6cb1bb318e54d1ca60726614fc2849a613bd", 779)


def test_parse_corpus_digest():
    assert parsecorpus.digest(1, 5000) == CORPUS_DIGEST


# --- flat statements ---

# texts a flat token could misread, each with what the parser made of it
# before flat tokens: the (message, (line, column)) of its error, or None
FLAT_TRAPS = [
    # a flat name starts with an ASCII letter or "_": "½" is a bad character
    ("assert a : ½x >= 1.", ("unexpected character '½'", (1, 12))),
    ("assert (a, define) : r >= 1.", ("expected 'name', found 'define'", (1, 12))),
    ("assert (a, b) : subsumed-by >= 1.", ("expected 'name', found 'subsumed-by'", (1, 17))),
    ("asserta : A >= 1.", ("expected a statement, found 'asserta'", (1, 1))),
    # a p/q has an integer numerator, and no digit follows the final "."
    ("assert a : A >= 0.5/2.", ("expected '.', found '/'", (1, 20))),
    ("assert a : A >= 1/2.5.", ("expected 'int', found '2.5'", (1, 19))),
    ("assert a : A >= 1.5", ("degree 1.5 outside [0,1]", (1, 17))),
    ("assert a : A >= 3/2.", ("degree 1.5 outside [0,1]", (1, 17))),
    ("assert a : A >= 1/0.", ("degree has a zero denominator", (1, 17))),
    # a flat token where a name or concept is read
    ("define A equiv assert a : B >= 1. .", ("unexpected keyword 'assert' in concept", (1, 16))),
    ("distinct assert a : B >= 1. .", ("expected 'name', found 'assert'", (1, 10))),
    ("assert a : A >= 1 .", None),
    ("assert a : A >= 3 / 10.", None),
    ("assert a : A = 0.5.", None),
    ("assert (a,b):r - >= 1.", None),
    ("assert a : top >= 1.", None),
    ("assert a : A # c\n >= 1.", None),
    ("assert a : A >= ٣/٤.\nassert (a, b) : r < ٠.٥.", None),
]


def plain_tokens(text: str, scan=None) -> list[str] | None:
    """The plain tokens of text, or None if the scan refuses a character.
    With a scan, they are its tokens, each flat token split again."""
    try:
        if scan is None:
            return tokenize(text)
        toks = tokenize(text, scan)
    except ParseError:
        return None
    return [t for tok in toks for t in (tokenize(tok)[:-1] if len(tok) > 1 and tok[-1] == "." else [tok])]


def test_flat_statements_parse_as_plain_tokens():
    """parse_kb, which reads a flat assertion as one token, makes of each
    text what the plain tokens make of it: the same KB, or the same error
    message and span.  Split into plain tokens, its scan's tokens are the
    plain scan's."""
    plain = lambda text: _Parser(text).kb()  # noqa: E731
    for text, want in FLAT_TRAPS:
        got = parsecorpus.outcome(parse_kb, text)
        assert got == parsecorpus.outcome(plain, text), text
        assert plain_tokens(text, _FLAT_TOKEN) == plain_tokens(text), text
        if want is None:
            assert not got.startswith("error "), text
        else:
            message, (line, column) = want
            with pytest.raises(ParseError) as e:
                parse_kb(text)
            assert (e.value.message, e.value.span.line, e.value.span.column) == (message, line, column)
    for text in parsecorpus.corpus(1, 5000):
        assert parsecorpus.outcome(parse_kb, text) == parsecorpus.outcome(plain, text), text
        assert plain_tokens(text, _FLAT_TOKEN) == plain_tokens(text), text


def test_flat_statements_take_the_flat_path():
    """A tripwire for flat tokens that all fall back to the plain parse:
    the Python-level calls parse_kb makes over the first abox-chain block
    at seed 5 (22 KBs), counted as tests/abcompare.py counts them.  The
    plain parse made 31,547 and the flat one makes 7,396."""
    texts = [task.kb_text for task in next(workloads.blocks("abox-chain", 5))]
    for text in texts:  # fill the shared tables, as a warm-up pass does
        parse_kb(text)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        for text in texts:
            parse_kb(text)
    finally:
        sys.setprofile(None)
    assert 0 < calls < 12_000
