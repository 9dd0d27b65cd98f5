import contextlib
import io
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fshin
from fshin import oracle, services
from fshin.cli import main
from fshin.oracle import BudgetExceeded, search_model
from fshin.parser import parse_degree, parse_kb
from fshin.services import consistency
from fshin.tableau import Clash

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def ex(name):
    return os.path.join(EXAMPLES, name)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_consistent(capsys):
    code, out, _ = run(["check", ex("example1.fkb")], capsys)
    assert code == 0 and out == "consistent\n"


def test_check_inconsistent(capsys):
    code, out, _ = run(["check", ex("blocking.fkb")], capsys)
    assert code == 1 and out == "inconsistent\n"


def test_check_empty(capsys):
    code, out, _ = run(["check", ex("empty.fkb")], capsys)
    assert code == 0 and out == "consistent\n"


def test_entail(capsys):
    q = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) >= 0.75"
    code, out, _ = run(["entail", ex("example1.fkb"), "--assert", q], capsys)
    assert code == 0 and out == "entailed\n"
    q = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm) > 0.8"
    code, out, _ = run(["entail", ex("example1.fkb"), "--assert", q], capsys)
    assert code == 1 and out == "not-entailed\n"


def test_glb_prints_decimal(capsys):
    q = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)"
    code, out, _ = run(["glb", ex("example1.fkb"), "--assert", q], capsys)
    assert code == 0 and out == "0.75\n"


def test_lub(capsys):
    code, out, _ = run(["lub", ex("example1.fkb"), "--assert", "o1 : not Arm"], capsys)
    assert code == 0 and out == "0.25\n"


def test_sat(capsys):
    code, out, _ = run(["sat", "--concept", "A and not A", "--degree", "0.5"], capsys)
    assert code == 0 and out == "satisfiable\n"
    code, out, _ = run(["sat", "--concept", "A and not A", "--degree", "0.7"], capsys)
    assert code == 1 and out == "unsatisfiable\n"


def test_subsumes(capsys):
    code, out, _ = run(["subsumes", "--sub", "A and B", "--super", "A"], capsys)
    assert code == 0 and out == "subsumed\n"
    code, out, _ = run(["subsumes", "--sub", "A", "--super", "A and B"], capsys)
    assert code == 1 and out == "not-subsumed\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["sat", "--concept", "A and not A"], 0, "satisfiable\n", ""),
        (["sat", "--concept", "bottom"], 1, "unsatisfiable\n", ""),
        (["glb", ex("blocking.fkb"), "--assert", "a : A"], 1, "inconsistent-kb\n", ""),
        (["lub", ex("blocking.fkb"), "--assert", "a : A"], 1, "inconsistent-kb\n", ""),
        (["entail", ex("example1.fkb"), "--assert", "o1 : Arm"], 2, "",
         "error: entail requires a bounded assertion, e.g. '... >= 0.5'\n"),
        (["glb", ex("example1.fkb"), "--assert", "o1 : Arm >= 0.5"], 2, "",
         "error: glb takes an unbounded assertion, e.g. 'a : C'\n"),
    ],
)
def test_command_paths(capsys, argv, code, out, err):
    """sat without a degree, glb and lub over an inconsistent KB, and a
    query bound where the command needs one or refuses one."""
    assert run(argv, capsys) == (code, out, err)


def test_dump_forest(capsys, tmp_path):
    code, out, _ = run(["dump-forest", ex("example1.fkb")], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("node 0 root {")
    target = tmp_path / "forest.txt"
    code, out2, _ = run(["dump-forest", ex("example1.fkb"), "--out", str(target)], capsys)
    assert target.read_text() == out


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.fkb"
    bad.write_text("assert a : A >= 1.5.\n")
    code, out, err = run(["check", str(bad)], capsys)
    assert code == 2 and "1:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "no-such-file.fkb"],
        ["check", "{tmp}"],
        ["check", "{tmp}/utf16.fkb"],
        ["dump-forest", ex("example1.fkb"), "--out", "{tmp}"],
    ],
    ids=["missing", "directory", "not-utf8", "out-directory"],
)
def test_missing_file_exit_2(argv, capsys, tmp_path):
    """A file that cannot be read or written is a usage error, not a
    traceback or the "no" exit code."""
    (tmp_path / "utf16.fkb").write_bytes(b"\xff\xfe\x00")
    code, _, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 2 and err.startswith("error:")


def test_individual_distinct_from_itself_is_inconsistent(capsys, tmp_path):
    # the second KB's self-distinct b (node 1) is reported ahead of the
    # bottom clash at a (node 0)
    for text, x in (
        ("distinct a a.\n", 0),
        ("distinct b b. distinct a b. assert a : bottom >= 1.\n", 1),
    ):
        path = tmp_path / "self.fkb"
        path.write_text(text)
        code, out, _ = run(["check", str(path)], capsys)
        assert code == 1 and out == "inconsistent\n"
        kb = parse_kb(text)
        trace = consistency(kb).trace
        assert [ev[1] for ev in trace if ev[0] == "clash"] == [Clash("distinct-self", x, ())]
        assert search_model(kb, max_domain=2) is None


def test_mode_option_is_gone(capsys):
    """The KB's constructors pick the fragment; there is no --mode."""
    code, _, err = run(["check", ex("gci.fkb"), "--mode", "si"], capsys)
    assert code == 2 and "unrecognized arguments: --mode" in err


def test_budget_exit_3(capsys, tmp_path):
    f = tmp_path / "deep.fkb"
    f.write_text(
        "trans r.\n"
        "assert a : some r.(some r.A) >= 0.6.\n"
        "assert a : all r.(some r.A) >= 0.6.\n"
    )
    code, _, err = run(["check", str(f), "--budget-nodes", "5"], capsys)
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("budget", ["-1", "x"])
def test_negative_budget_is_a_usage_error(budget, capsys):
    code, out, err = run(["check", ex("example1.fkb"), "--budget-nodes", budget], capsys)
    assert code == 2 and out == ""
    assert f"argument --budget-nodes: expected an integer >= 0, found '{budget}'" in err


def test_zero_budget_runs_out_at_once(capsys):
    code, out, err = run(["check", ex("example1.fkb"), "--budget-nodes", "0"], capsys)
    assert (code, out, err) == (3, "", "error: node budget exceeded\n")


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(["check", ex("example1.fkb"), "--quiet"], capsys)
    assert code == 0 and out == ""


def test_oracle_flag(capsys):
    code, out, _ = run(["check", ex("example1.fkb"), "--oracle"], capsys)
    assert code == 0 and out == "consistent\n"


def test_oracle_flag_on_inconsistent_kb(capsys):
    code, out, _ = run(["check", ex("gci.fkb"), "--oracle"], capsys)
    assert code == 1 and out == "inconsistent\n"


def test_oracle_flag_rechecks_the_model(monkeypatch, capsys):
    """A consistent f-SI verdict's model must satisfy the KB: one wrong
    degree in it fails the cross-check, with exit code 4 and no verdict."""
    real = services.model_for

    def wrong(result):
        model = real(result)
        o1, o2 = model.individual_map["o1"], model.individual_map["o2"]
        model.role_map[("isPartOf", o1, o2)] = Fraction(7, 10)
        return model

    monkeypatch.setattr(services, "model_for", wrong)
    code, out, err = run(["check", ex("example1.fkb"), "--oracle"], capsys)
    assert code == 4 and out == ""
    assert err == (
        "error: oracle cross-check failed: the model read off a consistent "
        "verdict does not satisfy the KB\n"
    )


def found_a_model(kb, **_):
    return object()


def out_of_budget(kb, **_):
    raise BudgetExceeded("model search budget exceeded")


@pytest.mark.parametrize(
    "search, kb, code, out, err",
    [
        # a model found for a KB judged inconsistent fails the cross-check
        (found_a_model, "blocking.fkb", 4, "",
         "error: oracle cross-check failed: oracle found a model for a KB judged inconsistent\n"),
        (found_a_model, "example1.fkb", 0, "consistent\n", ""),
        # a search that runs out of budget settles nothing: the verdict stands
        (out_of_budget, "blocking.fkb", 1, "inconsistent\n", ""),
        (out_of_budget, "example1.fkb", 0, "consistent\n", ""),
    ],
)
def test_oracle_flag_model_search_outcomes(monkeypatch, capsys, search, kb, code, out, err):
    monkeypatch.setattr(oracle, "search_model", search)
    assert run(["check", ex(kb), "--oracle"], capsys) == (code, out, err)


def test_oracle_flag_searches_only_for_an_inconsistent_verdict(monkeypatch, capsys, tmp_path):
    """A found model can only refute an inconsistent verdict, so check
    --oracle never searches for a consistent one (f-SI, f-SHIN, GCI or
    empty) and searches once for an inconsistent one."""
    def refuse(kb, **_):
        raise AssertionError("model search on a consistent verdict")

    monkeypatch.setattr(oracle, "search_model", refuse)
    shin = tmp_path / "shin.fkb"
    shin.write_text("assert a : (<= 1 r) >= 0.8.\nassert (a, b): r >= 0.7.\n")
    gci = tmp_path / "gci.fkb"
    gci.write_text("implies >= 1 R C.\nassert (a, b): R >= 0.6.\n")
    for kb in (ex("example1.fkb"), ex("empty.fkb"), str(shin), str(gci)):
        assert run(["check", kb, "--oracle"], capsys) == (0, "consistent\n", "")
    calls = []
    monkeypatch.setattr(oracle, "search_model", lambda kb, **_: calls.append(kb))
    for name in ("blocking.fkb", "gci.fkb"):
        calls.clear()
        assert run(["check", ex(name), "--oracle"], capsys) == (1, "inconsistent\n", "")
        assert len(calls) == 1


def test_out_of_range_degree_too_long_to_print_exit_2(tmp_path, capsys):
    """A degree whose decimal has more digits than str() of an int prints is
    refused like any other out-of-range degree, without its value."""
    path = tmp_path / "huge.fkb"
    path.write_text(f"assert a : A >= {'9' * 4300}.5.\n")
    assert run(["check", str(path)], capsys) == (2, "", "error: 1:17: degree outside [0,1]\n")


def test_glb_too_long_for_str_of_an_int_is_printed(tmp_path, capsys):
    """A glb whose decimal has more places than int() reads, 1/N for
    N = 2**14000 (N itself has 4,215 digits, so the KB parses), is printed
    as p/q in full, so it can be passed back as a degree."""
    big = 2**14000
    path = tmp_path / "huge.fkb"
    path.write_text(f"assert a : A >= 1/{big}.\n")
    code, out, err = run(["glb", str(path), "--assert", "a : A"], capsys)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    assert parse_degree(out.strip()) == Fraction(1, big)


def test_dump_forest_prints_degrees_too_long_for_str_of_an_int(tmp_path, capsys):
    """The forest's degrees are printed in full where their numerator or
    denominator has more digits than str() of an int prints.  For
    M = 3**8000 and N = 2**13000 (3,817 and 3,914 digits, so the KB parses)
    the forest holds degrees with denominator 2MN (7,731 digits)."""
    m, n = 3**8000, 2**13000
    path = tmp_path / "huge.fkb"
    path.write_text(f"implies C some r.C.\nassert a : C >= 1/{m}.\nassert a : D >= 1/{n}.\n")
    code, out, err = run(["dump-forest", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("node 0 root {") and f"/{Decimal(2 * m * n)}⟩" in out


def test_oracle_flag_only_on_check(capsys):
    """Only check runs the cross-check, so the other commands refuse the
    flag rather than ignore it."""
    q = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)"
    code, out, err = run(["glb", ex("example1.fkb"), "--assert", q, "--oracle"], capsys)
    assert code == 2 and out == "" and "unrecognized arguments: --oracle" in err


def test_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("assert a : A >= 0.5.\n"))
    code, out, _ = run(["check", "-"], capsys)
    assert code == 0 and out == "consistent\n"


def test_leading_byte_order_mark_is_skipped(capsys, monkeypatch, tmp_path):
    """As some editors save UTF-8: a BOM before the KB, in a file or on
    stdin, is skipped; one anywhere else is an unexpected character."""
    path = tmp_path / "bom.fkb"
    path.write_bytes("assert a : A >= 0.5.\n".encode("utf-8-sig"))
    assert run(["check", str(path)], capsys) == (0, "consistent\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeffassert a : A < 0.5.\n"))
    assert run(["check", "-"], capsys) == (0, "consistent\n", "")
    path.write_text("\ufeffassert a : A >= 0.5.\n\ufeff", encoding="utf-8")
    err = "error: 2:1: unexpected character '\\ufeff'\n"
    assert run(["check", str(path)], capsys) == (2, "", err)


def test_output_stable_across_runs():
    # The child must import the same fshin as this process, whether that
    # came from an install, PYTHONPATH or a sys.path entry.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fshin.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "fshin.cli", "check", ex("example1.fkb")]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1] == b"consistent\n"


def test_example_fixtures_match_acceptance_kbs():
    from test_acceptance import BLOCKING, EXAMPLE1, GCI

    for name, text in [("example1", EXAMPLE1), ("blocking", BLOCKING), ("gci", GCI)]:
        with open(ex(name + ".fkb")) as f:
            assert f.read().strip() == text.strip(), name
    assert os.path.getsize(ex("empty.fkb")) == 0


def test_non_simple_number_restriction_exit_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("trans r.\nassert a : >= 2 r >= 0.5.\n"))
    code, out, err = run(["check", "-"], capsys)
    assert code == 2 and out == ""
    assert "non-simple" in err


def test_deep_nesting_exit_2(capsys, monkeypatch):
    import io

    text = "assert a : " + "not " * 3000 + "A >= 0.5.\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(["check", "-"], capsys)
    assert code == 2 and out == ""
    assert err == "error: input nested too deeply\n"
    assert "Traceback" not in err


# longer than Python's default limit of 4300 digits for int() of a string
LONG = "1" * 5000

BAD_KB_DEGREES = {
    "zero-denominator": "assert a : A >= 1/0.\n",
    "long-decimal": f"assert a : A >= 0.{LONG}.\n",
    "long-denominator": f"assert a : A >= 1/{LONG}.\n",
    "long-count": f"assert a : >= {LONG} r >= 0.5.\n",
    "superscript-count": "assert a : >= \u00b2 r >= 0.5.\n",
}


@pytest.mark.parametrize("text", BAD_KB_DEGREES.values(), ids=BAD_KB_DEGREES.keys())
def test_bad_numeral_in_kb_exit_2(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(["check", "-"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: 1:") and err.count("\n") == 1


BAD_SAT_DEGREES = {"word": "abc", "zero-denominator": "1/0", "long": LONG, "above-one": "2"}


@pytest.mark.parametrize("degree", BAD_SAT_DEGREES.values(), ids=BAD_SAT_DEGREES.keys())
def test_bad_sat_degree_exit_2(capsys, degree):
    code, out, err = run(["sat", "--concept", "A", "--degree", degree], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --- fuzzing the command line ---

NUMERALS = ["0", "1", "2", "0.5", "0.25", "3/4", "1/0", "0/0", "7/2", LONG, "0." + LONG]
WORDS = [
    "assert", "implies", "define", "subsumed-by", "equiv", "trans", "subrole",
    "distinct", "top", "bottom", "not", "and", "or", "some", "all",
    "a", "b", "A", "B", "r", "s", "r-", "s-", ":", ".", ",", "(", ")",
    ">=", "<=", ">", "<", "=", "-", "/", "#", "\n",
] + NUMERALS

names = st.sampled_from(["A", "B", "C"])
roles = st.sampled_from(["r", "s", "r-", "s-"])
degrees = st.sampled_from(NUMERALS)
concepts = st.recursive(
    names | st.sampled_from(["top", "bottom"]),
    lambda inner: st.one_of(
        st.builds("not {}".format, inner),
        st.builds("({} and {})".format, inner, inner),
        st.builds("({} or {})".format, inner, inner),
        st.builds("some {}.{}".format, roles, inner),
        st.builds("all {}.{}".format, roles, inner),
        st.builds("({} {} {})".format, st.sampled_from([">=", "<="]), st.integers(0, 3), roles),
        st.builds("{}{}".format, st.sampled_from(["not " * 20, "not not "]), inner),
    ),
    max_leaves=6,
)
cmps = st.sampled_from([">=", ">", "<=", "<", "="])
statements = st.one_of(
    st.builds("assert {} : {} {} {}.".format, st.sampled_from("ab"), concepts, cmps, degrees),
    st.builds("assert ({}, {}): {} {} {}.".format, st.sampled_from("ab"), st.sampled_from("ab"), roles, cmps, degrees),
    st.builds("implies {} {}.".format, concepts, concepts),
    st.builds("define {} {} {}.".format, names, st.sampled_from(["equiv", "subsumed-by"]), concepts),
    st.builds("trans {}.".format, roles),
    st.builds("subrole {} {}.".format, roles, roles),
    st.just("distinct a b."),
    st.just("distinct a a."),
)
kb_texts = st.one_of(
    st.lists(statements, max_size=5).map("\n".join),
    st.lists(st.sampled_from(WORDS), max_size=25).map(" ".join),
    st.text(max_size=60),
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(kb_texts, st.sampled_from(["check", "dump-forest"]))
def test_cli_fuzz_exits_with_a_code(text, command):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-", "--budget-nodes", "2000"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
