"""Golden behaviour of the tableau on a fixed corpus.

For every knowledge base the file golden_traces.json holds the verdict (or
ResourceLimit), the work budget used, the number of trace events, a SHA-256
of the trace and a SHA-256 of the final (or first clashing) forest dump.
Any change to the search (rule order, choice order, budget charges, trace
or dump rendering) shows up here, so an optimisation of the engine must
leave both tests passing without re-recording.  test_golden_verdicts reads
only the verdict (and mode) of each entry, test_golden_traces the budget,
the trace length and both hashes: a change that alters the search on
purpose may re-record those, never the verdicts.

Re-record only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py --record

It writes nothing and exits 1 if any entry's mode or verdict would move,
naming those entries; else it reports how many entries' trace columns
moved and the summed budget_used before and after.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fshin.parser import parse_kb
from fshin.services import prepare
from fshin.tableau import Budget, ResourceLimit, init_forest, solve

from genkb import dense_colouring_kb, random_alc_kb, random_shin_kb
from test_acceptance import BLOCKING, EXAMPLE1, GCI

GOLDEN = Path(__file__).with_name("golden_traces.json")
BUDGET = 20_000
RANDOM_KBS = 40

# KBs for what the random corpora rarely reach: pair-wise blocking over
# cyclic inclusions, SI blocking, merges of named, generated and root
# successors, an undone edge and a run out of budget
EXTRA = {
    "gci-exists": "implies C some r.C.\nassert a : C >= 0.5.\nassert a : some r.C <= 0.25.\n",
    "gci-back": (
        "implies C some r.C.\nimplies some r.C D.\n"
        "assert a : C >= 0.5.\nassert a : D <= 0.25.\n"
    ),
    "gci-forall": (
        "implies C all r.D.\ntrans r.\n"
        "assert (a, b): r >= 0.5.\nassert (b, c): r >= 0.75.\n"
        "assert a : C >= 0.5.\nassert c : D < 0.5.\n"
    ),
    "merge-named": (
        "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\n"
        "assert a : <= 1 s >= 0.8.\nassert b : A >= 0.5.\nassert c : A < 0.25.\n"
    ),
    "merge-generated": (
        "assert a : >= 2 s >= 0.8.\nassert a : some s.A >= 0.7.\n"
        "assert a : <= 2 s >= 0.6.\nassert a : all s.B >= 0.5.\n"
    ),
    "merge-roots": (
        "assert (a,b): s >= 0.9.\nassert (a,c): s >= 0.9.\nassert (a,d): s >= 0.7.\n"
        "assert a : <= 1 s >= 0.8.\ndistinct b c.\nassert d : some s-.A >= 0.6.\n"
    ),
    "merge-inverse": (
        "assert (b,a): s- >= 0.9.\nassert a : some s.B >= 0.6.\n"
        "assert a : <= 1 s >= 0.5.\nassert a : all s.(not B or A) >= 0.75.\n"
        "assert b : A < 0.5.\n"
    ),
    "si-chain": (
        "trans r.\nassert a : some r.(some r.A) >= 0.6.\n"
        "assert a : all r.(some r.A) >= 0.6.\n"
    ),
    "gci-cycle": (
        "implies C some r.C.\nimplies C all r.D.\n"
        "assert a : C >= 0.25.\nassert a : D <= 1.\n"
    ),
    # f-SI blocking passes the random corpora lack.  In the first, one pass
    # unblocks node 1 and blocks node 2: node 2's inverse universal grows
    # the root's label, which node 1 matched.  In the second, node 15's
    # blocker moves from node 3 to node 12.
    "si-older-unblock": (
        "trans r.\nassert a : A and B >= 0.6.\nassert a : some r.(A and B) >= 0.6.\n"
        "assert a : some r.(all r-.A) >= 0.6.\nassert a : all r.(A and B) >= 0.6.\n"
        "assert a : all r.(some r.(A and B)) >= 0.6.\n"
        "assert a : all r.(some r.(all r-.A)) >= 0.6.\n"
    ),
    "si-new-blocker": (
        "trans r.\nassert a : some r.(all r.(all r-.B)) >= 0.6.\n"
        "assert a : all r.(some r.(some r.B)) >= 0.6.\nassert a : all r.(some r.(all r.B)) >= 0.6.\n"
    ),
    # the first alternative of the split at a generates node 1, whose edge
    # the undo after its clash deletes
    "undo-edge": "assert a : (some r.A) or B >= 0.6.\nassert a : all r.(not A) >= 0.6.\n",
    # node 1 generates node 2, which node 1 blocks, before its split adds B
    # and a blocks it: the split scan then meets node 2 indirectly blocked
    "si-indirect-split": (
        "trans r.\nassert a : A >= 0.6.\nassert a : B >= 0.6.\nassert a : B or C >= 0.6.\n"
        "assert a : some r.A >= 0.6.\nassert a : all r.(some r.A) >= 0.6.\n"
        "assert a : all r.(B or C) >= 0.6.\n"
    ),
    # node 4, node 1's s-successor, and node 1, a's r-successor, match in
    # their labels and their parents' but not in their edges: pair-wise
    # blocking must compare the edges
    "gci-two-roles": "implies C (some r.C) and (some s.C).\nassert a : C >= 0.5.\n",
    # an add that wakes a node older than the one whose rules made it: the
    # deterministic rules must start again from that node, not carry on at
    # the younger one (the smallest differential KBs that show it)
    "propagate-back-split": (
        "trans r.\nassert a : (some r.B or not A) >= 0.75.\n"
        "assert (b,a) : r >= 0.75.\nassert (b,b) : r < 0.5.\n"
    ),
    "propagate-back-inverse": (
        "trans r.\nassert c : some r-.(all r.(B and top)) > 0.75.\n"
        "assert a : B < 0.25.\nassert (b,a) : r >= 0.25.\n"
    ),
    "propagate-back-budget": (
        "trans r.\nassert b : all r.A >= 0.5.\nassert a : some r.B > 0.75.\n"
        "assert (b,a) : r >= 0.5.\nassert (a,b) : r- <= 0.\n"
    ),
    # a chain of 5,000 individuals with no choice point, which every search
    # completes with 24,998 budget units, so it runs out of BUDGET
    "chain-out-of-budget": (
        "trans r.\n" + "".join(f"assert (a{i}, a{i + 1}): r >= 0.6.\n" for i in range(4999))
        + "assert a0 : all r.A >= 0.6.\n"
    ),
}


# the shapes of the benchmark workloads, rebuilt here from fixed seeds

CHAIN_SIZES = (10, 30, 60)


def chain_text(rng: random.Random, n: int, planted: bool) -> str:
    """A chain a0 -> ... -> a(n-1) over transitive r and its subrole s, with
    `all r.A` at the head, `some r-.(not A)` at the tail and `<= 1 s` in
    the middle; planted adds `A < 3/10` at the tail, which the universal
    contradicts along the chain."""

    def grid(lo: int) -> Fraction:
        return Fraction(rng.randint(lo, 20), 20)

    lines = ["trans r.", "subrole s r."]
    for i in range(n - 1):
        lines.append(f"assert (a{i}, a{i + 1}): {rng.choice('rs')} >= {grid(11)}.")
    lines.append(f"assert a0 : all r.A >= {grid(12)}.")
    lines.append(f"assert a{n - 1} : some r-.(not A) >= {grid(11)}.")
    lines.append(f"assert a{n // 2} : <= 1 s >= {grid(1)}.")
    if planted:
        lines.append(f"assert a{n - 1} : A < 3/10.")
    return "\n".join(lines) + "\n"


GCI_AXIOMS = {
    "exists": "implies C some r.C.",
    "forall": "implies C all r.D.",
    "back": "implies some r.C D.",
}


def gci_cells() -> dict[str, str]:
    """Every cell of the cyclic-inclusion workload: `a : C >= p` under a set
    of axioms, alone or with `D <= q` or `some r.C <= q`."""
    quarter, half, one = Fraction(1, 4), Fraction(1, 2), Fraction(1)
    out = {}
    for p, axiom_sets in (
        (half, (("exists",), ("exists", "forall"), ("exists", "back"), ("exists", "forall", "back"))),
        (quarter, (("exists",), ("exists", "forall"))),
    ):
        for axioms in axiom_sets:
            head = "".join(GCI_AXIOMS[ax] + "\n" for ax in axioms) + f"assert a : C >= {p}.\n"
            name = f"cycle-{'+'.join(axioms)}-{p}"
            out[name] = head
            for subject in ("D", "some r.C"):
                for q in (quarter, half, one):
                    if subject == "D" and q < p and "back" not in axioms:
                        continue
                    out[f"{name}-{subject.split()[0]}-{q}"] = head + f"assert a : {subject} <= {q}.\n"
    return out


# the counting clash's clique search past its greedy clique.  n named
# r-successors of a under (<= cap r), pairwise distinct except within n/2
# fixed pairs: the partner-count pruning and the colouring bound settle
# each (the first two consistent, the last not).  Then genkb's
# dense_colouring_kb(n, cap, seed, p), whose searches recurse, one
# consistent and one not.
DENSE_DISTINCT = ((20, 10), (26, 13), (20, 9))
DENSE_COLOURINGS = ((7, 3, 1, 0.5), (9, 4, 2, 0.7))


def dense_distinct_text(n: int, cap: int) -> str:
    lines = [f"assert (a, b{i}): r >= 0.9." for i in range(n)]
    lines += [f"distinct b{i} b{j}." for i, j in itertools.combinations(range(n), 2) if i // 2 != j // 2]
    return "\n".join(lines) + f"\nassert a : <= {cap} r >= 0.9.\n"


def corpus():
    """(name, FuzzyKB) pairs in a fixed order."""
    out = [("EXAMPLE1", parse_kb(EXAMPLE1)), ("BLOCKING", parse_kb(BLOCKING)), ("GCI", parse_kb(GCI))]
    out += [(name, parse_kb(text)) for name, text in EXTRA.items()]
    rng = random.Random(1001)
    out += [(f"alc-{i}", random_alc_kb(rng)) for i in range(RANDOM_KBS)]
    rng = random.Random(1002)
    out += [(f"shin-{i}", random_shin_kb(rng)) for i in range(RANDOM_KBS)]
    rng = random.Random(1003)
    out += [
        (f"chain-{n}" + ("-planted" if planted else ""), parse_kb(chain_text(rng, n, planted)))
        for n in CHAIN_SIZES
        for planted in (False, True)
    ]
    out += [(name, parse_kb(text)) for name, text in gci_cells().items()]
    out += [(f"clique-{n}-{cap}", parse_kb(dense_distinct_text(n, cap))) for n, cap in DENSE_DISTINCT]
    out += [
        (f"colouring-{n}-{cap}", dense_colouring_kb(n, cap, seed, p)) for n, cap, seed, p in DENSE_COLOURINGS
    ]
    return out


def render(x) -> str:
    """str() of a trace element, descending into tuples so that no repr of
    an engine object is part of the text."""
    if isinstance(x, tuple):
        return "(" + ", ".join(render(i) for i in x) + ")"
    return str(x)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(kb) -> dict:
    prepared = prepare(kb)
    budget = Budget(BUDGET)
    f = init_forest(prepared, budget)
    trace = f.trace
    try:
        result = solve(f)
    except ResourceLimit:
        verdict, dump = "ResourceLimit", ""
    else:
        verdict = "consistent" if result.consistent else "inconsistent"
        final = result.forest if result.consistent else result.first_clash_forest
        dump = final.dump() if final is not None else ""
    return {
        "mode": prepared.mode,
        "verdict": verdict,
        "budget_used": budget.used,
        "trace_events": len(trace),
        "trace_sha256": sha("\n".join(render(ev) for ev in trace)),
        "dump_sha256": sha(dump),
    }


@pytest.fixture(scope="module")
def observed():
    """(golden record, observation) for the whole corpus, run once."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = {name: observe(kb) for name, kb in corpus()}
    assert list(seen) == list(golden)
    return golden, seen


VERDICT_COLUMNS = ("mode", "verdict")


def test_golden_verdicts(observed):
    """The verdict column, and the mode it was reached in, which no change
    to the search may move."""
    golden, seen = observed
    for name, expected in golden.items():
        for column in VERDICT_COLUMNS:
            assert seen[name][column] == expected[column], (name, column)


TRACE_COLUMNS = ("budget_used", "trace_events", "trace_sha256", "dump_sha256")


def test_golden_traces(observed):
    """The budget, trace length and hash columns, which only a change that
    alters the search on purpose may re-record."""
    golden, seen = observed
    for name, expected in golden.items():
        for column in TRACE_COLUMNS:
            assert seen[name][column] == expected[column], (name, column)


def test_traces_hold_under_hash_seed_0():
    """test_golden_traces again, in a fresh interpreter with
    PYTHONHASHSEED=0.  The run that calls this one has a random hash seed, so
    two seeds are covered: no trace may follow the order of a set or dict of
    hashed values."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += [__file__, "-k", "test_golden_traces"]
    run = subprocess.run(argv, cwd=GOLDEN.parent.parent, env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed, " in run.stdout


def record() -> int:
    """Re-record the trace columns under the golden policy: write nothing
    and return 1 if any entry's mode or verdict would move, naming those
    entries; else write the file and report what moved."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = {name: observe(kb) for name, kb in corpus()}
    moved = [
        name for name, new in seen.items()
        if name in golden and any(new[c] != golden[name][c] for c in VERDICT_COLUMNS)
    ]
    if moved:
        print(f"not recorded: mode or verdict moved in {', '.join(moved)}", file=sys.stderr)
        return 1
    retraced = [
        name for name, new in seen.items()
        if name not in golden or any(new[c] != golden[name][c] for c in TRACE_COLUMNS)
    ]
    before = sum(entry["budget_used"] for entry in golden.values())
    after = sum(entry["budget_used"] for entry in seen.values())
    GOLDEN.write_text(json.dumps(seen, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(seen)} knowledge bases in {GOLDEN}")
    print(f"trace columns moved in {len(retraced)} entries; summed budget_used {before} -> {after}")
    return 0


def test_record_keeps_the_verdicts(tmp_path, monkeypatch, capsys):
    """--record writes nothing when a mode or verdict would move, and names
    the entry; else it writes the observations and reports how many
    entries' trace columns moved."""
    module = sys.modules[__name__]
    small = corpus()[:3]
    seen = {name: observe(kb) for name, kb in small}
    monkeypatch.setattr(module, "corpus", lambda: small)
    monkeypatch.setattr(module, "GOLDEN", tmp_path / "golden.json")
    stale = json.loads(json.dumps(seen))
    stale["BLOCKING"]["budget_used"] += 1
    stale["GCI"]["trace_sha256"] = ""
    for verdict, code in (("ResourceLimit", 1), (seen["GCI"]["verdict"], 0)):
        stale["GCI"]["verdict"] = verdict
        module.GOLDEN.write_text(json.dumps(stale), encoding="utf-8")
        assert record() == code
        out, err = capsys.readouterr()
        written = json.loads(module.GOLDEN.read_text(encoding="utf-8"))
        if code:
            assert written == stale and "GCI" in err and out == ""
        else:
            assert written == seen and "trace columns moved in 2 entries" in out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    raise SystemExit(record())
