import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import abcompare

SRC = Path(__file__).resolve().parents[1] / "src"


def test_same_tree_twice(capsys):
    """The tree against itself on two workloads: two packages, one block,
    every answer as planted, one summary per workload."""
    start = time.perf_counter()
    args = [str(SRC), str(SRC), "--seed", "1", "--reps", "2", "--blocks", "1"]
    args += ["--workload", "degree-query", "--workload", "abox-chain"]
    assert abcompare.main(args) == 0
    assert time.perf_counter() - start < 5.0
    lines = capsys.readouterr().out.splitlines()
    summaries = [json.loads(line) for line in lines if line.startswith("{")]
    assert [s["workload"] for s in summaries] == ["degree-query", "abox-chain"]
    assert len(lines) == 6 and lines[0].startswith("degree-query rep 0:")
    for summary in summaries:
        assert summary["reps"] == 2 and summary["wrong_or_failed"] == 0
        assert summary["tasks_per_rep"] > 0 and 0 <= summary["wins"] <= 2
        assert summary["old_iqr_frac"] >= 0
    old, new = sys.modules["fshin_old"], sys.modules["fshin_new"]
    assert old.syntax._TABLE is not new.syntax._TABLE and old.syntax.Role is not new.syntax.Role


def test_a_wrong_answer_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(abcompare, "answer", lambda fshin, task: None)
    args = [str(SRC), str(SRC), "--workload", "abox-chain", "--seed", "1", "--reps", "1", "--blocks", "1"]
    assert abcompare.main(args) == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["wrong_or_failed"] == 2 * summary["tasks_per_rep"] > 0
    assert summary["old_iqr_frac"] == 0  # one rep has no spread


def test_call_counts_do_not_depend_on_the_hash_seed():
    """--calls on the tree against itself, in two processes under
    PYTHONHASHSEED 0 and 1: the same counts and shares by file in both, and
    in each the same for both trees, with every answer as planted."""
    start = time.perf_counter()
    script = Path(abcompare.__file__)
    args = [sys.executable, str(script), str(SRC), str(SRC), "--workload", "gci-cycle", "--seed", "1"]
    args += ["--blocks", "1", "--calls"]
    summaries = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:4]] == [
            "gci-cycle old", "gci-cycle new", "  old by file", "  new by file"]
        summaries.append(json.loads(lines[-1]))
    assert time.perf_counter() - start < 5.0
    assert summaries[0] == summaries[1]
    summary = summaries[0]
    assert summary["python_calls"]["old"] == summary["python_calls"]["new"] > 0
    assert summary["c_calls"]["old"] == summary["c_calls"]["new"] > 0
    assert summary["moved"] == [] and summary["python_saved_frac"] == 0
    shares = summary["python_share_by_file"]
    assert shares["old"] == shares["new"] and next(iter(shares["old"])) == "tableau.py"
    assert summary["wrong_or_failed"] == 0


def test_file_shares():
    """Each file's share of the Python calls, largest first; C calls are
    left out, and a Python function's file is its name's part before the
    first colon."""
    counts = Counter({"tableau.py:Forest.blocking": 6, "kb.py:_rungs": 1, "tableau.py:expand": 2,
                      "<frozen abc>:ABCMeta.__instancecheck__": 1, "C isinstance": 40})
    shares = abcompare.file_shares(counts, 10)
    assert list(shares.items()) == [("tableau.py", 0.8), ("kb.py", 0.1), ("<frozen abc>", 0.1)]


def test_calls_and_reps_exclude_each_other(capsys):
    args = [str(SRC), str(SRC), "--workload", "abox-chain", "--seed", "1", "--blocks", "1"]
    for extra in ([], ["--reps", "1", "--calls"]):
        with pytest.raises(SystemExit):
            abcompare.main(args + extra)
    assert "either --reps or --calls" in capsys.readouterr().err


def test_call_counts_do_not_depend_on_the_workloads_before(capsys):
    """--calls with gci-cycle given alone, after degree-query and after
    abox-chain, in one run: three equal counts, since each workload starts
    with no triple an earlier one kept alive.  Without the emptying of
    syntax._KEEP, gci-cycle after abox-chain read 41,113 Python calls
    against 41,401 (one block, seed 5); after degree-query it read the
    same.  It also loads the trees a second
    time in this process, after test_same_tree_twice."""
    start = time.perf_counter()
    args = [str(SRC), str(SRC), "--seed", "5", "--blocks", "1", "--calls"]
    for workload in ("gci-cycle", "degree-query", "gci-cycle", "abox-chain", "gci-cycle"):
        args += ["--workload", workload]
    assert abcompare.main(args) == 0
    assert time.perf_counter() - start < 15.0
    lines = capsys.readouterr().out.splitlines()
    summaries = [json.loads(line) for line in lines if line.startswith("{")]
    gci = [(s["python_calls"], s["c_calls"]) for s in summaries if s["workload"] == "gci-cycle"]
    assert len(gci) == 3 and gci[0] == gci[1] == gci[2]
    assert gci[0][0]["old"] == gci[0][0]["new"] > 0
