import json
import sys
import time
from pathlib import Path

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
