import time
from pathlib import Path

import samesearch

SRC = Path(__file__).resolve().parents[1] / "src"


def test_same_tree_twice(capsys):
    """The tree against itself, on 10 KBs of each differential generator:
    every input observed in both interpreters, and none moved."""
    start = time.perf_counter()
    assert samesearch.main([str(SRC), str(SRC), "--count", "10"]) == 0
    assert time.perf_counter() - start < 15.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("samesearch: 0 of ") and lines[0].endswith(" moved")
    sources = [line.split(":")[0].strip() for line in lines[1:] if not line.startswith("  column")]
    assert sources == ["golden", "alc", "shin", "tbox", "colouring", "transitive", "abox-chain", "gci-cycle"]
    assert "  alc: 0 of 10" in lines and "  column budget_used: 0" in lines


def test_a_move_is_named_and_exits_1(monkeypatch, capsys):
    """A KB whose budget differs in the new tree is counted by source and
    column and named; the exit code is 1 unless moves are expected."""
    rows = [["golden", "g-0", {"verdict": "consistent", "budget_used": 5}],
            ["alc", "alc-0", {"verdict": "inconsistent", "budget_used": 7}]]

    def observe_tree(src, count):
        if src.name == "new":
            return [rows[0], ["alc", "alc-0", {"verdict": "inconsistent", "budget_used": 8}]]
        return rows

    monkeypatch.setattr(samesearch, "observe_tree", observe_tree)
    for extra, code in (([], 1), (["--expect-moves"], 0)):
        assert samesearch.main(["old", "new", *extra]) == code
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "samesearch: 1 of 2 moved", "  golden: 0 of 1", "  alc: 1 of 1",
            "  column verdict: 0", "  column budget_used: 1", "  moved alc-0: budget_used",
        ]
