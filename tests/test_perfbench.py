"""Smoke test of the benchmark harness.

perfbench/run.py --trace 1 wraps engine functions by name (Forest.clone,
Forest.blocking, Forest.sorted_label, Forest.neighbour_bounds,
tableau.expand, apply_alternative, find_clash) and reads SolveResult.trace
and first_clash_forest.  A refactor that renames one of them breaks the
benchmark, not the engine, so each workload is run here once for a single
traced pass.  The pass runs in a copy of perfbench/ and src/, since run.py
writes its spans under perfbench/out/ and imports fshin from the src/ beside
it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# budget.used, expand.iterations and trace.events of each traced pass at
# seed 1: a change that means to keep the search must keep these exactly
COUNTS = {
    "abox-chain": (3894, 1529, 1606),
    "gci-cycle": (8505, 3935, 8482),
    "degree-query": (2327, 785, 918),
}


@pytest.mark.parametrize("workload", COUNTS)
def test_traced_pass_answers_correctly(workload, tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    names = ("budget.used", "expand.iterations", "trace.events")
    assert tuple(metrics[name]["value"] for name in names) == COUNTS[workload]
