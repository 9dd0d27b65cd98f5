"""Smoke test of the benchmark harness.

perfbench/run.py --trace 1 replaces functions of fshin with timing or
counting wrappers, at the module or class attribute their caller looks up
at call time:

- parser.parse_kb and parser.parse_query: run.py reads each task's KB, and
  its query if it has one, through them; they give parser.calls and
  parser.self_s.
- services.consistency, entails, glb and lub: the services a task runs;
  consistency's calls give services.consistency_calls and
  services.probes_per_query, and all four services.self_s.  Each entails
  is one consistency call, so those two count it; the probes of glb and
  lub run on a shared forest (services.Probes) outside GCI mode and call
  no consistency, so they do not count those.
- services.prepare, services.init_forest and services.solve: consistency
  and services.Probes call them through the names services binds; they
  give prepare.calls, prepare.self_s, init.self_s and search.self_s, and
  the wrapper on solve reads each SolveResult (trace, forest,
  first_clash_forest) and the forest's budget for budget.used,
  forest.nodes, trace.events and the event counts (branches, clashes,
  triples added, nodes created, block events).
- tableau.expand and tableau.apply_alternative, which solve calls, and
  tableau.find_clash, which expand calls: expand.self_s, search.self_s,
  clash.calls and clash.self_s.
- Forest.clone, Forest.blocking, Forest.sorted_label and
  Forest.neighbour_bounds: search.clones and search.clone_s, blocking.calls
  and blocking.self_s (expand.iterations counts the blocking calls made
  directly inside expand), and the counters expand.label_sorts and
  expand.neighbour_scans.

So a refactor must keep each of these a module or class attribute of that
name, called through that attribute: a renamed, inlined or locally bound one
is missed by its wrapper, which breaks or silently zeroes the benchmark, not
the engine.  Each workload is run here once for a single traced pass.  The
pass runs in a copy of perfbench/ and src/, since run.py writes its spans
under perfbench/out/ and imports fshin from the src/ beside it."""

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
    "gci-cycle": (2217, 1003, 2184),
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
