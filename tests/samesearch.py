"""Same-search check of two fshin source trees over many knowledge bases.

    python tests/samesearch.py OLD_SRC NEW_SRC [--count K] [--expect-moves]

OLD_SRC and NEW_SRC are directories that hold an `fshin` package (a
checkout's `src/`).  For each tree in turn, a fresh interpreter with that
tree first on PYTHONPATH runs test_golden.observe, which solves a KB under
the golden budget and records its mode, verdict, budget used, trace length,
trace hash and dump hash, over the same inputs:

- golden: the golden corpus (test_golden.corpus);
- each generator of tests/differential.py: its first K KBs at seed 1313;
- each perfbench workload: the consistency tasks of its first block at
  seed 5 (degree-query has none).

A KB moved when any of those columns differs between the trees.  It prints
the number of KBs that moved out of all, then by source and by column, and
names the first few.  Exits 1 on any move, unless given --expect-moves, as
a change that alters the search on purpose is (see test_golden's policy).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
DIFFERENTIAL_SEED = 1313
WORKLOAD_SEED = 5
NAMED = 5  # moved KBs named in the report


def observe_all(count: int) -> None:
    """Print [source, name, observation] for every input, as one JSON list,
    with the fshin package this interpreter imports."""
    import fshin  # from PYTHONPATH, before differential puts this checkout's src first
    import differential
    import test_golden

    sys.path.insert(0, str(PERFBENCH))
    from workloads import BLOCKS, blocks

    inputs = [("golden", name, kb) for name, kb in test_golden.corpus()]
    for source, generate in differential.GENERATORS.items():
        rng = random.Random(DIFFERENTIAL_SEED)
        inputs += [(source, f"{source}-{i}", generate(rng)[0]) for i in range(count)]
    for workload in BLOCKS:
        tasks = [t for t in next(blocks(workload, WORKLOAD_SEED)) if t.kind == "consistency"]
        inputs += [
            (workload, f"{workload}-{i}", fshin.parser.parse_kb(t.kb_text)) for i, t in enumerate(tasks)
        ]
    rows = [[source, name, test_golden.observe(kb)] for source, name, kb in inputs]
    print(json.dumps({"fshin": str(Path(fshin.__file__).parent.parent), "rows": rows}))


def observe_tree(src: Path, count: int) -> list:
    """observe_all's rows, run in a fresh interpreter on the tree at src."""
    src = src.resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(TESTS)))}
    code = f"import samesearch; samesearch.observe_all({count})"
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=TESTS, capture_output=True, text=True)
    if run.returncode:
        raise SystemExit(f"observing {src} failed:\n{run.stderr}")
    out = json.loads(run.stdout)
    if Path(out["fshin"]).resolve() != src:
        raise SystemExit(f"observing {src} imported the fshin package of {out['fshin']}")
    return out["rows"]


def compare(old: list, new: list) -> dict:
    """The moves between two lists of rows over the same inputs: the total,
    per source and per column, and each moved KB with its columns."""
    if [row[:2] for row in old] != [row[:2] for row in new]:
        raise SystemExit("the two trees observed different inputs")
    by_source: dict[str, list[int]] = {}
    by_column = dict.fromkeys(old[0][2] if old else (), 0)
    moved = []
    for (source, name, a), (_, _, b) in zip(old, new):
        columns = [c for c in a if a[c] != b[c]]
        tally = by_source.setdefault(source, [0, 0])
        tally[1] += 1
        if columns:
            tally[0] += 1
            moved.append([name, columns])
            for c in columns:
                by_column[c] += 1
    return {"moved": len(moved), "kbs": len(old), "by_source": by_source, "by_column": by_column,
            "first": moved[:NAMED]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--count", type=int, default=300, help="KBs per differential generator")
    parser.add_argument("--expect-moves", action="store_true", help="exit 0 even if KBs moved")
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error("--count must be at least 0")
    report = compare(observe_tree(args.old_src, args.count), observe_tree(args.new_src, args.count))
    print(f"samesearch: {report['moved']} of {report['kbs']} moved")
    for source, (moved, kbs) in report["by_source"].items():
        print(f"  {source}: {moved} of {kbs}")
    for column, moved in report["by_column"].items():
        print(f"  column {column}: {moved}")
    for name, columns in report["first"]:
        print(f"  moved {name}: {', '.join(columns)}")
    return 1 if report["moved"] and not args.expect_moves else 0


if __name__ == "__main__":
    sys.exit(main())
