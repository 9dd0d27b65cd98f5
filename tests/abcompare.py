"""In-process A/B comparison of two fshin source trees on a perfbench workload.

    python tests/abcompare.py OLD_SRC NEW_SRC --workload W [--workload W2 ...] --seed N --reps R --blocks B
    python tests/abcompare.py OLD_SRC NEW_SRC --workload W [--workload W2 ...] --seed N --blocks B --calls

OLD_SRC and NEW_SRC are directories that hold an `fshin` package (a
checkout's `src/`).  Both packages are loaded into this one process, under
the distinct names fshin_old and fshin_new, so that the two run on the same
interpreter at the same moments.  Each of the R reps runs the first B
blocks of perfbench/workloads.blocks(W, N) through both trees, the order
alternating from rep to rep (old first, then new first), so that a drift
in the host's speed falls on both alike.  A task goes from KB text to
answer as in perfbench/run.py: parse, then one service call under the same
work budget; every answer is checked against the one the generator
planted.

For each workload in turn, it prints one line per rep with each tree's
task time (the sum over the rep's tasks) and the ratio new/old, then one
JSON object with the median ratio (below 1 means NEW is faster), wins, the
number of reps in which NEW was faster, and old_iqr_frac, the
interquartile range of the old tree's rep times over their median (0 for
a single rep): the old tree's own spread, which a difference of medians
must exceed to mean anything.  Exits 1 if any answer is wrong or any task
raises.

With --calls it times nothing and counts calls instead, which do not
depend on the host's speed.  Before each workload, both trees drop the
triples they keep alive (syntax._KEEP) and the role hierarchies they
keep (kb._closed, where the tree has it), and the cyclic collector runs,
so its counts do not depend on the workloads given before it.  Each tree
then makes one warm-up pass over the tasks, which fills the caches of the
shared values, then one pass under sys.setprofile that counts the
Python-level calls (generator resumptions included) and the calls of C
functions.  It prints one line per tree with both counts, then one per
tree with each source file's share of its Python calls, largest first,
then one per tree with its Python calls per layer (LAYERS: a call counts
in the layer of the innermost layer entry it runs under, else in
"other"), then one line for each of the MOVED functions whose counts
differ most between the trees, largest difference first, and one JSON
object with the counts, the share of Python calls NEW saves, the shares
by file, the calls by layer and the moved functions.  A Python function is named by its file's name and
qualified name, a C function by its qualified name.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib.util
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import BLOCKS, Task, blocks  # noqa: E402

TASK_BUDGET = 5_000  # as perfbench/run.py
MOVED = 12  # functions listed per workload by --calls
# layer -> its entry points, (module, function) in the fshin package
LAYERS = {
    "parse": (("parser", "parse_kb"), ("parser", "parse_query")),
    "prepare": (("services", "prepare"),),
    "init": (("tableau", "init_forest"),),
    "solve": (("tableau", "solve"),),
}


def load(src: Path, name: str) -> ModuleType:
    """The fshin package under src, imported as `name`."""
    root = Path(src).resolve() / "fshin"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no fshin package in {src}")
    package = importlib.util.module_from_spec(spec)
    for stale in [key for key in sys.modules if key.startswith(name + ".")]:
        del sys.modules[stale]  # else a second load's package would lack its submodules
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def answer(fshin: ModuleType, task: Task):
    kb = fshin.parser.parse_kb(task.kb_text)
    if task.kind == "consistency":
        return fshin.services.consistency(kb, budget=TASK_BUDGET).consistent
    query, bound = fshin.parser.parse_query(task.query_text)
    if task.kind == "entails":
        return fshin.services.entails(kb, query, bound, budget=TASK_BUDGET)
    return getattr(fshin.services, task.kind)(kb, query, budget=TASK_BUDGET)


def task_time(fshin: ModuleType, tasks: list[Task]) -> tuple[float, int]:
    """(seconds spent on the tasks, number of wrong or failed answers)."""
    total, bad = 0.0, 0
    for task in tasks:
        start = time.perf_counter()
        try:
            got = answer(fshin, task)
        except Exception as e:  # counted as a failed answer; the run goes on
            print(f"{fshin.__name__}: {task.kind} task raised {type(e).__name__}: {e}", file=sys.stderr)
            got = None
        total += time.perf_counter() - start
        bad += got != task.expected
    return total, bad


def compare(trees: dict[str, ModuleType], workload: str, seed: int, reps: int, n_blocks: int) -> dict:
    """Run the reps of one workload, print a line per rep, and return the
    summary."""
    tasks = [t for block in itertools.islice(blocks(workload, seed), n_blocks) for t in block]
    times, bad = {"old": [], "new": []}, 0
    for rep in range(reps):
        for side in ("old", "new") if rep % 2 == 0 else ("new", "old"):
            seconds, wrong = task_time(trees[side], tasks)
            times[side].append(seconds)
            bad += wrong
        old, new = times["old"][-1], times["new"][-1]
        print(f"{workload} rep {rep}: old {old * 1e3:.1f} ms, new {new * 1e3:.1f} ms, ratio {new / old:.3f}")
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    quartiles = statistics.quantiles(times["old"], n=4) if reps > 1 else [0.0, 0.0, 0.0]
    return {
        "workload": workload,
        "seed": seed,
        "reps": reps,
        "tasks_per_rep": len(tasks),
        "median_ratio": round(statistics.median(ratios), 4),
        "wins": sum(r < 1 for r in ratios),
        "old_iqr_frac": round((quartiles[2] - quartiles[0]) / statistics.median(times["old"]), 4),
        "wrong_or_failed": bad,
    }


def call_counts(fshin: ModuleType, tasks: list[Task]) -> tuple[collections.Counter, collections.Counter, int]:
    """(calls per function over one profiled pass, Python calls per layer,
    number of wrong or failed answers).  Keys are "file:qualname" for Python
    functions and "C qualname" for C functions."""
    counts: collections.Counter = collections.Counter()
    by_layer = collections.Counter({layer: 0 for layer in (*LAYERS, "other")})
    entries = {getattr(getattr(fshin, module), name).__code__: layer
               for layer, points in LAYERS.items() for module, name in points}
    inside: list[tuple] = [(None, "other")]  # (frame, layer) of each layer entered

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[f"{Path(code.co_filename).name}:{code.co_qualname}"] += 1
            if code in entries:
                inside.append((frame, entries[code]))
            by_layer[inside[-1][1]] += 1
        elif event == "return":
            if frame is inside[-1][0]:
                inside.pop()
        elif event == "c_call":
            counts[f"C {getattr(arg, '__qualname__', type(arg).__name__)}"] += 1

    sys.setprofile(profile)
    try:
        bad = task_time(fshin, tasks)[1]
    finally:
        sys.setprofile(None)
    return counts, by_layer, bad


def file_shares(counts: collections.Counter, python: int) -> dict[str, float]:
    """Each source file's share of the `python` Python-level calls in
    counts, largest first, rounded to 4 places."""
    by_file: collections.Counter = collections.Counter()
    for name, n in counts.items():
        if not name.startswith("C "):
            by_file[name.split(":")[0]] += n
    return {name: round(n / python, 4) for name, n in by_file.most_common()}


def compare_calls(trees: dict[str, ModuleType], workload: str, seed: int, n_blocks: int) -> dict:
    """Count the calls of one workload in each tree, print them, and return
    the summary."""
    tasks = [t for block in itertools.islice(blocks(workload, seed), n_blocks) for t in block]
    for fshin in trees.values():  # an earlier workload's triples would keep their caches
        fshin.syntax._KEEP.clear()
        if hasattr(fshin.kb, "_closed"):  # and its role hierarchies would stay closed
            fshin.kb._closed.cache_clear()
    gc.collect()
    counts, totals, shares, layers, bad = {}, {}, {}, {}, 0
    for side in ("old", "new"):
        bad += task_time(trees[side], tasks)[1]  # the warm-up pass
        counts[side], layers[side], wrong = call_counts(trees[side], tasks)
        bad += wrong
        python = sum(n for name, n in counts[side].items() if not name.startswith("C "))
        totals[side] = {"python": python, "c": sum(counts[side].values()) - python}
        print(f"{workload} {side}: {totals[side]['python']} Python calls, {totals[side]['c']} C calls")
        shares[side] = file_shares(counts[side], python)
    for side, by_file in shares.items():
        print(f"  {side} by file: " + ", ".join(f"{name} {share:.1%}" for name, share in by_file.items()))
    for side, by_layer in layers.items():
        print(f"  {side} by layer: " + ", ".join(f"{layer} {n}" for layer, n in by_layer.items()))
    names = counts["old"].keys() | counts["new"].keys()
    moved = sorted(names, key=lambda name: (-abs(counts["new"][name] - counts["old"][name]), name))
    moved = [[name, counts["old"][name], counts["new"][name]] for name in moved[:MOVED]]
    for name, old, new in moved:
        if old != new:
            print(f"  {name}: {old} -> {new} ({new - old:+d})")
    old_python = totals["old"]["python"]
    return {
        "workload": workload,
        "seed": seed,
        "tasks": len(tasks),
        "python_calls": {side: totals[side]["python"] for side in totals},
        "c_calls": {side: totals[side]["c"] for side in totals},
        "python_saved_frac": round(1 - totals["new"]["python"] / old_python, 4) if old_python else 0.0,
        "python_share_by_file": shares,
        "python_calls_by_layer": {side: dict(by_layer) for side, by_layer in layers.items()},
        "moved": [entry for entry in moved if entry[1] != entry[2]],
        "wrong_or_failed": bad,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", choices=sorted(BLOCKS), action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, help="timed reps; not taken with --calls")
    parser.add_argument("--blocks", type=int, required=True, help="blocks per rep")
    parser.add_argument("--calls", action="store_true", help="count calls in one profiled pass, time nothing")
    args = parser.parse_args(argv)
    if (args.reps is None) != args.calls:
        parser.error("give either --reps or --calls")
    if args.blocks < 1 or (args.reps is not None and args.reps < 1):
        parser.error("--reps and --blocks must be at least 1")
    trees = {"old": load(args.old_src, "fshin_old"), "new": load(args.new_src, "fshin_new")}
    bad = 0
    for workload in args.workload:
        if args.calls:
            summary = compare_calls(trees, workload, args.seed, args.blocks)
        else:
            summary = compare(trees, workload, args.seed, args.reps, args.blocks)
        print(json.dumps(summary))
        bad += summary["wrong_or_failed"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
