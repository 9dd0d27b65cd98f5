"""fshin benchmark: seeded reasoning workloads, timed from outside.

    python3 perfbench/run.py --workload abox-chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fshin is imported from its `src/`.  Each
task goes from KB text to answer (parse, then one service call) in this
single-threaded process, under a fixed work budget, and every answer is
compared with the answer planted by the generator in workloads.py.

--trace 0 runs whole blocks of tasks in a closed loop for about --seconds
(and at least MIN_TASKS tasks) and reports the end-to-end metrics.  The
speed of a shared host drifts in phases of seconds, so every task is
followed by calibration rounds (calibrate.py: fixed pure-Python work that
never calls fshin) and each timing is rescaled to a host on which one
round takes calibrate.REF_S: it is multiplied by REF_S over the median of
the rounds just before and after it.  The ref_* metrics and setup_s are such
reference-speed times; the wall-clock figures are printed as text lines
beside them.
--trace 1 wraps the public functions of each layer, runs the workload's
first block repeatedly with spans recorded, then once untraced, and
reports per-layer totals for one pass over that block; counts must repeat
exactly between passes.  Spans of the first pass are written to
perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give every metric with its unit, including
failed_frac and wrong_answers, which the JSON carries as `failed` and
`correct`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import REF_S, calibration_round
from spans import Tracer
from workloads import BLOCKS, Task, blocks, oracle_samples

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

TASK_BUDGET = 5_000  # work units per consistency check; the largest task uses under 400
MIN_TASKS = 100  # p90 then has at least ten samples above it
SETUP_RUNS = 21
TRACE_SHARE = 0.6  # share of --seconds spent on traced passes
ORACLE_DOMAIN = 2
CAL_ROUNDS = 2  # calibration rounds between two tasks

# prints the import time, then calibration rounds run on the same CPU just
# before and after it; it imports nothing fshin needs before timing it
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
from calibrate import calibration_round
cal = [calibration_round() for _ in range(3)]
t = time.perf_counter()
import fshin
t = time.perf_counter() - t
cal += [calibration_round() for _ in range(3)]
print(t, *cal)
"""


def load_fshin():
    sys.path.insert(0, str(SRC))
    try:
        import fshin
        from fshin import oracle, parser, services, tableau
    except ImportError as e:
        raise SystemExit(f"cannot import fshin from {SRC}: {e}")
    if Path(fshin.__file__).resolve().parent != SRC / "fshin":
        raise SystemExit(f"fshin was imported from {fshin.__file__}, not from {SRC}")
    return oracle, parser, services, tableau


oracle, parser, services, tableau = load_fshin()


def calibration_rounds() -> list[float]:
    return [calibration_round() for _ in range(CAL_ROUNDS)]


def at_reference_speed(times: list[float], cal: list[list[float]]) -> list[float]:
    """times[i] rescaled by REF_S over the median of the calibration rounds
    next to it: cal[i] ran just before times[i], cal[i + 1] just after.
    The host's speed changes within a second, so wider windows track it
    worse."""
    return [t * REF_S / statistics.median(cal[i] + cal[i + 1]) for i, t in enumerate(times)]


def setup_seconds() -> tuple[float, float]:
    """(at reference speed, wall) median time to import fshin in a fresh
    interpreter.  The first import may compile bytecode, so it is not
    counted."""
    ref, wall = [], []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        t, *cal = map(float, out.stdout.split())
        wall.append(t)
        ref.append(t * REF_S / statistics.median(cal))
    return statistics.median(ref[1:]), statistics.median(wall[1:])


def answer(task: Task):
    # module attributes are looked up at call time, so traced wrappers apply
    kb = parser.parse_kb(task.kb_text)
    if task.kind == "consistency":
        return services.consistency(kb, budget=TASK_BUDGET).consistent
    query, bound = parser.parse_query(task.query_text)
    if task.kind == "entails":
        return services.entails(kb, query, bound, budget=TASK_BUDGET)
    return getattr(services, task.kind)(kb, query, budget=TASK_BUDGET)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors: Counter = Counter()

    def run(self, task: Task) -> None:
        """Run one task; a task that raises (ResourceLimit included) counts
        as failed and the run carries on."""
        self.attempted += 1
        try:
            got = answer(task)
        except Exception as e:
            self.errors[type(e).__name__] += 1
            return
        if got != task.expected:
            self.wrong += 1

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def oracle_mismatches(workload: str, seed: int) -> int:
    """Cross-check the generator's planted answers on small members of the
    family by brute-force model search."""
    bad = 0
    for task in oracle_samples(workload, seed):
        model = oracle.search_model(parser.parse_kb(task.kb_text), max_domain=ORACLE_DOMAIN)
        bad += (model is not None) != task.expected
    return bad


# --- untraced run -------------------------------------------------------------


def latency_metrics(latencies: list[float], prefix: str) -> dict:
    return {
        f"{prefix}tasks_per_s": (len(latencies) / sum(latencies), "tasks/s"),
        f"{prefix}task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        f"{prefix}task_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """(metrics, wall-clock figures printed beside them)."""
    setup, setup_wall = setup_seconds()
    stream = blocks(workload, seed)
    latencies = []
    clock = time.perf_counter
    cal = [calibration_rounds()]
    start = clock()
    # whole blocks only, so every run sees the same cost mix; stop at the
    # block boundary nearest to --seconds
    while True:
        block_start = clock()
        for task in next(stream):
            t0 = clock()
            tally.run(task)
            latencies.append(clock() - t0)
            cal.append(calibration_rounds())
        now = clock()
        if now - start + (now - block_start) / 2 >= seconds and len(latencies) >= MIN_TASKS:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = latency_metrics(at_reference_speed(latencies, cal), "ref_")
    metrics["setup_s"] = (setup, "s")
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    wall = latency_metrics(latencies, "wall_")
    wall["wall_setup_s"] = (setup_wall, "s")
    wall["calibration_round_ms"] = (statistics.median(sum(cal, [])) * 1e3, "ms")
    return metrics, wall


# --- traced run ---------------------------------------------------------------

SERVICES = ("consistency", "entails", "glb", "lub")
SEARCH = ("solve", "apply_alternative", "clone")


class SolveCounts:
    """Machine-independent counters read from each solve's public result:
    trace events by kind, budget used and final forest size."""

    def __init__(self) -> None:
        self.c: Counter = Counter()

    def observe(self, solve):
        def wrapper(f):
            result = solve(f)
            c = self.c
            c["budget.used"] += f.budget.used
            final = result.forest if result.consistent else result.first_clash_forest
            c["forest.nodes"] += len(final.nodes) if final is not None else 0
            c["trace.events"] += len(result.trace)
            branched = False
            for ev in result.trace:
                kind = ev[0]
                if kind == "branch":
                    branched = True
                elif kind == "clash" and branched:
                    c["dead-branch"] += 1
                if kind == "new-nodes":
                    c["new-node"] += len(ev[3])
                elif kind != "add" or ev[1] != "init":
                    c[kind] += 1
            return result

        return wrapper


def install(tracer: Tracer, counts: SolveCounts) -> None:
    """Wrap each layer's public functions at the name their caller uses:
    services binds solve, init_forest and prepare by name, solve calls
    expand and apply_alternative, expand calls find_clash."""
    for name in ("parse_kb", "parse_query"):
        tracer.span(parser, name, name)
    for name in SERVICES + ("prepare", "init_forest", "solve"):
        tracer.span(services, name, name)
    # reading the counters gets a span of its own, so no layer's self time
    # includes it
    tracer.replace(services, "solve", lambda fn: tracer.spanned("observe", counts.observe(fn)))
    for name in ("expand", "apply_alternative", "find_clash"):
        tracer.span(tableau, name, name)
    tracer.span(tableau.Forest, "clone", "clone")
    tracer.span(tableau.Forest, "blocking", "blocking")
    tracer.count(tableau.Forest, "sorted_label", "label_sorts")
    tracer.count(tableau.Forest, "neighbour_bounds", "neighbour_scans")


def pass_totals(tracer: Tracer, counts: SolveCounts) -> tuple[dict, dict]:
    """(counts, seconds) for one traced pass."""
    self_s, calls = tracer.self_times()
    ev = counts.c
    n = {
        "services.consistency_calls": calls["consistency"],
        "prepare.calls": calls["prepare"],
        "parser.calls": calls["parse_kb"] + calls["parse_query"],
        "search.branches": ev["branch"],
        "search.clones": calls["clone"],
        "search.dead_branches": ev["dead-branch"],
        "clash.hits": ev["clash"],
        "expand.iterations": tracer.child_counts("expand", "blocking"),
        "expand.triples_added": ev["add"],
        "expand.nodes_created": ev["new-node"],
        "expand.label_sorts": tracer.counts["label_sorts"],
        "expand.neighbour_scans": tracer.counts["neighbour_scans"],
        "clash.calls": calls["find_clash"],
        "blocking.calls": calls["blocking"],
        "blocking.events": ev["block"] + ev["unblock"],
        "budget.used": ev["budget.used"],
        "forest.nodes": ev["forest.nodes"],
        "trace.events": ev["trace.events"],
    }
    s = {
        "services.self_s": sum(self_s[k] for k in SERVICES),
        "prepare.self_s": self_s["prepare"],
        "parser.self_s": self_s["parse_kb"] + self_s["parse_query"],
        "search.clone_s": self_s["clone"],
        "search.self_s": sum(self_s[k] for k in SEARCH),
        "expand.self_s": self_s["expand"],
        "clash.self_s": self_s["find_clash"],
        "init.self_s": self_s["init_forest"],
        "blocking.self_s": self_s["blocking"],
    }
    return n, s


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, bool]:
    """Per-layer totals for one pass over the first block, and whether the
    counts repeated exactly across passes."""
    block = next(blocks(workload, seed))
    tracer, counts = Tracer(), SolveCounts()
    install(tracer, counts)
    clock = time.perf_counter
    passes: list[tuple[dict, dict]] = []
    walls = []
    first_spans: list = []
    start = clock()
    try:
        while len(passes) < 2 or clock() - start < TRACE_SHARE * seconds:
            tracer.reset()
            counts.c.clear()
            t0 = clock()
            for i, task in enumerate(block):
                tracer.task = i
                tally.run(task)
            walls.append(clock() - t0)
            passes.append(pass_totals(tracer, counts))
            if not first_spans:
                first_spans = list(tracer.spans)
    finally:
        tracer.restore()
    t0 = clock()
    for task in block:
        tally.run(task)
    untraced = clock() - t0

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.jsonl"), first_spans)

    n = dict(passes[0][0])
    repeatable = all(p[0] == n for p in passes)
    tasks, branches = len(block), n["search.branches"]
    dead, hits = n.pop("search.dead_branches"), n.pop("clash.hits")
    m = {k: (v, "count") for k, v in n.items()}
    m.update({k: (statistics.median(p[1][k] for p in passes), "s") for k in passes[0][1]})
    m["services.probes_per_query"] = (n["services.consistency_calls"] / tasks, "ratio")
    m["prepare.calls_per_task"] = (n["prepare.calls"] / tasks, "ratio")
    m["search.dead_branch_frac"] = (dead / branches if branches else 0.0, "ratio")
    m["clash.hit_frac"] = (hits / n["clash.calls"] if n["clash.calls"] else 0.0, "ratio")
    m["trace.overhead_s"] = (statistics.median(walls) - untraced, "s")
    print(f"{workload} seed={seed}: per-layer totals are for one pass over {tasks} tasks; "
          f"{len(passes)} traced passes, counts repeatable = {repeatable}")
    return m, repeatable


# --- main ---------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # the oracle cross-check also warms up the parser before any timing
    mismatches = oracle_mismatches(args.workload, args.seed)
    tally = Tally()
    repeatable = True
    wall: dict = {}
    if args.trace:
        metrics, repeatable = per_layer(args.workload, args.seed, args.seconds, tally)
    else:
        metrics, wall = end_to_end(args.workload, args.seed, args.seconds, tally)

    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    for name, (value, unit) in (metrics | wall).items():
        print(f"{tag} {name} = {value:.6g} {unit}")
    print(f"{tag} failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} tasks; {dict(tally.errors)})")
    print(f"{tag} wrong_answers = {tally.wrong} count")
    print(f"{tag} oracle_mismatches = {mismatches} count")
    if not args.trace:
        print(f"{tag} task latency samples = {tally.attempted}")
    print(json.dumps({
        "correct": tally.wrong == 0 and mismatches == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
