"""Differential check of the tableau's verdicts against the brute-force
oracle and against planted answers.

    python tests/differential.py --seed N --count K --budget B

Draws K knowledge bases from each of five genkb generators (f-ALC, f-SHIN,
TBoxes with and without general inclusions, the colouring family, and role
assertions over a transitive role with negative bounds) and checks each
verdict the tableau gives within budget B.  A mismatch is a
colouring KB's verdict other than its planted one, or any other verdict
that fails services.cross_check, the check that `fshin check --oracle`
runs too: "consistent" where model_for reads a model off the forest (f-SI
verdicts) and that model fails oracle.satisfies_kb, or "inconsistent"
where oracle.search_model finds a model of at most two elements.

It prints one JSON object per generator with the counts agree (answered,
and no check found a fault), mismatch, exhausted (the tableau ran out of
budget) and oracle_exhausted (the model search ran out of its own), then
one with the GCI verdict rate: the share of the KBs in GCI mode that the
tableau answered within the budget.  Exits 1 on any mismatch, printing the
text of each mismatching KB to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fshin.kb import detect_mode  # noqa: E402
from fshin.oracle import BudgetExceeded  # noqa: E402
from fshin.parser import serialize_kb  # noqa: E402
from fshin.services import consistency, cross_check  # noqa: E402
from fshin.tableau import ResourceLimit  # noqa: E402

from genkb import (  # noqa: E402
    random_alc_kb,
    random_colouring_kb,
    random_shin_kb,
    random_tbox_kb,
    random_transitive_kb,
)

# name -> rng -> (KB, planted verdict or None)
GENERATORS = {
    "alc": lambda rng: (random_alc_kb(rng), None),
    "shin": lambda rng: (random_shin_kb(rng), None),
    "tbox": lambda rng: (random_tbox_kb(rng), None),
    "colouring": random_colouring_kb,
    "transitive": lambda rng: (random_transitive_kb(rng), None),
}


def outcome(kb, planted, budget: int) -> tuple[str, str]:
    """(outcome, mode): how the tableau's verdict on kb checks out (agree,
    mismatch, exhausted or oracle_exhausted), and the KB's mode."""
    mode = detect_mode(kb)
    try:
        result = consistency(kb, budget)
    except ResourceLimit:
        return "exhausted", mode
    if planted is not None:
        wrong = result.consistent != planted
    else:
        try:
            wrong = cross_check(kb, result) is not None
        except BudgetExceeded:
            return "oracle_exhausted", mode
    return ("mismatch" if wrong else "agree"), mode


def run(seed: int, count: int, budget: int) -> dict:
    """Run the differential; print and return the counts of each generator
    and the GCI verdict rate."""
    report = {}
    gci = {"kbs": 0, "answered": 0}
    for name, generate in GENERATORS.items():
        rng = random.Random(seed)
        counts = dict.fromkeys(("agree", "mismatch", "exhausted", "oracle_exhausted"), 0)
        for _ in range(count):
            kb, planted = generate(rng)
            result, mode = outcome(kb, planted, budget)
            counts[result] += 1
            if mode == "gci":
                gci["kbs"] += 1
                gci["answered"] += result != "exhausted"
            if result == "mismatch":
                print(f"mismatch ({name}):\n{serialize_kb(kb)}", file=sys.stderr)
        report[name] = counts
        print(json.dumps({"generator": name, **counts}))
    gci["verdict_rate"] = gci["answered"] / gci["kbs"] if gci["kbs"] else None
    report["gci"] = gci
    print(json.dumps({"gci": gci}))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True, help="KBs per generator")
    parser.add_argument("--budget", type=int, required=True, help="tableau work budget per KB")
    args = parser.parse_args(argv)
    report = run(args.seed, args.count, args.budget)
    return 1 if any(report[name]["mismatch"] for name in GENERATORS) else 0


if __name__ == "__main__":
    sys.exit(main())
