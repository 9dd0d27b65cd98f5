"""Seeded task generators for the benchmark workloads.

Every task carries its expected answer, planted by construction from the
shape of the generated knowledge base; no answer is ever recorded from the
reasoner.  A workload is a stream of blocks; each block holds one task per
stratum of the inputs that drive the cost (chain length, axiom set, query
kind) in seeded order, so any run that covers whole blocks sees the same
cost mix for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Answer = Union[bool, Fraction]


@dataclass(frozen=True)
class Task:
    kind: str  # "consistency", "entails", "glb" or "lub"
    kb_text: str
    query_text: str  # empty for consistency tasks
    expected: Answer


def _grid(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


# --- abox-chain -------------------------------------------------------------

CHAIN_SIZES = tuple(range(10, 61, 5))


def chain_kb(rng: random.Random, n: int, planted: bool, den: int = 20) -> Task:
    """A chain a0 -> ... -> a(n-1) over transitive r and its subrole s.

    Every edge degree is at least 1/2 and the head's `all r.A` degree is at
    least 3/5, so each edge degree exceeds 1 - head: A >= head reaches the
    tail along the transitive chain.  The planted `A < 3/10` at the tail
    therefore contradicts it, and without it the KB has a model (every ai
    has A = 1; the tail's r- witness is a fresh element with A = 0).  The
    middle individual has one s-successor and no s- predecessor, so its
    `<= 1 s` never asks for a merge.  Degrees lie on the 1/den grid."""
    head = _grid(rng, 3 * den // 5, den, den)
    lines = ["trans r.", "subrole s r."]
    for i in range(n - 1):
        role = rng.choice("rs")
        lines.append(f"assert (a{i}, a{i + 1}): {role} >= {_grid(rng, (den + 1) // 2, den, den)}.")
    lines.append(f"assert a0 : all r.A >= {head}.")
    lines.append(f"assert a{n - 1} : some r-.(not A) >= {_grid(rng, (den + 1) // 2, den, den)}.")
    lines.append(f"assert a{n // 2} : <= 1 s >= {_grid(rng, 1, den, den)}.")
    if planted:
        lines.append(f"assert a{n - 1} : A < 3/10.")
    return Task("consistency", "\n".join(lines) + "\n", "", not planted)


def abox_chain_block(rng: random.Random) -> list[Task]:
    return [chain_kb(rng, n, planted) for n in CHAIN_SIZES for planted in (False, True)]


# --- gci-cycle --------------------------------------------------------------

# C [= some r.C makes every C-instance start an infinite r-chain, so the
# tableau only terminates through pair-wise blocking.
GCI_AXIOMS = {
    "exists": "implies {C} some {r}.{C}.",
    "forall": "implies {C} all {r}.{D}.",
    "back": "implies some {r}.{C} {D}.",
}
QUARTER, HALF, ONE = Fraction(1, 4), Fraction(1, 2), Fraction(1)


def gci_cells() -> list[tuple[tuple[str, ...], Fraction, str, Fraction]]:
    """(axioms, p, second assertion subject, q) for every cell of the
    workload; subject "" means `a : C >= p` is the only assertion.

    Semantics: `exists` gives (some r.C)(a) >= C(a) >= p, and `back` then
    gives D(a) >= p.  So a second assertion `some r.C <= q`, or `D <= q`
    under `back`, with q < p is a contradiction.  With q >= p the KB has the
    one-element model r(e, e) = 1, C(e) = D(e) = p.  Cells are kept only
    where one task takes well under a second: p = 1/4 with all three axioms,
    and a consistent `D <= 1/4` next to p = 1/2, make the search blow up, so
    they are left out and every remaining cell with q < p is contradictory."""
    cells = []
    for p, axiom_sets in (
        (HALF, (("exists",), ("exists", "forall"), ("exists", "back"), ("exists", "forall", "back"))),
        (QUARTER, (("exists",), ("exists", "forall"))),
    ):
        for axioms in axiom_sets:
            cells.append((axioms, p, "", ONE))
            for subject in ("D", "some"):
                for q in (QUARTER, HALF, ONE):
                    if subject == "D" and q < p and "back" not in axioms:
                        continue
                    cells.append((axioms, p, subject, q))
    return cells


def gci_kb(rng: random.Random, axioms: tuple[str, ...], p: Fraction, subject: str, q: Fraction) -> Task:
    c, d = rng.sample("ABCDEFGH", 2)
    names = {"C": c, "D": d, "r": rng.choice("pqrs")}
    lines = [GCI_AXIOMS[ax].format(**names) for ax in rng.sample(axioms, len(axioms))]
    a = rng.choice(("a", "b", "x", "ind"))
    lines.append(f"assert {a} : {c} >= {p}.")
    if subject == "D":
        lines.append(f"assert {a} : {d} <= {q}.")
    elif subject == "some":
        lines.append(f"assert {a} : some {names['r']}.{c} <= {q}.")
    consistent = subject == "" or q >= p
    return Task("consistency", "\n".join(lines) + "\n", "", consistent)


def gci_cycle_block(rng: random.Random) -> list[Task]:
    return [gci_kb(rng, *cell) for cell in gci_cells()]


# --- degree-query -----------------------------------------------------------

PART_OF_SIZES = tuple(range(4, 17, 2))
STEP = Fraction(1, 20)

EXAMPLE1 = """\
trans isPartOf.
assert (o1, o2): isPartOf >= 0.8.
assert (o2, o3): isPartOf >= 0.9.
assert o1 : Arm >= 0.75.
assert o2 : Body >= 0.85.
"""
EXAMPLE1_QUERY = "(o3): (some isPartOf-.Body) and (some isPartOf-.Arm)"
EXAMPLE1_GLB = Fraction(3, 4)


def _part_of_chain(rng: random.Random, n: int, den: int = 20) -> tuple[str, Fraction]:
    """A transitive isPartOf chain o1 -> ... -> on with `o1 : A >= a`, and
    the degree g = min(a, edge degrees).

    (some isPartOf-.A)(on) is at least g through o1, and the model with
    isPartOf the min-closure of the edges and A = 0 everywhere but o1
    attains g exactly.  So glb = g, lub of the negation is 1 - g, and the
    query is entailed at g and not at g + 1/den.  Degrees lie in
    [1/den, 1 - 1/den], so g + 1/den <= 1."""
    degrees = [_grid(rng, 1, den - 1, den) for _ in range(n)]
    lines = ["trans isPartOf."]
    for i in range(1, n):
        lines.append(f"assert (o{i}, o{i + 1}): isPartOf >= {degrees[i]}.")
    lines.append(f"assert o1 : A >= {degrees[0]}.")
    return "\n".join(lines) + "\n", min(degrees)


def part_of_kb(rng: random.Random, n: int, kind: str) -> Task:
    kb, g = _part_of_chain(rng, n)
    query = f"(o{n}): some isPartOf-.A"
    if kind == "glb":
        return Task("glb", kb, query, g)
    if kind == "lub":
        return Task("lub", kb, f"(o{n}): not (some isPartOf-.A)", 1 - g)
    if kind == "entails":
        return Task("entails", kb, f"{query} >= {g}", True)
    return Task("entails", kb, f"{query} >= {g + STEP}", False)


def degree_query_block(rng: random.Random) -> list[Task]:
    tasks = [
        part_of_kb(rng, n, kind)
        for n in PART_OF_SIZES
        for kind in ("glb", "lub", "entails", "entails-above")
    ]
    tasks.append(Task("glb", EXAMPLE1, EXAMPLE1_QUERY, EXAMPLE1_GLB))
    return tasks


BLOCKS = {
    "abox-chain": abox_chain_block,
    "gci-cycle": gci_cycle_block,
    "degree-query": degree_query_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[Task]]:
    """The workload's endless stream of shuffled blocks for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        block = BLOCKS[workload](rng)
        rng.shuffle(block)
        yield block


def oracle_samples(workload: str, seed: int) -> list[Task]:
    """Small members of the workload's family, one consistent and one not,
    for a brute-force cross-check of the planted answers.  A degree query
    is checked as the KB plus the negated query, which has a model exactly
    when the query is not entailed.  The chains use the 1/5 grid: the search
    enumerates a grid built from the KB's degrees, and on the 1/20 grid one
    check can take 20 s."""
    rng = random.Random(f"oracle:{workload}:{seed}")
    if workload == "abox-chain":
        return [chain_kb(rng, 3, False, den=5), chain_kb(rng, 2, True, den=5)]
    if workload == "gci-cycle":
        block = gci_cycle_block(rng)
        return [rng.choice([t for t in block if t.expected is answer]) for answer in (True, False)]
    kb, g = _part_of_chain(rng, 3, den=5)
    return [
        Task("consistency", f"{kb}assert o3 : some isPartOf-.A < {g + Fraction(1, 5)}.\n", "", True),
        Task("consistency", f"{kb}assert o3 : some isPartOf-.A < {g}.\n", "", False),
    ]
