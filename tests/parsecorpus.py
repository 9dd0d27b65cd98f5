"""A seeded corpus of perturbed parser inputs, and the digest of what the
parser makes of them.

    python tests/parsecorpus.py --seed N --count K

Base texts come from genkb's generators (serialized), the first block of
each perfbench workload (KBs and queries), examples/*.fkb and a few
hand-written statements.  Each input is a short piece of a base text (a
window of statements, a concept, a query or a degree) with up to three
edits, each inserting, deleting or replacing a character or a keyword.
Every input goes through parse_kb, parse_query, parse_concept and
parse_degree.  An outcome is the repr of the result (sets sorted, so it
does not depend on the hash seed), or the message and span of the
ParseError; any other exception ends the run.  The digest is
the SHA-256 of all outcomes in order: it pins the parser's results,
messages and spans, and it also moves if genkb, the perfbench workloads,
the examples or the repr of the KB classes change.
Prints the digest and the number of inputs that parsed as a KB.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from fshin.kb import FuzzyKB  # noqa: E402
from fshin.parser import (  # noqa: E402
    KEYWORDS,
    ParseError,
    parse_concept,
    parse_degree,
    parse_kb,
    parse_query,
    serialize_kb,
)
from fshin.syntax import concept_text  # noqa: E402

from genkb import (  # noqa: E402
    random_alc_kb,
    random_colouring_kb,
    random_shin_concept,
    random_shin_kb,
    random_tbox_kb,
)
import workloads  # noqa: E402

HAND_WRITTEN = """\
define A ⊑ some r.B.
define C ≡ all r-.(A or not B).
implies >= 2 s <= 1 s-.
subrole r- s.
distinct a b.
distinct a a.
assert (a): A and B > 1/3.
assert a : top = 0.5.
assert a : bottom < 1.
"""

# characters the tokenizer reads, refuses, or treats as space: Unicode
# digits, a BOM, a line separator
CHARS = list(" \n\t#.:,()-<>=/⊑≡@$aAzr_019½²٣\ufeff\u2028")
INSERTS = sorted(KEYWORDS) + [">=", "<=", "0.5", "1/0", "3/10", "07", "(a, b)", "# c\n"]
LONG_NUMERAL = "9" * 4301  # one digit past int()'s default limit


def base_texts(seed: int) -> dict[str, list[str]]:
    """Statement lines, concepts, queries and degrees to perturb."""
    rng = random.Random(f"parsecorpus-base:{seed}")
    generators = (random_alc_kb, random_shin_kb, random_tbox_kb)
    kbs = [serialize_kb(gen(rng)) for _ in range(10) for gen in generators]
    kbs += [serialize_kb(random_colouring_kb(rng)[0]) for _ in range(3)]
    queries = []
    for name in workloads.BLOCKS:
        for task in next(workloads.blocks(name, seed)):
            kbs.append(task.kb_text)
            queries.append(task.query_text)
    kbs += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "examples").glob("*.fkb"))]
    kbs.append(HAND_WRITTEN)
    lines = [line for text in kbs for line in text.splitlines() if line]
    queries += [line[len("assert "):-1] for line in lines if line.startswith("assert ")]
    concepts = [concept_text(random_shin_concept(rng)) for _ in range(100)]
    degrees = re.findall(r"\d+(?:\.\d+|/\d+)?", "\n".join(lines))
    return {"kb": lines, "concept": concepts, "query": queries, "degree": degrees}


def perturb(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(CHARS) + text[i + 1:]
        elif op == 3:
            text = text[:i] + f" {rng.choice(INSERTS)} " + text[i:]
        elif op == 4:
            words = list(re.finditer(r"[\w-]+", text))
            if words:
                m = rng.choice(words)
                text = text[: m.start()] + rng.choice(INSERTS) + text[m.end():]
        elif rng.random() < 0.05:
            text = text[:i] + LONG_NUMERAL + text[i:]
    return text


def corpus(seed: int, count: int) -> list[str]:
    bases = base_texts(seed)
    rng = random.Random(f"parsecorpus:{seed}")
    inputs = []
    for _ in range(count):
        kind = rng.choice(("kb", "kb", "concept", "query", "degree"))
        pool = bases[kind]
        if kind == "kb":
            start = rng.randrange(len(pool))
            text = "\n".join(pool[start : start + rng.randint(1, 4)])
        else:
            text = rng.choice(pool)
        inputs.append(perturb(rng, text))
    return inputs


def outcome(parse, text: str) -> str:
    try:
        result = parse(text)
    except ParseError as e:
        return f"error {e.message!r} {e.span!r}"
    if isinstance(result, FuzzyKB):
        rbox, abox = result.rbox, result.abox
        result = (
            result.tbox,
            sorted(rbox.transitive),
            sorted(map(repr, rbox.inclusions)),
            abox.concept_assertions,
            abox.role_assertions,
            sorted(map(sorted, abox.inequalities)),
        )
    return repr(result)


def digest(seed: int, count: int) -> tuple[str, int]:
    """The SHA-256 of every outcome, and how many inputs parsed as a KB."""
    h = hashlib.sha256()
    kbs = 0
    for text in corpus(seed, count):
        for parse in (parse_kb, parse_query, parse_concept, parse_degree):
            out = outcome(parse, text)
            h.update(out.encode("utf-8", "surrogatepass") + b"\n")
            kbs += parse is parse_kb and not out.startswith("error ")
    return h.hexdigest(), kbs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True, help="inputs to draw")
    args = ap.parse_args(argv)
    hexdigest, kbs = digest(args.seed, args.count)
    print(f"{hexdigest} {args.count} inputs, {kbs} parsed as a KB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
