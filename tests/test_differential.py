import itertools
import json
import random
import time

import differential
from genkb import colourable, random_colouring_kb


def test_differential_slice(capsys):
    start = time.perf_counter()
    assert differential.main(["--seed", "2", "--count", "100", "--budget", "5000"]) == 0
    assert time.perf_counter() - start < 15.0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    counts = {line.pop("generator"): line for line in lines[:-1]}
    assert list(counts) == list(differential.GENERATORS)
    for c in counts.values():
        assert c["mismatch"] == 0 and sum(c.values()) == 100, c
    gci = lines[-1]["gci"]
    assert gci["kbs"] > 0 and gci["verdict_rate"] == gci["answered"] / gci["kbs"]


def test_a_wrong_verdict_exits_1(monkeypatch, capsys):
    def flipped(rng):
        kb, planted = random_colouring_kb(rng)
        return kb, not planted

    monkeypatch.setattr(differential, "GENERATORS", {"colouring": flipped})
    assert differential.main(["--seed", "1", "--count", "3", "--budget", "5000"]) == 1
    assert capsys.readouterr().err.count("mismatch (colouring)") == 3


def test_colourable_matches_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 6)
        p = rng.random()
        pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
        for k in range(n + 1):
            brute = any(
                all(c[i] != c[j] for i, j in pairs) for c in itertools.product(range(k), repeat=n)
            )
            assert colourable(n, pairs, k) == brute, (n, pairs, k)
