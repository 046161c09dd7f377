"""Acceptance suite: one test per criterion, one printed line per criterion.

All claims are structural so every comparison is exact: either symbolic
(diagram and scalar equality) or in a prime field at three independent
random specializations, whose seed and failure bounds are carried in the
reports.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from blobalg.diagrams import all_diagrams
from blobalg.diamond import (
    all_diamond_walks,
    check_envelope_words,
    diamond_walk,
    envelope_word,
    expected_lowest,
    to_diamond,
)
from blobalg.presentation import (
    check_defining_relations,
    check_run_identities,
    evaluate_word,
    is_reduced,
    phi_equal,
)
from blobalg.towers import (
    check_ideal_inclusions,
    check_quotient_dims,
    check_span_closure,
    check_standard_modules,
    check_tower,
    check_word_basis,
    default_points,
)
from blobalg.walks import (
    all_walks,
    check_diamond_moves,
    factor_walk_words,
    parse_walk,
    path_word,
    regular_basis,
    squared_basis,
    walk_words,
)
from blobalg.words import parse_word

POINTS = default_points(seed=0)


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_dimension_ladder():
    start = time.monotonic()
    counts = []
    for n in range(1, 7):
        words = regular_basis(n)
        diagrams = all_diagrams(n)
        images = [evaluate_word(w) for w in words]
        ok = (len(words) == len(diagrams) == comb(2 * n, n)
              and all(s.coeff.is_one() for s in images)
              and len({s.diagram for s in images}) == len(words))
        counts.append(len(words))
        assert ok, f"ladder broken at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"ladder took {elapsed:.0f}s, budget is 2 minutes"
    report(1, counts == [2, 6, 20, 70, 252, 924],
           f"|basis| = |diagrams| = {counts}, images distinct with unit scalar, "
           f"{elapsed:.1f}s")


def test_criterion_2_relation_suite():
    total = 0
    for n in range(1, 9):
        rep = check_defining_relations(n)
        total += len(rep.checks)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
    report(2, True, f"all {total} relation instances exact, n <= 8")


def test_criterion_3_identity_suite():
    total = 0
    for n in range(2, 9):
        rep = check_run_identities(n)
        total += len(rep.checks)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
    report(3, True, f"all {total} identity instances exact, n <= 8")


def test_criterion_4_walk_word_suite():
    for n in range(0, 13):
        assert len(all_walks(n)) == 2 ** n
        for m in range(-n, n + 1, 2):
            assert len(all_walks(n, m)) == comb(n, (n + m) // 2)
    reduced = factored = 0
    for n in range(0, 9):
        for p in all_walks(n):
            std = path_word(p)
            var = path_word(p, variant=True)
            assert is_reduced(std)
            assert phi_equal(std, var) and len(var.letters) <= len(std.letters)
            reduced += 1
        for m in range(-n, n + 1, 2):
            factored += len(factor_walk_words(n, m))  # raises if unverifiable
    report(4, True,
           f"counts n<=12; {reduced} walk words reduced; {factored} factorizations; "
           "variant form agrees and is never longer")


def test_criterion_5_worked_example():
    expected_walk_words = ["U1 e U2 U1", "e U1 e U2 U1", "U2 U1 e U2 U1"]
    ours = [evaluate_word(w) for w in walk_words(3, 1)]
    theirs = [evaluate_word(parse_word(t, 3)) for t in expected_walk_words]
    ok = ({s.diagram for s in ours} == {s.diagram for s in theirs}
          and all(s.coeff.is_one() for s in ours + theirs))

    expected_squared = ["U1 e U2 U1", "e U1 e U2 U1", "e U2 U1",
                        "U1 e U2 U1 e", "e U1 e U2 U1 e", "e U2 U1 e",
                        "U1 e U2", "e U1 e U2", "e U2"]
    sq = [evaluate_word(w) for w in squared_basis(3, 1).words]
    sqp = [evaluate_word(parse_word(t, 3)) for t in expected_squared]
    ok &= (len(sq) == 9
           and {s.diagram for s in sq} == {s.diagram for s in sqp}
           and all(s.coeff.is_one() for s in sq + sqp))

    lhs = evaluate_word(parse_word("U2 U1 e U2 U1", 3))
    rhs = evaluate_word(parse_word("e U2 U1", 3))
    ok &= lhs.coeff.is_one() and rhs.coeff.is_one() and lhs.diagram == rhs.diagram
    report(5, ok, "walk words and 9-element squared basis match the displays; "
                  "U2 U1 e U2 U1 = e U2 U1 with unit scalars")


def test_criterion_6_diamond_move_suite():
    total = 0
    for n in range(2, 9):
        rep = check_diamond_moves(n)
        total += len(rep.checks)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
    report(6, True, f"all {total} local-move instances exact, n <= 8")


def test_criterion_7_span_and_ideal_suite():
    start = time.monotonic()
    checks = 0
    for n in range(2, 6):
        for fn in (check_span_closure, check_word_basis, check_ideal_inclusions,
                   check_tower, check_quotient_dims):
            rep = fn(n, POINTS, seed=0)
            checks += len(rep.checks)
            assert rep.passed, (rep.title, [c.instance for c in rep.checks if not c.passed])
            assert rep.meta["points"] and len(rep.meta["points"]) == 3
            assert any("fail prob" in c.note for c in rep.checks)
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"span suite took {elapsed:.0f}s, budget is 10 minutes"
    report(7, True, f"{checks} span/ideal checks at 3 points each, "
                    f"prime {POINTS[0].prime}, bounds recorded per check, {elapsed:.1f}s")


def test_criterion_8_standard_modules():
    checks = 0
    for n in range(1, 7):
        rep = check_standard_modules(n, POINTS, seed=0)
        checks += len(rep.checks)
        assert rep.passed, (rep.title, [c.instance for c in rep.checks if not c.passed])
    report(8, True, f"{checks} module dimension/relation checks exact in F_p, n <= 6")


def test_criterion_9_appendix_suite():
    for n in range(0, 11):
        walks = all_walks(n)
        images = {to_diamond(p) for p in walks}
        assert len(images) == 2 ** n and images == set(all_diamond_walks(n))
    assert str(to_diamond(parse_walk("0,1,0"))) == "SS"
    for n in range(1, 9):
        for m in range(-n, n + 1, 2):
            if m == 0:
                continue
            lows = {to_diamond(p).lowest for p in all_walks(n, m)}
            assert lows == {expected_lowest(n, m)}, (n, m)
    for n in range(0, 7):
        rep = check_envelope_words(n)
        assert rep.passed
    cap4 = str(envelope_word(diamond_walk("SSSS")))
    cap6 = str(envelope_word(diamond_walk("SSSSSS")))
    ok = cap4 == "e U1 e U2 U1 U3" and cap6 == "e U1 e U2 U1 U3 e U2 U4 U1 U3 U5"
    report(9, ok, "bijection n<=10, heights n<=8, envelope words n<=6, "
                  f"captions reproduced: {cap4!r}, {cap6!r}")


def test_criterion_10_determinism():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "blobalg.cli", "verify", "--suite", "all",
           "--n", "4", "--seed", "20240808"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout)
    report(10, ok, f"verify --suite all --n 4: {len(first.stdout)} bytes, "
                   "byte-identical across two runs")
