"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Every numeric check is exact (zero tolerance); the only tolerances
are the stated wall-clock budgets.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from seshadri.cli import main as cli_main
from seshadri.cluster import BranchJet, cluster_multiplicities, pullback_mult
from seshadri.conditions import candidate_search, constants_table, discard_search
from seshadri.covering import (
    KNOWN_PLANE_CONSTANTS,
    CoveringSpec,
    steffens_bounds,
)
from seshadri.exact import SurdValue
from seshadri.intersection import local_intersection
from seshadri.series import AtLeast, BiSeries, XSeries
from seshadri.witness import n8_certificate

from oracles import is_perfect_square, numeric_inequality_check, resultant_intersection_order


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


EXPECTED_ROWS = {
    2: (1, 2, 3, 2),
    3: (1, 2, 3, 2),
    4: (1, 2, 3, 2),
    5: (2, 5, 6, 5),
    6: (2, 5, 6, 5),
    7: (3, 8, 10, 9),
    8: (6, 17, 28, 27),
    9: (3, 9, 10, 9),
}

EXPECTED_EPSILONS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(2),
                     Fraction(12, 5), Fraction(21, 8), Fraction(48, 17), Fraction(3)]


def test_criterion_01_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli_main(["table", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = json.loads(out)["results"]["table"]["rows"]
    got = {row[0]: tuple(row[1:5]) for row in rows}
    ok = code == 0 and got == EXPECTED_ROWS and elapsed < 1.0
    with capsys.disabled():
        _report(1, "table rows (n, d, m, h0, conditions) match exactly, under 1 s", ok)


def test_criterion_02_explicit_constants():
    eps = [cand.epsilon for _, cand in constants_table()]
    _report(2, "constants are exactly 1, 3/2, 2, 2, 12/5, 21/8, 48/17, 3", eps == EXPECTED_EPSILONS)


def test_criterion_03_feasibility_cutoff():
    start = time.perf_counter()
    ok = all(candidate_search(n, 50) is None for n in range(10, 101))
    elapsed = time.perf_counter() - start
    _report(3, "no candidate for any n in 10..100 with degrees up to 50, under 5 s",
            ok and elapsed < 5.0)


def test_criterion_04_discard_lists():
    expected = {2: [(1, 2)], 3: [(1, 2)], 5: [(2, 5)], 6: [(2, 5)],
                7: [(3, 8)], 8: [(3, 9), (6, 17)]}
    ok = all(discard_search(n) == want for n, want in expected.items())
    _report(4, "discard lists match the case analysis exactly", ok)


def test_criterion_05_degree8_witness():
    ok = True
    for b in (1, 2, 3):
        start = time.perf_counter()
        verdict = n8_certificate(b)
        elapsed = time.perf_counter() - start
        ok = ok and verdict.kernel_dim == 0 and not verdict.exists and elapsed < 1.0
    _report(5, "no cubic with a double point meets the branch to order 9 (b = 1, 2, 3)", ok)


def test_criterion_06_cluster_sum_property():
    rng = random.Random(60_2024)
    start = time.perf_counter()
    failures = 0
    checked = 0
    for _ in range(1000):
        coeffs: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(1, 7)):
            p, q = rng.randint(0, 8), rng.randint(0, 8)
            if p + q <= 8:
                coeffs[(p, q)] = rng.randint(-9, 9)
        coeffs = {k: c for k, c in coeffs.items() if c}
        if not coeffs:
            continue
        curve = BiSeries(coeffs)
        for n in range(2, 7):
            result = cluster_multiplicities(curve, n)
            if not result.determinate or pullback_mult(curve, n) != result.total:
                failures += 1
            checked += 1
    elapsed = time.perf_counter() - start
    _report(6, f"pullback multiplicity equals cluster sum on {checked} random checks, under 30 s",
            failures == 0 and checked >= 1000 and elapsed < 30.0)


def test_criterion_07_numeric_inequality_property():
    rng = random.Random(70_2024)
    checked = 0
    ok = True
    while checked < 10_000:
        mults = [rng.randint(0, 30) for _ in range(rng.randint(1, 12))]
        for index in range(len(mults)):
            ok = ok and numeric_inequality_check(mults, index)
        checked += 1
    _report(7, "the squared-multiplicity inequality holds on 10^4 random vectors, all indices", ok)


def test_criterion_08_bound_coincidence():
    ok = True
    for n in range(2, 21):
        for l2 in range(1, 10):
            for r in range(1, 21):
                bounds = steffens_bounds(CoveringSpec(n=n, L2=l2), r)
                square = is_perfect_square(r * n * l2)
                ok = ok and bounds.maximal == square
                if square:
                    ok = ok and SurdValue(bounds.lower) == bounds.upper
    _report(8, "maximal bounds exactly at perfect squares r*n*L2 (n<=20, L2<=9, r<=20)", ok)


def test_criterion_09_known_constant_cross_check():
    ok = all(n * KNOWN_PLANE_CONSTANTS[n].value == cand.epsilon
             for n, cand in constants_table())
    _report(9, "degree times the known plane constant reproduces every table entry", ok)


def test_criterion_10_intersection_oracle():
    rng = random.Random(100_2024)
    mismatches = 0
    checked = 0
    while checked < 200:
        coeffs: dict[tuple[int, int], Fraction] = {}
        for _ in range(rng.randint(1, 6)):
            p, q = rng.randint(0, 5), rng.randint(0, 5)
            if p + q <= 5:
                coeffs[(p, q)] = Fraction(rng.randint(-9, 9))
        coeffs = {k: c for k, c in coeffs.items() if c}
        if not coeffs:
            continue
        branch = {e: Fraction(rng.randint(-9, 9)) for e in range(1, rng.randint(2, 7))}
        branch = {e: c for e, c in branch.items() if c}
        got = local_intersection(BiSeries(coeffs), BranchJet(XSeries(branch)))
        expected = resultant_intersection_order(coeffs, branch)
        if expected is None:
            if not isinstance(got, AtLeast):
                mismatches += 1
        elif got != expected:
            mismatches += 1
        checked += 1
    _report(10, f"local intersection agrees with the resultant oracle on {checked} instances",
            mismatches == 0)
