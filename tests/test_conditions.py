"""Condition counts, the candidate search, and the discard sieve."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from seshadri.conditions import (
    REFERENCE_TABLE,
    Candidate,
    candidate_search,
    condition_count,
    constants_table,
    discard_search,
    h0_plane,
)
from seshadri.covering import plane_constant
from seshadri.exact import SurdValue
from seshadri.series import BiSeries, XSeries
from seshadri.witness import curve_monomials, n8_certificate

from oracles import rational_rref


# -------------------------------------------------------- condition count

def test_condition_count_examples():
    assert condition_count(2, 2) == 2
    assert condition_count(8, 17) == 27
    assert condition_count(7, 8) == 9
    assert condition_count(5, 0) == 0


@pytest.mark.parametrize("n, m", [(0, 0), (1, 3), (2, -1)])
def test_condition_count_rejects_bad_input(n, m):
    with pytest.raises(ValueError):
        condition_count(n, m)


@given(st.integers(2, 20), st.integers(0, 300))
def test_condition_count_integral_and_nonnegative(n, m):
    c = condition_count(n, m)
    assert isinstance(c, int) and c >= 0


@given(st.integers(2, 20), st.integers(0, 299))
def test_condition_count_strictly_increasing(n, m):
    assert condition_count(n, m + 1) > condition_count(n, m)


def test_h0_examples():
    assert h0_plane(1) == 3
    assert h0_plane(6) == 28
    assert h0_plane(0) == 1
    with pytest.raises(ValueError):
        h0_plane(-1)


# ------------------------------------------------------------- candidates

def test_candidate_search_n8():
    c = candidate_search(8, 10)
    assert (c.d, c.m, c.h0, c.conditions) == (6, 17, 28, 27)
    assert c.epsilon == Fraction(48, 17)


def test_candidate_search_n5():
    c = candidate_search(5, 10)
    assert (c.d, c.m, c.h0, c.conditions) == (2, 5, 6, 5)
    assert c.epsilon == Fraction(2)


def test_candidate_search_none_beyond_nine():
    assert candidate_search(10, 50) is None


def test_candidate_search_validation():
    with pytest.raises(ValueError):
        candidate_search(1, 10)
    with pytest.raises(ValueError):
        candidate_search(5, 0)


def test_candidate_record_invariants():
    with pytest.raises(ValueError):
        Candidate(n=8, d=6, m=16)  # d^2 n > m^2
    with pytest.raises(ValueError):
        Candidate(n=2, d=0, m=0)  # no degree, so no constant n*d/m
    with pytest.raises(ValueError):
        Candidate(n=2, d=1, m=3)  # no room: h0 = 3 <= 4 conditions
    c = Candidate(n=2, d=1, m=2)  # h0 = 3 > 2 conditions
    assert (c.h0, c.conditions, c.epsilon) == (3, 2, Fraction(1))


def test_candidates_stay_below_sqrt_n():
    for n, cand in constants_table():
        # epsilon = n*d/m against sqrt(n), compared exactly as d^2 n against m^2
        if n in (4, 9):  # perfect squares reach the unconditional bound
            assert cand.d * cand.d * n == cand.m * cand.m
        else:
            assert cand.d * cand.d * n < cand.m * cand.m


# ---------------------------------------------------------------- discard

def test_discard_lists_match_case_analysis():
    assert discard_search(2) == [(1, 2)]
    assert discard_search(3) == [(1, 2)]
    assert discard_search(5) == [(2, 5)]
    assert discard_search(6) == [(2, 5)]
    assert discard_search(7) == [(3, 8)]
    assert discard_search(8) == [(3, 9), (6, 17)]


def test_discard_square_cases_sieve_output():
    # for the perfect squares the constant is already settled by the
    # unconditional bounds; the sieve itself leaves exactly the table entry
    assert discard_search(4) == [(1, 2)]
    assert discard_search(9) == [(3, 9)]


def test_discard_rejects_out_of_range():
    with pytest.raises(ValueError):
        discard_search(10)
    with pytest.raises(ValueError):
        discard_search(1)


def test_discard_survivors_satisfy_both_sieves():
    for n in range(2, 10):
        for j, m in discard_search(n):
            assert m * m >= n * j * j >= m * (m - 1)
            assert m < h0_plane(j)


# ------------------------------------------------------------------ table

def test_constants_table_epsilons():
    eps = [cand.epsilon for _, cand in constants_table()]
    assert eps == [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(2),
                   Fraction(12, 5), Fraction(21, 8), Fraction(48, 17), Fraction(3)]


def test_constants_table_matches_reference():
    for n, cand in constants_table():
        assert (cand.d, cand.m, cand.h0, cand.conditions) == REFERENCE_TABLE[n]


def test_constants_table_with_tight_dmax():
    full = constants_table()
    assert constants_table(d_max=6) == full
    # only the degree-1 rows (n = 2, 3, 4) are found; the rest are missing
    tight = constants_table(d_max=1)
    assert tight == [(n, cand if cand.d == 1 else None) for n, cand in full]
    assert [n for n, cand in tight if cand is not None] == [2, 3, 4]


def test_table_consistent_with_known_plane_constants():
    # scaling the computed n-point constant of the plane by the covering degree
    # reproduces every table entry
    for n, cand in constants_table():
        assert plane_constant(n) == SurdValue(cand.epsilon / n)


def test_multi_point_counts_match_the_plane_constants_where_known():
    # an invariant divisor of degree d with multiplicity m at r ramification
    # points exists once h0(d) > r * conditions(n, m), and bounds the r-point
    # constant by n*d/(r*m). Where n*r <= 9 the least bound over d < 40 is n
    # times the plane constant at n*r points; elsewhere no d beats sqrt(n/r).
    best = {}
    for n in range(2, 10):
        for r in range(1, 7):
            pairs = []
            for d in range(40):
                m = 0
                while h0_plane(d) > r * condition_count(n, m + 1):
                    m += 1
                pairs.append((d, m))
            if n * r <= 9:
                ratio, d, m = min((Fraction(n * d, r * m), d, m) for d, m in pairs if m)
                assert SurdValue(ratio / n) == plane_constant(n * r), (n, r)
                best[n, r] = d, m
            else:
                assert all(n * d * d >= r * m * m for d, m in pairs), (n, r)
    assert len(best) == 14 and best[2, 4] == (24, 17)  # 12/17 = 2 * 6/17


def test_plane_constants_are_the_least_exceptional_ratio():
    # for r <= 9 general points the constant is the least of 1/sqrt(r) and
    # d/sum(m) over the (-1)-classes (d; m_1..m_r): sum(m) = 3d - 1 and
    # sum(m^2) = d^2 + 1, where d <= 6 suffices. A rational v is at most
    # 1/sqrt(r) exactly when v^2 * r <= 1; where 1/sqrt(r) wins, r is a square.
    # This enumeration is the oracle for plane_constant's own search
    for r in range(1, 10):
        ratios = [Fraction(d, 3 * d - 1) for d in range(1, 7)
                  for mults in combinations_with_replacement(range(d + 1), r)
                  if sum(mults) == 3 * d - 1 and sum(m * m for m in mults) == d * d + 1]
        best = min(ratios, default=None)
        if best is None or best * best * r > 1:
            assert isqrt(r) ** 2 == r, r
            best = Fraction(1, isqrt(r))
        assert plane_constant(r) == SurdValue(best), r


# ------------------------------------------------- invariant staircase systems

# the degree-8 certificate's branch, and a dense jet with mixed denominators
STAIRCASE_JETS = (
    XSeries({2: 1, 4: 1, 8: 1}),
    XSeries({2: 1, 3: Fraction(-3, 2), 4: 2, 5: Fraction(1, 3), 6: -1, 7: 5,
             8: Fraction(2, 7), 9: 3, 10: -2, 11: 1, 12: 4}),
)


def staircase(n, m):
    """Exponents (p, q) with p + n*q < m: the coefficients an invariant
    divisor must kill to have multiplicity m at the ramification point."""
    return [(p, q) for q in range(m // n + 1) for p in range(m - n * q)]


def staircase_kernel(n, d, m, g):
    """Kernel dimension of the system on plane curves of degree d whose
    translate F(x, y + g(x)) has no term on the staircase of (n, m); the
    column of x^a y^b is the translate of that monomial."""
    columns = [BiSeries({mono: 1}).translate_y(g).coeffs for mono in curve_monomials(d)]
    rows = [[column.get(pq, 0) for column in columns] for pq in staircase(n, m)]
    _, pivots = rational_rref(rows, len(columns))
    return len(columns) - len(pivots)


def test_staircase_rows_are_the_condition_count():
    for n in range(2, 10):
        for m in range(31):
            assert len(staircase(n, m)) == condition_count(n, m), (n, m)


def test_staircase_kernels_are_the_expected_dimension():
    # rank can only drop on a closed set of jets, so the kernel at one
    # explicit jet bounds the general kernel from above; h0 - conditions
    # bounds it from below, and the two meet on every table row and on
    # every discard survivor
    for g in STAIRCASE_JETS:
        for n, (d, m, h0, conditions) in REFERENCE_TABLE.items():
            assert staircase_kernel(n, d, m, g) == h0 - conditions, (n, d, m)
        for n in range(2, 10):
            for j, m in discard_search(n):
                assert staircase_kernel(n, j, m, g) == h0_plane(j) - condition_count(n, m), (n, j, m)


def test_staircase_kernel_agrees_with_the_degree_8_certificate():
    # the cubic double at the origin with contact 9 along y = x^2 + x^4 + x^8
    # is the staircase system (8; 3, 9), and neither has a solution
    assert staircase_kernel(8, 3, 9, STAIRCASE_JETS[0]) == 0 == n8_certificate(1).kernel_dim
