"""Exact scalar layer: square-free parts, surds, rational matrices."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from seshadri import exact
from seshadri.exact import (
    MAX_RADICAND,
    RatMatrix,
    SurdValue,
    _eliminate,
    _integer_row,
    _pack,
    _primes,
    _unpack,
    square_free_split,
    surd_compare,
)
from seshadri.witness import n8_certificate

from seshadri.parsing import parse_branch
from seshadri.witness import WitnessProblem, solve_witness

from oracles import bareiss_rref, compare_numeric, rational_rref

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


# ---------------------------------------------------------------- integers

@given(st.integers(min_value=1, max_value=10**6))
def test_square_free_split_reconstructs(n):
    outer, core = square_free_split(n)
    assert outer * outer * core == n
    # independent square-freeness check by trial division
    d = 2
    while d * d <= core:
        assert core % (d * d) != 0
        d += 1


def test_square_free_split_radicand_limit():
    # the largest prime below the limit is the slowest case trial division meets
    start = time.perf_counter()
    assert square_free_split(MAX_RADICAND - 11) == (1, MAX_RADICAND - 11)
    assert square_free_split(MAX_RADICAND) == (10**6, 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="exceeds the limit"):
        square_free_split(MAX_RADICAND + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        SurdValue(Fraction(1), 10**18 + 3)


# ------------------------------------------------------------------- surds

def test_surd_normalization_perfect_square():
    assert SurdValue(Fraction(1), 4) == SurdValue(Fraction(2), 1)


def test_surd_normalization_square_factor():
    s = SurdValue(Fraction(1), 8)
    assert s.coeff == 2 and s.radicand == 2


def test_surd_zero_forms():
    assert SurdValue(Fraction(0), 7).radicand == 1
    assert SurdValue(Fraction(3), 0) == SurdValue(Fraction(0), 1)


def test_surd_rejects_negative_radicand():
    with pytest.raises(ValueError):
        SurdValue(Fraction(1), -2)


def test_surd_compare_via_squaring():
    assert surd_compare(SurdValue(Fraction(1), 2), SurdValue(Fraction(3, 2), 1)) == -1
    assert surd_compare(SurdValue(Fraction(1), 4), SurdValue(Fraction(2), 1)) == 0


def test_surd_compare_48_17_below_sqrt8():
    # integer cross-multiplication: (48/17)^2 = 2304/289 against 8 = 2312/289
    assert 48 * 48 < 8 * 17 * 17
    assert surd_compare(SurdValue(Fraction(48, 17)), SurdValue(Fraction(1), 8)) == -1


def test_surd_str_forms():
    assert str(SurdValue(Fraction(3, 2))) == "3/2"
    assert str(SurdValue(Fraction(1), 7)) == "sqrt(7)"
    assert str(SurdValue(Fraction(-1), 2)) == "-sqrt(2)"
    assert str(SurdValue(Fraction(1, 2), 3)) == "(1/2)*sqrt(3)"


surd_coeffs = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**3
)
surd_radicands = st.integers(min_value=0, max_value=10**6)


@given(surd_coeffs, surd_radicands, surd_coeffs, surd_radicands)
def test_surd_compare_matches_numeric_oracle(ca, ra, cb, rb):
    # floats and mpmath appear only here, in the oracle, never in the library
    a, b = SurdValue(ca, ra), SurdValue(cb, rb)
    expected = compare_numeric((a.coeff, a.radicand), (b.coeff, b.radicand))
    assert surd_compare(a, b) == expected


@given(surd_coeffs, surd_radicands)
def test_surd_compare_reflexive_and_antisymmetric(c, r):
    v, negated = SurdValue(c, r), SurdValue(-c, r)
    assert surd_compare(v, v) == 0
    assert surd_compare(v, negated) == -surd_compare(negated, v)


# --------------------------------------------------------------- rationals

@given(rationals, rationals)
def test_rat_addition_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals.filter(lambda a: a != 0))
def test_rat_multiplicative_inverse(a):
    assert a * (Fraction(1) / a) == 1


# ---------------------------------------------------------------- matrices

def test_identity_kernel_trivial():
    basis = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], cols=3).kernel()
    assert basis == []


def test_zero_matrix_kernel_full():
    basis = RatMatrix([[0] * 5, [0] * 5], cols=5).kernel()
    assert len(basis) == 5


def test_empty_matrix_needs_cols():
    with pytest.raises(TypeError):
        RatMatrix([])
    m = RatMatrix([], cols=4)
    assert len(m.kernel()) == 4


def test_entries_are_fractions():
    row = [1, Fraction(1, 2)]
    m = RatMatrix([row, [0, Fraction(3)]], cols=2)
    row[0] = 5
    assert m.entries == [[1, Fraction(1, 2)], [0, 3]]
    assert all(type(v) is Fraction for r in m.entries for v in r)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]], cols=2)
    with pytest.raises(ValueError):
        RatMatrix([[1, 2]], cols=3)


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(small_matrices)
def test_rank_nullity(entries):
    m = RatMatrix(entries, cols=len(entries[0]))
    basis = m.kernel()
    assert len(basis) + len(m.rref()[1]) == m.cols
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m.entries)


def test_kernel_vectors_exact():
    m = RatMatrix([[2, 4, 6], [1, 2, 3]], cols=3)
    basis = m.kernel()
    assert len(basis) == 2
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m.entries)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def rank_deficient_matrices(draw, max_rows=8, max_cols=8, entries=small_rationals):
    """0-max_rows rows and 1-max_cols columns; besides fresh rows, a row may
    be zero, a copy of an earlier row or a combination of two earlier rows."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "sum"]))
        if kind == "zero":
            rows.append([Fraction(0)] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "sum" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(small_rationals)
            rows.append([u + k * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return rows, cols


@given(rank_deficient_matrices())
@example(([[Fraction(0)] * 4] * 3, 4))
@example(([], 3))
@example(([[Fraction(1, 2)], [Fraction(-3)], [Fraction(0)]], 1))
def test_rref_matches_rational_oracle(matrix):
    entries, cols = matrix
    assert RatMatrix(entries, cols=cols).rref() == rational_rref(entries, cols)


@settings(max_examples=25, deadline=None)
@given(rank_deficient_matrices())
@example(([[Fraction(0)] * 4] * 3, 4))
def test_rref_matches_sympy(matrix):
    entries, cols = matrix
    reduced, pivots = RatMatrix(entries, cols=cols).rref()
    expected, expected_pivots = sympy.Matrix(
        len(entries), cols, [sympy.Rational(v.numerator, v.denominator) for row in entries for v in row]
    ).rref()
    assert pivots == list(expected_pivots)
    assert reduced == [[Fraction(int(v.p), int(v.q)) for v in expected.row(i)]
                       for i in range(len(entries))]


def test_rref_matches_oracle_on_degree8_witness_system(monkeypatch):
    # the degree-8 system of the benchmark's witness batch at the Veronese
    # edge: h0 - C(m+1, 2) + m - 1 = 45 - 3 + 2 - 1 = 43 for m = 2; the
    # system keeps the 42 monomials of degree >= 2 and the rows e = 2..42
    systems = []
    kernel = RatMatrix.kernel

    def recording_kernel(self):
        systems.append(self)
        return kernel(self)

    monkeypatch.setattr(RatMatrix, "kernel", recording_kernel)
    branch = parse_branch("y=x-3/2*x^2+2*x^3+1/2*x^4-3*x^5+3/2*x^10", 128)
    verdict = solve_witness(WitnessProblem(branch=branch, degree=8, mult=2, target=43))
    assert verdict.kernel_dim == 1
    (system,) = systems
    assert (system.rows, system.cols) == (41, 42)
    assert system.rref() == rational_rref(system.entries, system.cols)


# entries far past the primes below 2^30 that the elimination works with
large_rationals = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**100))


@settings(deadline=None)
@given(st.one_of(rank_deficient_matrices(max_rows=12, max_cols=4),
                 rank_deficient_matrices(entries=large_rationals)))
@example(([[Fraction(0)] * 3] * 5, 3))
@example(([], 2))
@example(([[Fraction(2**300 + 1, 3**50)], [Fraction(-1, 2**90)]], 1))
def test_rref_matches_both_oracles(matrix):
    entries, cols = matrix
    got = RatMatrix(entries, cols=cols).rref()
    assert got == rational_rref(entries, cols)
    assert got == bareiss_rref(entries, cols)


def first_primes(seed: int, count: int) -> list[int]:
    primes = []
    for p in _primes(seed):
        primes.append(p)
        if len(primes) == count:
            return primes


P = sympy.prevprime(2**30)


def test_primes_start_at_the_largest_below_2_to_the_30_then_follow_the_seed():
    for seed in (0, 1, -7, 2**100):
        primes = first_primes(seed, 6)
        assert primes[0] == P
        assert all(2**29 < p < 2**30 and sympy.isprime(p) for p in primes)
        assert first_primes(seed, 6) == primes
    assert first_primes(0, 3)[1:] != first_primes(1, 3)[1:]


@pytest.fixture
def primes_used(monkeypatch):
    """The primes rref draws, in order."""
    used: list[int] = []
    draw = exact._primes

    def recording(seed):
        for p in draw(seed):
            used.append(p)
            yield p

    monkeypatch.setattr(exact, "_primes", recording)
    return used


def test_unlucky_prime_with_other_pivots_gives_the_rational_rref(primes_used):
    # mod P column 1 repeats column 0, so P picks columns 0 and 2 as pivots
    # where Q picks 0 and 1; the rank is 2 either way
    entries = [[Fraction(1), Fraction(1), Fraction(0), Fraction(2)],
               [Fraction(1), Fraction(1 + P), Fraction(1), Fraction(0)]]
    assert _eliminate([_integer_row(row) for row in entries], P, 4)[0] == [0, 2]
    got = RatMatrix(entries, cols=4).rref()
    assert got[1] == [0, 1]
    assert got == rational_rref(entries, 4) == bareiss_rref(entries, 4)
    assert primes_used[0] == P and len(primes_used) == 2


@pytest.mark.parametrize("entries", [
    [[1, 1], [1, 1 + P]],  # rank 1 mod P, 2 over Q
    [[P, 1], [0, P]],  # the lifted vector solves row 0 but not row 1
    [[1, 1, 1], [1, 1 + P, 1 + 2 * P]],  # kernel 1 over Q, 2 mod P
])
def test_rank_drop_mod_p_moves_to_the_next_prime(entries, primes_used):
    rows = [[Fraction(v) for v in row] for row in entries]
    cols = len(rows[0])
    m = RatMatrix(rows, cols=cols)
    assert m.rref() == rational_rref(rows, cols) == bareiss_rref(rows, cols)
    assert primes_used[0] == P and len(primes_used) == 2
    for v in m.kernel():
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_a_run_of_the_largest_primes_costs_one_extra_prime(primes_used):
    # the determinant is divisible by the 20 largest primes below 2^30; after
    # the first, primes are hashed from the matrix, not taken in order
    run = [P]
    while len(run) < 20:
        run.append(sympy.prevprime(run[-1]))
    det = 1
    for p in run:
        det *= p
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + det)]]
    assert RatMatrix(rows, cols=2).rref() == rational_rref(rows, 2)
    assert len(primes_used) == 2 and primes_used[1] not in run


def test_every_unlucky_prime_is_passed_over(monkeypatch):
    primes = [P, sympy.prevprime(P), sympy.prevprime(sympy.prevprime(P))]
    used: list[int] = []

    def fixed_primes(seed):
        for p in primes:
            used.append(p)
            yield p

    monkeypatch.setattr(exact, "_primes", fixed_primes)
    both = primes[0] * primes[1]
    # rank 1 mod each of the first two primes, 2 over Q
    square = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + both)]]
    # the first two primes pick columns 0 and 2 as pivots, Q picks 0 and 1
    wide = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(1), Fraction(1 + both), Fraction(1)]]
    for rows, cols in ((square, 2), (wide, 3)):
        used.clear()
        assert RatMatrix(rows, cols=cols).rref() == rational_rref(rows, cols) == bareiss_rref(rows, cols)
        assert used == primes


def test_column_contents_are_divided_out_and_restored():
    # column j of a is c_j times a small column: the reduced rows carry c_j / c_pivot
    big = 10**400 + 1
    entries = [[Fraction(big), Fraction(3), Fraction(big**2)], [Fraction(2 * big), Fraction(5), Fraction(7 * big**2)]]
    assert RatMatrix(entries, cols=3).rref() == rational_rref(entries, 3) == bareiss_rref(entries, 3)


def test_full_column_rank_mod_p_needs_no_lifting(monkeypatch):
    def no_lift(*args):
        raise AssertionError("rank mod p alone settles a zero kernel")

    monkeypatch.setattr(exact, "_lift", no_lift)
    tall = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4, 5)], [Fraction(6), Fraction(7)]]
    assert RatMatrix(tall, cols=2).rref() == rational_rref(tall, 2)
    assert RatMatrix(tall, cols=2).kernel() == []
    # the degree-8 certificate's 7 x 7 system has kernel 0
    assert not n8_certificate(1).exists


@given(st.lists(st.integers(-2**40, 2**40), max_size=20), st.integers(6, 9))
def test_unpack_inverts_pack(values, width):
    assert _unpack(_pack(enumerate(values), len(values), width), len(values), width) == values
