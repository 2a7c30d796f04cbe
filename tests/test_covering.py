"""Covering data, multi-point bounds, and the numeric inequality oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seshadri.covering import CoveringSpec, nagata_upper, plane_constant, steffens_bounds
from seshadri.exact import SurdValue, surd_compare

from oracles import is_perfect_square, numeric_inequality_check


def test_covering_spec_validation():
    with pytest.raises(ValueError):
        CoveringSpec(n=1)
    with pytest.raises(ValueError):
        CoveringSpec(n=2, L2=0)
    assert CoveringSpec(n=4).pullback_self_intersection == 4
    assert CoveringSpec(n=3, L2=2).pullback_self_intersection == 6


# ---------------------------------------------------------------- bounds

def test_bounds_square_case():
    b = steffens_bounds(CoveringSpec(n=4), 1)
    assert b.lower == 2 and b.upper == SurdValue(Fraction(2)) and b.maximal


def test_bounds_two_points_double_cover():
    b = steffens_bounds(CoveringSpec(n=2), 2)
    assert b.lower == 1 and b.upper == SurdValue(Fraction(1)) and b.maximal


def test_bounds_n7():
    b = steffens_bounds(CoveringSpec(n=7), 1)
    assert b.lower == 2
    assert b.upper == SurdValue(Fraction(1), 7)
    assert not b.maximal


def test_bounds_reject_zero_points():
    with pytest.raises(ValueError):
        steffens_bounds(CoveringSpec(n=2), 0)


def test_bounds_grid_maximal_iff_perfect_square():
    for n in range(2, 21):
        for l2 in range(1, 10):
            for r in range(1, 21):
                b = steffens_bounds(CoveringSpec(n=n, L2=l2), r)
                assert surd_compare(SurdValue(b.lower), b.upper) <= 0
                assert b.maximal == is_perfect_square(r * n * l2)
                if b.maximal:
                    assert b.upper == SurdValue(b.lower)


# --------------------------------------------------- numeric inequality

def test_numeric_inequality_examples():
    assert numeric_inequality_check([0, 0, 0], 0)
    assert numeric_inequality_check([1], 0)
    # r=3, sum of squares 14, M=6: 3*(14-1) = 39 >= 30
    assert numeric_inequality_check([3, 1, 2], 1)


def test_numeric_inequality_rejects_bad_input():
    with pytest.raises(ValueError):
        numeric_inequality_check([], 0)
    with pytest.raises(ValueError):
        numeric_inequality_check([1, -1], 0)
    with pytest.raises(ValueError):
        numeric_inequality_check([1, 2], 2)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12),
       st.data())
def test_numeric_inequality_always_holds(mults, data):
    index = data.draw(st.integers(0, len(mults) - 1))
    assert numeric_inequality_check(mults, index)


# ----------------------------------------------------------------- nagata

def test_nagata_upper_examples():
    assert nagata_upper(CoveringSpec(n=9), SurdValue(Fraction(1, 3))) == SurdValue(Fraction(3))
    assert nagata_upper(CoveringSpec(n=2), SurdValue(Fraction(1, 2))) == SurdValue(Fraction(1))
    assert nagata_upper(CoveringSpec(n=5), SurdValue(Fraction(2, 5))) == SurdValue(Fraction(2))
    # the coefficient is scaled, the radicand kept
    assert nagata_upper(CoveringSpec(n=3), SurdValue(Fraction(1, 9), 3)) == SurdValue(Fraction(1, 3), 3)


@given(st.integers(2, 30),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10), max_denominator=100),
       st.integers(1, 50))
def test_nagata_upper_scales_linearly(n, eps, radicand):
    spec = CoveringSpec(n=n)
    single = nagata_upper(spec, SurdValue(eps, radicand))
    doubled = nagata_upper(spec, SurdValue(2 * eps, radicand))
    assert doubled == SurdValue(2 * single.coeff, single.radicand)
    assert single == SurdValue(n * eps, radicand)


# ------------------------------------------------------- plane constants

# the Seshadri constant of O(1) at r very general plane points, from the
# literature (Nagata 1959; Bauer et al., "A primer on Seshadri constants")
LITERATURE_PLANE_CONSTANTS = {
    1: SurdValue(Fraction(1)), 2: SurdValue(Fraction(1, 2)), 3: SurdValue(Fraction(1, 2)),
    4: SurdValue(Fraction(1, 2)), 5: SurdValue(Fraction(2, 5)), 6: SurdValue(Fraction(2, 5)),
    7: SurdValue(Fraction(3, 8)), 8: SurdValue(Fraction(6, 17)), 9: SurdValue(Fraction(1, 3)),
}


def test_known_constants_values():
    for r, value in LITERATURE_PLANE_CONSTANTS.items():
        assert plane_constant(r) == value, r


def test_nagata_conjectural_values():
    # 1/sqrt(r) from 9 points on: a theorem for square r, the Nagata conjecture otherwise
    assert plane_constant(9) == SurdValue(Fraction(1, 3))
    assert plane_constant(16) == SurdValue(Fraction(1, 4))
    assert plane_constant(10) == SurdValue(Fraction(1, 10), 10)


def test_plane_constant_rejects_fewer_than_one_point():
    with pytest.raises(ValueError):
        plane_constant(0)
    assert plane_constant(8) == SurdValue(Fraction(6, 17))
