"""Local intersection with the branch, against a resultant oracle."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from seshadri.cluster import BranchJet, cluster_multiplicities, normalize_branch
from seshadri.conditions import h0_plane
from seshadri.intersection import local_intersection
from seshadri.series import AtLeast, BiSeries, XSeries, order_meets

from oracles import resultant_intersection_order, series_sum, undetermined_branch


def query(curve_coeffs, branch_coeffs, precision=None):
    """The (curve, branch) arguments of local_intersection."""
    series = BiSeries(curve_coeffs)
    g = XSeries(branch_coeffs) if precision is None else XSeries(branch_coeffs, precision)
    return series, BranchJet(g)


def test_branch_tangency_order_two():
    assert local_intersection(*query({(0, 1): 1}, {2: 1, 4: 1, 8: 1})) == 2


def test_transverse_line_order_one():
    assert local_intersection(*query({(1, 0): 1}, {2: 1, 4: 1, 8: 1})) == 1
    assert local_intersection(*query({(1, 0): 1}, {})) == 1


def test_cancellation_to_order_eight():
    # y - x^2 - x^4 against the branch x^2 + x^4 + x^8
    assert local_intersection(*query({(0, 1): 1, (2, 0): -1, (4, 0): -1},
                                     {2: 1, 4: 1, 8: 1})) == 8


def test_curve_containing_branch_jet_gives_sentinel():
    result = local_intersection(*query({(0, 1): 1, (2, 0): -1}, {2: 1}, precision=9))
    assert result == AtLeast(9)


def test_veronese_bound_values():
    # the contact bound at a very general branch point is h0(O(j))
    assert h0_plane(1) == 3
    assert h0_plane(2) == 6
    assert h0_plane(3) == 10
    assert h0_plane(0) == 1


curves = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-9, 9),
    min_size=1,
    max_size=6,
)
branches = st.dictionaries(st.integers(1, 6), st.integers(-9, 9), max_size=4)


@given(curves, branches)
def test_intersection_dominates_multiplicity(curve_coeffs, branch_coeffs):
    curve, branch = query(curve_coeffs, branch_coeffs)
    if curve.is_zero:
        return
    mult = curve.multiplicity()
    # the branch is smooth, so the intersection order is at least the
    # curve multiplicity at the origin
    assert order_meets(local_intersection(curve, branch), mult)


def test_matches_resultant_oracle_on_random_instances():
    rng = random.Random(20240917)
    checked = 0
    while checked < 200:
        curve_coeffs = {}
        for _ in range(rng.randint(1, 6)):
            p, q = rng.randint(0, 5), rng.randint(0, 5)
            if p + q <= 5:
                curve_coeffs[(p, q)] = Fraction(rng.randint(-9, 9))
        curve_coeffs = {k: c for k, c in curve_coeffs.items() if c}
        if not curve_coeffs:
            continue
        branch_coeffs = {e: Fraction(rng.randint(-9, 9)) for e in range(1, rng.randint(2, 6))}
        branch_coeffs = {e: c for e, c in branch_coeffs.items() if c}
        got = local_intersection(*query(curve_coeffs, branch_coeffs))
        expected = resultant_intersection_order(curve_coeffs, branch_coeffs)
        if expected is None:
            assert isinstance(got, AtLeast)
        else:
            assert got == expected, (curve_coeffs, branch_coeffs)
        checked += 1
    assert checked == 200


@given(curves, branches, st.integers(2, 5))
def test_intersection_dominates_cluster_sum(curve_coeffs, branch_coeffs, n):
    series = BiSeries(curve_coeffs)
    branch = BranchJet(XSeries(branch_coeffs))
    normalized = normalize_branch(series, branch)
    if normalized.is_zero:
        return
    res = cluster_multiplicities(normalized, n)
    contact = local_intersection(series, branch)
    assert order_meets(contact, res.total)


@settings(max_examples=80, deadline=None)
@given(curves, branches, st.none() | st.integers(1, 8), st.none() | curves)
def test_cluster_sum_is_the_resultant_intersection_number(curve_coeffs, branch_coeffs, k,
                                                          implicit):
    # Noether's formula (C.B)_0 = sum of m_i(C) over the infinitely near
    # points of the smooth branch B, checked against the sympy resultant.
    # B is y = g for a polynomial g, or F = 0 for F = y + implicit, solved
    # by the oracle; C is random, or (y - g)*h + x^k, of contact k with B.
    f = BiSeries({**implicit, (0, 1): 1, (0, 0): 0}) if implicit is not None else None
    if f is not None:  # the resultant sees g mod x^16, exact for contact below 16
        branch_coeffs = undetermined_branch(f, 16).g.coeffs
    curve = BiSeries(curve_coeffs)
    if k is not None:
        line = BiSeries({(0, 1): 1, **{(e, 0): -c for e, c in branch_coeffs.items()}})
        curve = series_sum([line * BiSeries({**curve_coeffs, (0, 0): 1})],
                           BiSeries({(k, 0): 1}))
    assume(not curve.is_zero)
    contact = resultant_intersection_order(curve.coeffs, branch_coeffs)
    assume(contact is not None and (f is None or contact < 16))
    if k is not None:
        assert contact == k
    g = undetermined_branch(f, contact + 1).g if f is not None else XSeries(branch_coeffs)
    res = cluster_multiplicities(normalize_branch(curve, BranchJet(g)), contact + 1)
    assert res.determinate and res.total == contact
