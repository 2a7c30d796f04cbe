"""Blow-up cluster walk: multiplicity sequences and the sum identity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seshadri.cluster import (
    BranchJet,
    branch_from_implicit,
    cluster_multiplicities,
    normalize_branch,
    pullback_mult,
)
from seshadri.series import INF, AtLeast, BiSeries, XSeries

from oracles import series_sum, undetermined_branch


def curve(coeffs, precision=INF):
    return BiSeries(coeffs, precision)


def cluster_sum_holds(c, n):
    """The pullback multiplicity is certified equal to the cluster sum."""
    res = cluster_multiplicities(c, n)
    return res.determinate and pullback_mult(c, n) == res.total


# ------------------------------------------------------------ normalization

def test_normalize_curve_equal_to_branch_jet():
    c = curve({(0, 1): 1, (2, 0): -1})  # y - x^2
    out = normalize_branch(c, BranchJet(XSeries({2: 1})))
    assert out == BiSeries({(0, 1): 1})


def test_normalize_zero_branch_is_identity():
    c = curve({(0, 1): 1})
    out = normalize_branch(c, BranchJet(XSeries({})))
    assert out == c


def test_normalize_expands_powers():
    c = curve({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    out = normalize_branch(c, BranchJet(XSeries({2: 1})))
    assert out == BiSeries({(0, 2): 1, (2, 1): 2, (4, 0): 1, (3, 0): -1})


def test_branch_must_vanish_at_origin():
    with pytest.raises(ValueError):
        BranchJet(XSeries({0: 1, 2: 1}))


def test_branch_from_coefficient_list():
    jet = BranchJet(XSeries(dict(enumerate([0, 0, 1, 0, 1]))))  # x^2 + x^4
    assert jet.g == XSeries({2: 1, 4: 1})
    assert jet.precision == INF
    with pytest.raises(ValueError):
        BranchJet(XSeries(dict(enumerate([1, 2]))))


# ------------------------------------------------------------- cluster walk

def test_transverse_line():
    res = cluster_multiplicities(curve({(1, 0): 1}), 3)
    assert res.mults == (1, 0, 0) and res.total == 1 and res.determinate


def test_tangent_to_order_three():
    res = cluster_multiplicities(curve({(0, 1): 1, (3, 0): -1}), 3)
    assert res.mults == (1, 1, 1) and res.total == 3 and res.determinate


def test_invariant_quintic_example():
    # downstairs curve x^5 + y^2 for a degree 3 covering: pullback has
    # multiplicity min(5, 3*2) = 5 and the walk sees (2, 2, 1)
    c = curve({(5, 0): 1, (0, 2): 1})
    res = cluster_multiplicities(c, 3)
    assert res.mults == (2, 2, 1) and res.total == 5
    assert pullback_mult(c, 3) == 5


def test_unit_curve_stops_walk():
    res = cluster_multiplicities(curve({(0, 0): 1, (1, 0): 3}), 4)
    assert res.mults == (0, 0, 0, 0) and res.total == 0 and res.determinate


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        cluster_multiplicities(curve({}), 2)
    with pytest.raises(ValueError):
        cluster_multiplicities(curve({(1, 0): 1}), 0)


def test_indeterminate_when_precision_runs_out():
    # knowing y only up to total degree 3 certifies two blow-up steps
    res = cluster_multiplicities(curve({(0, 1): 1}, precision=3), 4)
    assert not res.determinate
    assert res.mults == (1, 1, 0, 0)


# ---------------------------------------------------------------- pullback

def test_pullback_examples():
    assert pullback_mult(curve({(5, 0): 1, (0, 2): 1}), 3) == 5
    assert pullback_mult(curve({(0, 1): 1}), 4) == 4
    for n in (2, 3, 7):
        assert pullback_mult(curve({(1, 0): 1}), n) == 1


def test_pullback_zero_to_precision_sentinel():
    assert pullback_mult(curve({}, precision=6), 3) == AtLeast(6)


# ---------------------------------------------------------- sum identity

def test_verify_trivial_cases():
    assert cluster_sum_holds(curve({(1, 0): 1}), 5)
    assert cluster_sum_holds(curve({(0, 0): 2}), 3)


sparse_curves = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.integers(-9, 9),
    min_size=1,
    max_size=6,
)


@given(sparse_curves, st.integers(2, 6))
def test_sum_identity_property(coeffs, n):
    c = curve(coeffs)
    if c.is_zero:
        return
    assert cluster_sum_holds(c, n)


@given(sparse_curves, st.integers(2, 6))
def test_chain_bound_property(coeffs, n):
    c = curve(coeffs)
    if c.is_zero:
        return
    res = cluster_multiplicities(c, n)
    assert res.determinate
    prefix = 0
    for m in res.mults:
        assert m <= res.total - prefix
        prefix += m


def test_truncation_monotonicity():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            coeffs[(rng.randint(0, 8), rng.randint(0, 8))] = rng.randint(1, 9)
        n = rng.randint(2, 6)
        exact = cluster_multiplicities(curve(coeffs), n)
        prec = rng.randint(3, 30)
        truncated = cluster_multiplicities(curve(coeffs, precision=prec), n)
        if truncated.determinate:
            assert truncated.mults == exact.mults
        else:
            # the certified prefix never changes
            walked = [m for m in truncated.mults if m > 0]
            assert tuple(walked) == exact.mults[: len(walked)]


def test_coordinate_invariance_under_reparameterization():
    rng = random.Random(11)
    h_values = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]
    for _ in range(50):
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            coeffs[(rng.randint(0, 6), rng.randint(0, 6))] = rng.randint(-9, 9)
        series = BiSeries(coeffs)
        if series.is_zero:
            continue
        gdict = {k: rng.randint(-3, 3) for k in range(1, 5)}
        g = XSeries(gdict)
        lam = rng.choice(h_values)
        n = rng.randint(2, 5)
        # x -> x + lam*x^2 fixes the origin; substitute it into the curve and the branch
        hx, y, h = BiSeries({(1, 0): 1, (2, 0): lam}), BiSeries({(0, 1): 1}), XSeries({1: 1, 2: lam})
        moved_series = series_sum((BiSeries({(0, 0): c}) * hx**p * y**q
                                   for (p, q), c in series.coeffs.items()), BiSeries())
        moved_g = series_sum((XSeries({0: c}) * h**e for e, c in g.coeffs.items()), XSeries())
        base = cluster_multiplicities(normalize_branch(series, BranchJet(g)), n)
        moved = cluster_multiplicities(normalize_branch(moved_series, BranchJet(moved_g)), n)
        assert base.mults == moved.mults


# --------------------------------------------------------- implicit branch

# the traced entry and the series method it calls, each returning the graph g
SOLVERS = (lambda f, precision: branch_from_implicit(f, precision).g, BiSeries.solve_y)


def test_implicit_branch_simple_graph():
    for solve in SOLVERS:
        assert solve(BiSeries({(0, 1): 1, (2, 0): -1}), 8) == XSeries({2: 1}, 8)  # y - x^2


def test_implicit_branch_solves_to_requested_precision():
    f = BiSeries({(0, 1): 1, (0, 2): 1, (2, 0): -1})  # y + y^2 - x^2
    for solve in SOLVERS:
        g = solve(f, 12)
        assert g.precision == 12
        residual = f.substitute_y(g)
        assert residual.is_zero
        assert residual.precision >= 12
        # leading terms of the closed-form solution (-1 + sqrt(1 + 4x^2))/2
        assert g.coeffs[2] == 1
        assert g.coeffs[4] == -1
        assert g.coeffs[6] == 2


def test_implicit_branch_stops_at_the_precision_of_f():
    # the unknown x^4 term of F moves g at x^4: with +5*x^4, g = x^2 - 5*x^4
    truncated = BiSeries({(0, 1): 1, (2, 0): -1}, precision=4)
    completed = BiSeries({(0, 1): 1, (2, 0): -1, (4, 0): 5})
    for solve in SOLVERS:
        assert solve(truncated, 8) == XSeries({2: 1}, 4)
        assert solve(completed, 8) == XSeries({2: 1, 4: -5}, 8)


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _SMALL, max_size=6),
       _SMALL.filter(bool), st.integers(1, 24))
def test_newton_lift_matches_undetermined_coefficients(terms, slope, precision):
    terms.pop((0, 0), None)
    f = BiSeries({**terms, (0, 1): slope})
    expected = undetermined_branch(f, precision)
    assert branch_from_implicit(f, precision) == expected
    assert f.solve_y(precision) == expected.g


def test_newton_lift_matches_oracle_on_benchmark_branch():
    # the implicit-branch benchmark's F = y + a*x^2 + b*x^4 + c*x^2*y + d*x*y^2
    f = BiSeries({(0, 1): 1, (2, 0): 3, (4, 0): -5, (2, 1): 2, (1, 2): Fraction(-7, 2)})
    expected = undetermined_branch(f, 64)
    assert branch_from_implicit(f, 64) == expected
    assert f.solve_y(64) == expected.g


def test_implicit_branch_requires_transversality():
    tangent = BiSeries({(0, 2): 1, (2, 0): -1})  # dF/dy(0) = 0
    for solve in SOLVERS:
        for f in (tangent, BiSeries({}, 0), BiSeries({(0, 2): 1}, 1)):
            with pytest.raises(ValueError, match="nonzero y-coefficient at the origin"):
                solve(f, 8)
        with pytest.raises(ValueError, match="must pass through the origin"):
            solve(BiSeries({(0, 0): 1, (0, 1): 1}), 8)  # misses origin
        for precision in (0, -1):
            with pytest.raises(ValueError, match="precision must be"):
                solve(BiSeries({(0, 1): 1, (2, 0): -1}), precision)
