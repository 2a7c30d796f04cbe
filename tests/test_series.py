"""Truncated series: precision propagation, multiplication, substitution."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schoolbook_xmul, series_sum
from seshadri.series import (
    INF,
    AtLeast,
    BiSeries,
    XSeries,
    _kronecker,
    _xmul,
    order_meets,
)

coeffs = st.integers(min_value=-9, max_value=9)


def bi_series(max_deg=6, precision=st.sampled_from([INF, 6, 8, 10, 12])):
    keys = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.builds(
        BiSeries,
        st.dictionaries(keys, coeffs, max_size=6),
        precision,
    )


def x_series(max_deg=8, precision=st.sampled_from([INF, 6, 8, 10])):
    return st.builds(
        XSeries,
        st.dictionaries(st.integers(0, max_deg), coeffs, max_size=5),
        precision,
    )


# ------------------------------------------------------------------- ord

def test_ord_basic():
    assert XSeries({3: 1, 5: 1}).ord() == 3


def test_ord_zero_series_sentinel():
    assert XSeries({}, 12).ord() == AtLeast(12)
    assert str(AtLeast(12)) == ">= 12"


def test_order_meets_semantics():
    assert order_meets(AtLeast(12), 12)
    assert not order_meets(AtLeast(11), 12)
    assert order_meets(13, 12)
    assert order_meets(AtLeast(INF), 10**9)


# ---------------------------------------------------------- multiplication

def test_mul_example_one_minus_x_squared():
    f = BiSeries({(0, 0): 1, (1, 0): 1}, 10)
    g = BiSeries({(0, 0): 1, (1, 0): -1}, 10)
    assert f * g == BiSeries({(0, 0): 1, (2, 0): -1}, 10)


def test_mul_by_zero_keeps_precision():
    f = BiSeries({(0, 0): 1, (1, 0): 1}, 10)
    zero = BiSeries({}, 10)
    prod = f * zero
    assert prod.is_zero and prod.precision == 10
    # an exact zero also caps at f's precision under the min rule
    assert (f * BiSeries({})).precision == 10


def test_square_truncated_at_nine():
    s = XSeries({2: 1, 4: 1, 8: 1}, 9)
    assert s * s == XSeries({4: 1, 6: 2, 8: 1}, 9)


def test_mul_drops_beyond_shared_precision():
    f = BiSeries({(3, 0): 1}, 5)
    g = BiSeries({(4, 0): 1}, 9)
    prod = f * g
    assert prod.precision == 5 and prod.is_zero


@given(bi_series(), bi_series())
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(bi_series(), bi_series())
def test_mul_matches_termwise_expansion(f, g):
    # every pair of terms, truncated once at the end: the product without rows
    expected: dict[tuple[int, int], Fraction] = {}
    for (pa, qa), ca in f.coeffs.items():
        for (pb, qb), cb in g.coeffs.items():
            key = (pa + pb, qa + qb)
            expected[key] = expected.get(key, Fraction(0)) + ca * cb
    assert f * g == BiSeries(expected, min(f.precision, g.precision))


@given(bi_series(max_deg=4), bi_series(max_deg=4), bi_series(max_deg=4))
def test_mul_associative_at_shared_precision(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(bi_series(max_deg=4), bi_series(max_deg=4), bi_series(max_deg=4))
def test_mul_distributes(f, g, h):
    assert f * series_sum([g, h], BiSeries()) == series_sum([f * g, f * h], BiSeries())


@given(x_series(), x_series())
def test_ord_additive(f, g):
    of, og = f.ord(), g.ord()
    if isinstance(of, AtLeast) or isinstance(og, AtLeast):
        return
    prod = f * g
    if of + og < prod.precision:
        assert prod.ord() == of + og


# ---------------------------------------------------- the product kernel

# unit, small and huge (thousands of bits) numerators, integers that fill
# whole bytes (so a slot one bit too narrow overflows), and many distinct
# large denominators
coefficient_kinds = [
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-2**3000, 2**3000).filter(bool), st.integers(1, 9)),
    st.builds(lambda k, sign: Fraction(sign * (2 ** (8 * k) - 1)),
              st.integers(1, 4), st.sampled_from([1, -1])),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2**999, 2**1000)),
]
rationals = st.one_of(coefficient_kinds)


@st.composite
def xmul_operands(draw):
    """Runs of up to 24 terms of one coefficient kind or a mix, from a
    random start, every step-th exponent with holes: products of up to 576
    terms, dense and sparse, on both sides of the small-product cutoff (64)
    and of the guards."""
    start = draw(st.integers(0, 5))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    size = draw(st.sampled_from([24, 16, 9, 8, 4, 1, 0]))
    kind = draw(st.sampled_from(coefficient_kinds + [rationals]))
    run = draw(st.lists(kind, min_size=size, max_size=size))
    holes = draw(st.sets(st.integers(0, 23), max_size=4))
    return {start + step * i: c for i, c in enumerate(run) if i not in holes}


@st.composite
def xmul_cases(draw):
    a, b = draw(xmul_operands()), draw(xmul_operands())
    floor = min(a, default=0) + min(b, default=0)
    # no cap, one that cuts inside the product, and one at or below its
    # lowest exponent
    cap = draw(st.one_of(st.just(INF), st.integers(floor + 1, floor + 60),
                         st.integers(0, floor)))
    return a, b, cap


@settings(max_examples=300, deadline=None)
@given(xmul_cases(), st.dictionaries(st.integers(0, 80), rationals, max_size=4))
def test_xmul_matches_schoolbook(case, out):
    a, b, cap = case
    expected = schoolbook_xmul(a, b, cap, dict(out))
    got = _xmul(a, b, cap, out)
    assert got is out and got == expected and all(got.values())


@settings(max_examples=100, deadline=None)
@given(xmul_cases())
def test_xmul_accumulation_cancels_to_an_empty_dict(case):
    a, b, cap = case
    out = {e: -c for e, c in schoolbook_xmul(a, b, cap).items()}
    assert _xmul(a, b, cap, out) == {}


def test_xmul_packs_only_large_dense_products():
    dense = [(e, Fraction(e + 1, 3)) for e in range(9)]
    # 8 * 8 terms stay below the small-product cutoff, 9 * 9 do not
    assert _kronecker(dense[:8], dense[:8], INF) is None
    assert _kronecker(dense, dense, INF) is not None
    # every third exponent: more empty slots than terms
    sparse = [(3 * e, c) for e, c in dense]
    assert _kronecker(sparse, dense, INF) is None
    a, b = dict(dense), dict(sparse)
    assert _xmul(a, b, 20) == schoolbook_xmul(a, b, 20)
    # a far exponent must not allocate the slots of its gap
    far = {**a, 10**12: Fraction(1)}
    assert _xmul(far, far, INF) == schoolbook_xmul(far, far, INF)


def test_xmul_keeps_the_loop_when_the_lcm_outgrows_the_denominators():
    # 64 distinct 1000-bit denominators have an lcm of about 64000 bits;
    # packing over it took about 4x the term-by-term loop
    rng = random.Random(5)
    a, b = ({e: Fraction(rng.randint(1, 9), rng.getrandbits(1000) | 1 << 999 | 1)
             for e in range(64)} for _ in range(2))
    started = time.perf_counter()
    expected = schoolbook_xmul(a, b, INF)
    loop = time.perf_counter() - started
    started = time.perf_counter()
    got = _xmul(a, b, INF)
    assert time.perf_counter() - started < 2 * loop + 0.5
    assert got == expected


# ------------------------------------------------------------ substitution

def test_substitute_identity_on_y():
    f = BiSeries({(0, 1): 1})
    g = XSeries({2: 1, 4: 1, 8: 1})
    assert f.substitute_y(g) == g


def test_substitute_kills_branch_jet():
    f = BiSeries({(0, 1): 1, (2, 0): -1})  # y - x^2
    out = f.substitute_y(XSeries({2: 1}))
    assert out.is_zero and out.precision == INF


def test_substitute_xy_with_certified_tail():
    f = BiSeries({(1, 1): 1})  # x*y
    g = XSeries({2: 1, 4: 1, 8: 1}, 10)
    out = f.substitute_y(g)
    assert out.coeffs == {3: Fraction(1), 5: Fraction(1), 9: Fraction(1)}
    # tightest provable: x * (unknown tail of g) starts at 1 + 10
    assert out.precision == 11
    assert out.ord() == 3


def test_substitute_requires_vanishing_constant():
    with pytest.raises(ValueError):
        BiSeries({(0, 1): 1}).substitute_y(XSeries({0: 1, 2: 1}))


def test_substitute_exact_zero_branch():
    f = BiSeries({(0, 1): 1, (3, 0): 2})
    out = f.substitute_y(XSeries({}))
    assert out == XSeries({3: 2})


@given(bi_series(max_deg=4, precision=st.just(INF)),
       st.dictionaries(st.integers(1, 4), coeffs, max_size=3))
def test_substitute_polynomial_matches_expansion(f, gdict):
    # brute-force expansion oracle over exact polynomials
    g = XSeries(gdict)
    out = f.substitute_y(g)
    expected: dict[int, Fraction] = {}
    for (p, q), c in f.coeffs.items():
        gq = XSeries({0: 1})
        for _ in range(q):
            gq = gq * g
        for e, ge in gq.coeffs.items():
            expected[p + e] = expected.get(p + e, Fraction(0)) + c * ge
    assert out == XSeries(expected)


# ------------------------------------------------------------- translation

def test_translate_moves_branch_to_axis():
    c = BiSeries({(0, 1): 1, (2, 0): -1})  # y - x^2
    assert c.translate_y(XSeries({2: 1})) == BiSeries({(0, 1): 1})


def test_translate_identity_branch():
    c = BiSeries({(0, 1): 1})
    assert c.translate_y(XSeries({})) == c


def test_translate_expands_square():
    c = BiSeries({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    out = c.translate_y(XSeries({2: 1}))
    assert out == BiSeries({(0, 2): 1, (2, 1): 2, (4, 0): 1, (3, 0): -1})


def test_translate_precision_cut():
    c = BiSeries({(1, 1): 1})  # x*y: the g-tail enters at order 1 + precision
    out = c.translate_y(XSeries({2: 1}, 6))
    assert out.precision == 7


# --------------------------------------------------------------- precision

def test_power_of_one_term_is_one_term_below_precision():
    assert BiSeries({(1, 2): Fraction(-3, 2)}) ** 5 == BiSeries({(5, 10): Fraction(-243, 32)})
    assert XSeries({1: 2}, 5) ** 4 == XSeries({4: 16}, 5)
    assert (XSeries({1: 2}, 5) ** 5).is_zero
    assert XSeries({1: 2}, 1) ** 0 == XSeries({0: 1}, 1)
    assert (XSeries({1: 2}, 0) ** 0).is_zero


def test_cross_type_equality_is_not_implemented():
    assert XSeries({}).__eq__(BiSeries({})) is NotImplemented
    assert XSeries({0: 1}) != BiSeries({(0, 0): 1})


def test_precision_validation():
    with pytest.raises(ValueError):
        XSeries({}, -1)
    with pytest.raises(ValueError):
        BiSeries({}, 2.5)


# -------------------------------------------------------------- formatting

def test_str_deterministic_and_readable():
    s = BiSeries({(0, 2): 1, (2, 1): 2, (4, 0): 1, (3, 0): -1})
    assert str(s) == "y^2 - x^3 + 2*x^2*y + x^4"
    assert str(BiSeries({})) == "0"
    assert str(XSeries({0: Fraction(3, 2), 2: -1})) == "3/2 - x^2"
