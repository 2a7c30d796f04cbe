"""Truncated series: precision propagation, multiplication, substitution."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schoolbook_substitute_y, schoolbook_translate_y, schoolbook_xmul, series_sum
from seshadri import series
from seshadri.exact import _pack
from seshadri.parsing import parse_branch, parse_terms
from seshadri.series import (
    INF,
    AtLeast,
    BiSeries,
    XSeries,
    _imul,
    _integers,
    _loop,
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
    product = XSeries(a, cap) * XSeries(b, cap)
    assert product.coeffs == schoolbook_xmul(a, b, cap) and product.precision == cap
    assert all(type(c) is Fraction for c in product.coeffs.values())
    # the term loop on Fraction dicts, added into a non-empty out
    expected = schoolbook_xmul(a, b, cap, dict(out))
    got = _loop(a, b, cap, out)
    assert got is out and got == expected and all(got.values())


@settings(max_examples=100, deadline=None)
@given(xmul_cases())
def test_xmul_accumulation_cancels_to_an_empty_dict(case):
    a, b, cap = case
    product = schoolbook_xmul(a, b, cap)
    assert _loop(a, b, cap, {e: -c for e, c in product.items()}) == {}
    # the same on the numerators and the product that XSeries products use
    ((na, da), (nb, db)), mul = _integers(a, b)
    assert mul(na, nb, cap, {e: -c * da * db for e, c in product.items()}) == {}


def test_integers_decides_at_the_lcm_boundary():
    # the longest denominator, 2^99, has 100 bits, so the rule allows an lcm
    # of 2 * 100 + 64 = 264 bits: 2^99 * 3^60 * d for d prime to 6
    def operand(lcm_bits):
        d = 2 ** (lcm_bits - 1) // (2**99 * 3**60) + 1
        while d % 2 == 0 or d % 3 == 0:
            d += 1
        coeffs = {0: Fraction(1, 2**99), 1: Fraction(1, 3**60), 2: Fraction(1, d)}
        assert lcm(*(c.denominator for c in coeffs.values())).bit_length() == lcm_bits
        return coeffs

    at, over, small = operand(264), operand(265), {0: Fraction(1, 3), 4: Fraction(2)}
    for operands in ((at,), (small, at), (at, small)):
        scaled, mul = _integers(*operands)
        assert mul is _imul
        for (nums, den), coeffs in zip(scaled, operands):
            assert den == lcm(*(c.denominator for c in coeffs.values()))
            assert {k: Fraction(n, den) for k, n in nums.items()} == coeffs
    for operands in ((over,), (small, over), (over, small), (over, at)):
        assert _integers(*operands) == ([(c, 1) for c in operands], _loop)


@st.composite
def imul_operands(draw):
    """xmul_operands' exponents (runs, holes, every step-th: sparse) with
    integers of one bit size, so that a small side also meets a huge one
    (lopsided)."""
    bits = draw(st.sampled_from([4, 150, 3000, 9000]))
    return {e: draw(st.integers(-2**bits, 2**bits).filter(bool)) for e in draw(xmul_operands())}


@st.composite
def imul_cases(draw):
    a, b = draw(imul_operands()), draw(imul_operands())
    floor = min(a, default=0) + min(b, default=0)
    cap = draw(st.one_of(st.just(INF), st.integers(floor + 1, floor + 60), st.integers(0, floor)))
    return a, b, cap


@settings(max_examples=200, deadline=None)
@given(imul_cases(),
       st.dictionaries(st.integers(0, 80), st.integers(-2**200, 2**200).filter(bool), max_size=4))
def test_imul_matches_schoolbook(case, out):
    a, b, cap = case
    expected = schoolbook_xmul(a, b, cap, dict(out))
    got = _imul(a, b, cap, out)
    assert got is out and got == expected and all(got.values())


def test_imul_packs_only_large_dense_products(monkeypatch):
    packed = []
    monkeypatch.setattr(series, "_pack", lambda *args: packed.append(args[1]) or _pack(*args))

    def packs(a, b):
        packed.clear()
        assert _imul(a, b, INF, {}) == schoolbook_xmul(a, b, INF)
        return bool(packed)

    dense = {e: e + 1 for e in range(24)}
    small = {e: c for e, c in dense.items() if e < 12}
    # 12 * 12 small terms cost less in the loop, 24 * 24 do not
    assert not packs(small, small)
    assert packs(dense, dense)
    # every fourth exponent: more empty slots than terms
    sparse = {4 * e: c for e, c in dense.items()}
    assert not packs(sparse, sparse)
    # 9000-bit terms against 16-bit ones would pack the short side at the
    # long side's slot width
    rng = random.Random(3)
    wide = {e: rng.getrandbits(9000) | 1 for e in range(64)}
    narrow = {e: rng.getrandbits(16) | 1 for e in range(64)}
    assert not packs(wide, narrow)
    assert packs(wide, wide)
    # XSeries products reach it on numerators over one denominator
    a, b = {e: Fraction(c, 3) for e, c in dense.items()}, {e: Fraction(c) for e, c in sparse.items()}
    assert (XSeries(a, 20) * XSeries(b, 20)).coeffs == schoolbook_xmul(a, b, 20)
    # a far exponent must not allocate the slots of its gap
    far = {**a, 10**12: Fraction(1)}
    assert (XSeries(far) * XSeries(far)).coeffs == schoolbook_xmul(far, far, INF)


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
    got = XSeries(a) * XSeries(b)
    assert time.perf_counter() - started < 2 * loop + 0.5
    assert got.coeffs == expected


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


# ------------------------------------------- differential and hostile inputs

def rational_bi_series(precision):
    keys = st.tuples(st.integers(0, 6), st.integers(0, 5))
    return st.builds(BiSeries, st.dictionaries(keys, rationals, max_size=8), precision)


def branch_jets(precision):
    return st.builds(XSeries, st.dictionaries(st.integers(1, 12), rationals, max_size=8),
                     precision)


finite_or_inf = st.sampled_from([INF, 3, 8, 13])


@settings(max_examples=150, deadline=None)
@given(rational_bi_series(finite_or_inf), branch_jets(finite_or_inf))
def test_substitute_matches_schoolbook(f, g):
    assert f.substitute_y(g) == schoolbook_substitute_y(f, g)


@settings(max_examples=150, deadline=None)
@given(rational_bi_series(finite_or_inf), branch_jets(finite_or_inf))
def test_translate_matches_schoolbook(f, g):
    assert f.translate_y(g) == schoolbook_translate_y(f, g)


def hostile_curve(terms: list[tuple[int, int]]) -> BiSeries:
    """One monomial line per (p, q), each over its own odd 1000-digit
    denominator: one common denominator would have about 133000 bits."""
    rng = random.Random(23)
    return parse_terms("\n".join(f"{p} {q} 1/{rng.randrange(10**999, 10**1000) | 1}"
                                  for p, q in terms))


def seconds(call) -> tuple[object, float]:
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


@pytest.mark.parametrize("method, oracle, terms", [
    # y-degree 2: over one common denominator the binomial rows took 3.6 s
    # against 0.8 s for the oracle (2-vCPU Xeon VM)
    ("translate_y", schoolbook_translate_y, [(p, q) for p in range(14) for q in range(3)][:40]),
    # y-degree 1 keeps the Fraction Horner oracle fast on such a curve
    ("substitute_y", schoolbook_substitute_y, [(p, q) for p in range(20) for q in range(2)]),
])
def test_many_long_denominators_stay_near_the_schoolbook_oracle(method, oracle, terms):
    f, g = hostile_curve(terms), parse_branch("y^3+y-x^2+x*y^2", 64).g
    expected, slow = seconds(lambda: oracle(f, g))
    got, fast = seconds(lambda: getattr(f, method)(g))
    assert got == expected
    assert fast < 2 * slow + 1.0


def test_fraction_fallback_builds_no_fraction_over_a_fraction(monkeypatch):
    # Fraction(Fraction, 1) renormalises with a gcd over the 1000-digit parts
    f = hostile_curve([(p, q) for p in range(14) for q in range(3)][:40])
    g = parse_branch("y^3+y-x^2+x*y^2", 64).g
    nested = []

    def recording(numerator=0, *rest):
        if rest and isinstance(numerator, Fraction):
            nested.append(rest)
        return Fraction(numerator, *rest)

    monkeypatch.setattr(series, "Fraction", recording)
    f.translate_y(g)
    assert nested == []


def test_fraction_fallback_horner_multiplies_its_accumulator_in_integers(monkeypatch):
    # after one Horner step the accumulator's terms share the curve's long
    # denominators, so _integers passes it: multiplied term by term in
    # Fractions instead, this substitution took 16 s against 1.2 s (2-vCPU
    # Xeon VM)
    f = hostile_curve([(p, q) for p in range(14) for q in range(3)][:40])
    g = parse_branch("y^3+y-x^2+x*y^2", 64).g
    lengths = []
    monkeypatch.setattr(series, "_imul",
                        lambda a, b, cap, out: lengths.append(len(a)) or _imul(a, b, cap, out))
    f.substitute_y(g)
    assert max(lengths, default=0) == 64


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
