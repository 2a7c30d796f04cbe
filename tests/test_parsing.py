"""Input grammar: polynomials, monomial lists, branches, surds."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seshadri.exact import SurdValue
from seshadri.parsing import (
    MAX_PARSE_WORK,
    ParseError,
    _Parser,
    _power_work,
    _product_work,
    _tokenize,
    parse_branch,
    parse_curve,
    parse_poly_x,
    parse_poly_xy,
    parse_surd,
    parse_terms,
)
from seshadri.series import BiSeries, XSeries


# -------------------------------------------------------------- polynomials

def test_parse_simple_sum():
    assert parse_poly_xy("x^5+y^2") == BiSeries({(5, 0): 1, (0, 2): 1})


def test_parse_signs_and_rationals():
    assert parse_poly_xy("y - x^2") == BiSeries({(0, 1): 1, (2, 0): -1})
    assert parse_poly_xy("-x") == BiSeries({(1, 0): -1})
    assert parse_poly_xy("3/2 x y") == BiSeries({(1, 1): Fraction(3, 2)})
    assert parse_poly_xy("3/2*x*y") == BiSeries({(1, 1): Fraction(3, 2)})


def test_parse_adjacency_and_powers():
    assert parse_poly_xy("2x^3y") == BiSeries({(3, 1): 2})
    assert parse_poly_xy("x x") == BiSeries({(2, 0): 1})


def test_parse_parentheses():
    assert parse_poly_xy("(1+x)^2") == BiSeries({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    assert parse_poly_xy("(y-x)(y+x)") == BiSeries({(0, 2): 1, (2, 0): -1})


def test_parse_cancellation_to_zero():
    assert parse_poly_xy("x - x").is_zero


def test_parse_round_trip_through_str():
    poly = BiSeries({(0, 2): 1, (2, 1): 2, (4, 0): 1, (3, 0): -1})
    assert parse_poly_xy(str(poly)) == poly


@given(st.dictionaries(st.tuples(st.integers(0, 64), st.integers(0, 64)).filter(lambda k: sum(k) <= 64),
                       st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
                       max_size=12))
def test_printed_curves_parse_back(coeffs):
    # monomials x^p*y^q up to the parser's total degree limit, signed rational coefficients
    curve = BiSeries(coeffs)
    assert parse_curve(str(curve)) == curve


def test_parse_errors():
    for bad in ("", "x +", "x^", "x^-2", "(x", "x/2", "z", "1/0"):
        with pytest.raises(ParseError):
            parse_poly_xy(bad)


def test_parse_degree_limit():
    assert parse_poly_xy("x^64") == BiSeries({(64, 0): 1})
    assert parse_poly_xy("x^32 y^32") == BiSeries({(32, 32): 1})
    assert parse_poly_xy("2^64") == BiSeries({(0, 0): 2**64})
    # products, nested powers and adjacency are all checked before expansion
    for bad in ("x^65", "(1+x+y)^65", "((x+y)^9)^9", "x^32*y^33", "x^40 y^40", "2^65",
                "(x^8)^8 x"):
        with pytest.raises(ParseError, match="limit 64"):
            parse_poly_xy(bad)
    # parentheses are checked before the parser recurses into them
    assert parse_poly_xy("(" * 64 + "x" + ")" * 64) == BiSeries({(1, 0): 1})
    for depth in (65, 5000):
        with pytest.raises(ParseError, match="nested deeper than 64"):
            parse_poly_xy("(" * depth + "x" + ")" * depth)
    assert parse_terms("64 0 1\n0 64 1\n") == BiSeries({(64, 0): 1, (0, 64): 1})
    with pytest.raises(ParseError, match="limit 64"):
        parse_terms("30 35 1\n")


def _work(text: str) -> int:
    parser = _Parser(_tokenize(text), text)
    parser.expr()
    return parser.work


def test_parse_work_limit():
    assert _power_work(parse_poly_xy("1+x+y"), 64) <= MAX_PARSE_WORK
    # one product per pair of factors, each power charged in full before it runs
    assert _work("x*y*x") == 2 * _product_work(1, 2, 1, 2)
    assert _work("x^64") == _product_work(1, 64, 1, 64)
    # 1 * (1+x), then (1+x) * (1+x), coefficients bounded by bits(2 terms) + 2 bits
    assert _work("(1+x)^2") == _product_work(1, 0, 2, 2) + _product_work(2, 4, 2, 2)
    # a power is refused before any of its products runs (they take about 1 s)
    assert _power_work(parse_poly_xy("1/7+2/3*x+5/11*y"), 64) > MAX_PARSE_WORK
    start = time.perf_counter()
    with pytest.raises(ParseError, match='parse work limit .*"p q coeff" have no such limit'):
        parse_poly_xy("(1/7+2/3*x+5/11*y)^64")
    assert time.perf_counter() - start < 0.2
    # monomial lines of the same degree with 300-digit coefficients are not charged
    lines = "\n".join(f"{t - q} {q} {'7' * 300}/{'3' * 300}"
                      for t in range(65) for q in range(t + 1))
    assert len(parse_terms(lines).coeffs) == 65 * 66 // 2


# The largest accepted members of the expression families that ran the
# longest per unit of charged work: sums of products of a short factor and
# a power, chains of products, and powers with 1000-digit coefficients.
@pytest.mark.parametrize("text", [
    "+".join(["y+(x+y)^2*(1+x-y)^30"] * 9),
    "*".join(["1"] * (MAX_PARSE_WORK // _product_work(1, 2, 1, 2))),
    f"({'9' * 1000}*x+{'7' * 1000}*y+{'3' * 1000})^16",
], ids=["sum-of-products", "product-chain", "1000-digit-power"])
def test_parse_work_limit_keeps_accepted_expressions_fast(text):
    start = time.perf_counter()
    assert 0.75 * MAX_PARSE_WORK < _work(text) <= MAX_PARSE_WORK
    assert time.perf_counter() - start < 2.0


def test_parse_poly_x_rejects_y():
    assert parse_poly_x("x^2 + 2x") == XSeries({2: 1, 1: 2})
    with pytest.raises(ParseError):
        parse_poly_x("x + y")


# ------------------------------------------------------------ monomial list

def test_parse_terms_lines():
    text = "1 0 1\n0 2 1\n"
    assert parse_terms(text) == BiSeries({(1, 0): 1, (0, 2): 1})


def test_parse_terms_rational_coeff_and_merge():
    text = "2 1 3/2\n2 1 1/2"
    assert parse_terms(text) == BiSeries({(2, 1): 2})


def test_parse_terms_bad_line():
    with pytest.raises(ParseError):
        parse_terms("1 2\n")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_terms("1 0 1/0\n")
    with pytest.raises(ParseError):
        parse_terms("   ")


def test_parse_curve_dispatches_on_shape():
    assert parse_curve("1 0 1\n0 2 1") == BiSeries({(1, 0): 1, (0, 2): 1})
    assert parse_curve("x + y^2") == BiSeries({(1, 0): 1, (0, 2): 1})


# ---------------------------------------------------------------- branches

def test_parse_branch_explicit():
    jet = parse_branch("y = x^2 + x^4", precision=16)
    assert jet.g == XSeries({2: 1, 4: 1})  # polynomial graphs stay exact


def test_parse_branch_zero():
    assert parse_branch("y=0", precision=8).g.is_zero


def test_parse_branch_explicit_must_vanish():
    with pytest.raises(ParseError):
        parse_branch("y = 1 + x", precision=8)


def test_parse_branch_implicit_solved():
    jet = parse_branch("y + y^2 - x^2", precision=10)
    assert jet.precision == 10
    assert jet.g.coeffs[2] == 1 and jet.g.coeffs[4] == -1


def test_parse_branch_implicit_rejects_tangent_axis():
    with pytest.raises(ParseError):
        parse_branch("y^2 - x^3", precision=8)


# ------------------------------------------------------------------- surds

def test_parse_surd_rational():
    assert parse_surd("6/17") == SurdValue(Fraction(6, 17))
    assert parse_surd("-3") == SurdValue(Fraction(-3))


def test_parse_surd_roots():
    assert parse_surd("sqrt(8)") == SurdValue(Fraction(2), 2)
    assert parse_surd("1/10*sqrt(10)") == SurdValue(Fraction(1, 10), 10)
    assert parse_surd("-sqrt(2)") == SurdValue(Fraction(-1), 2)
    assert parse_surd("2 sqrt(3)") == SurdValue(Fraction(2), 3)


def test_parse_surd_parenthesized_coefficient():
    assert parse_surd("(1/11)*sqrt(11)") == SurdValue(Fraction(1, 11), 11)
    assert parse_surd("( -1/11 ) * sqrt(11)") == SurdValue(Fraction(-1, 11), 11)
    assert parse_surd("-(2/3)") == SurdValue(Fraction(-2, 3))
    assert parse_surd("-(-2)*sqrt(3)") == SurdValue(Fraction(2), 3)


@given(st.fractions(), st.integers(0, 10**6))
def test_printed_surds_parse_back(coeff, radicand):
    surd = SurdValue(coeff, radicand)
    assert parse_surd(str(surd)) == surd


def test_parse_surd_errors():
    for bad in ("", "sqrt()", "sqrt(-1)", "x", "1/0", "sqrt(2)*2", "()", "()*sqrt(2)",
                "(1/2", "1/2)*sqrt(2)", "(sqrt(2))", "(-)*sqrt(2)", "(1/0)*sqrt(2)"):
        with pytest.raises(ParseError):
            parse_surd(bad)
