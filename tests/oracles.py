"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: perfect squares are
tested by integer square root, numeric surd ordering goes through mpmath,
local intersection numbers through sympy resultants, the determinant check
below is plain cofactor expansion, row reduction is plain Fraction
Gauss-Jordan and the fraction-free Bareiss elimination that the library's
modular elimination replaced, implicit branches are solved one coefficient
at a time, series products are one Fraction product per pair of terms
(the library's `_imul` packs integer numerators, and its `_loop` takes
them or Fractions), substitution and translation are the Fraction Horner
and binomial expansions that the library's integer versions replaced,
and series sums add coefficient dicts (the library
multiplies series but never adds them). The squared-multiplicity inequality
r*(sum of squares - m_i) >= M*(M-1) lives here too: no library path needs
it, and acceptance criterion 7 checks it on random vectors. Floating point
and computer algebra live here, never in the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Iterable, Sequence, TypeVar

import mpmath
import sympy

from seshadri.cluster import BranchJet
from seshadri.series import INF, BiSeries, XSeries

S = TypeVar("S", BiSeries, XSeries)


def is_perfect_square(n: int) -> bool:
    """Whether n >= 0 is the square of an integer."""
    return isqrt(n) ** 2 == n


def numeric_inequality_check(mults: Sequence[int], index: int) -> bool:
    """Whether r*(sum of squares - mults[index]) >= M*(M-1), M = sum(mults).

    Holds for every vector of non-negative integers; it is wired up as an
    executable check so the property suite can hammer it with random data.
    The index is 0-based.
    """
    if not mults:
        raise ValueError("empty multiplicity vector")
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    if not 0 <= index < len(mults):
        raise ValueError("index out of range")
    r = len(mults)
    total = sum(mults)
    return r * (sum(m * m for m in mults) - mults[index]) >= total * (total - 1)


def surd_sign_numeric(coeff: Fraction, radicand: int, digits: int = 60) -> "mpmath.mpf":
    """High-precision numeric value of coeff*sqrt(radicand)."""
    with mpmath.workdps(digits):
        return mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.sqrt(radicand)


def compare_numeric(a: tuple[Fraction, int], b: tuple[Fraction, int]) -> int:
    """Numeric ordering oracle for surd pairs; -1, 0 or 1."""
    with mpmath.workdps(60):
        va = mpmath.mpf(a[0].numerator) / a[0].denominator * mpmath.sqrt(a[1])
        vb = mpmath.mpf(b[0].numerator) / b[0].denominator * mpmath.sqrt(b[1])
        diff = va - vb
        # distinct normalized surds of this size differ by far more than 1e-50
        if abs(diff) < mpmath.mpf("1e-50"):
            return 0
        return -1 if diff < 0 else 1


def resultant_intersection_order(curve: dict[tuple[int, int], Fraction],
                                 branch: dict[int, Fraction]) -> int | None:
    """Local intersection number at the origin via a sympy resultant.

    Eliminates y from (curve, y - g(x)) and reads the x-order of the
    resultant. None means the resultant vanishes identically (the curve
    contains the branch graph).
    """
    x, y = sympy.symbols("x y")
    f = sympy.Add(*[sympy.Rational(c) * x**p * y**q for (p, q), c in curve.items()])
    g = sympy.Add(*[sympy.Rational(c) * x**e for e, c in branch.items()])
    res = sympy.resultant(sympy.Poly(f, y), sympy.Poly(y - g, y), y)
    poly = sympy.Poly(sympy.expand(res), x)
    if poly.is_zero:
        return None
    return min(monom[0] for monom in poly.monoms())


def cofactor_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion; independent of the library's
    Gaussian elimination."""
    n = len(matrix)
    assert all(len(row) == n for row in matrix)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(matrix[0][j]) * cofactor_determinant(minor)
    return total


def rational_rref(entries: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan on Fraction
    entries: normalize each pivot row, then clear its column in every other
    row. The library's modular elimination must agree entry for entry."""
    m = [[Fraction(v) for v in row] for row in entries]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def bareiss_rref(entries: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by fraction-free
    Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): each row is scaled to
    integers by the lcm of its denominators, and every update
    (p*a - f*b) // prev divides exactly by the previous pivot, so entries
    stay minors of the scaled matrix. Only the r pivot rows go back to
    Fraction, each divided by its own pivot entry."""
    m = []
    for row in entries:
        scale = lcm(*(Fraction(v).denominator for v in row))
        m.append([int(Fraction(v) * scale) for v in row])
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    reduced = [[Fraction(a, row[c]) for a in row] for row, c in zip(m, pivots)]
    reduced += [[Fraction(0)] * cols for _ in range(len(m) - len(pivots))]
    return reduced, pivots


def schoolbook_xmul(a: dict[int, Fraction], b: dict[int, Fraction], cap: int | float,
                    out: dict[int, Fraction] | None = None) -> dict[int, Fraction]:
    """Product of two x-series coefficient dicts below cap, one Fraction
    product per pair of terms; with `out` given the product is added into it
    and zero sums dropped. The library's `_imul` and `_loop`, and its series
    products, must agree exactly."""
    if out is None:
        out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e >= cap:
                continue
            c = ca * cb + out[e] if e in out else ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def schoolbook_substitute_y(f: BiSeries, g: XSeries) -> XSeries:
    """f(x, g(x)) by Horner on Fraction coefficients, each product through
    schoolbook_xmul, at the precision BiSeries.substitute_y documents. The
    library's integer Horner must agree, coefficients and precision both."""
    g_ord = min(g.coeffs) if g.coeffs else g.precision
    prec = f.precision
    if g.precision != INF:
        prec = min([prec, *(p + (q - 1) * g_ord + g.precision for p, q in f.coeffs if q)])
    rows: dict[int, dict[int, Fraction]] = {}
    for (p, q), c in f.coeffs.items():
        rows.setdefault(q, {})[p] = c
    acc: dict[int, Fraction] = {}
    for q in range(max(rows, default=0), -1, -1):
        acc = schoolbook_xmul(acc, g.coeffs, prec)
        for p, c in rows.get(q, {}).items():
            acc[p] = acc[p] + c if p in acc else c
    return XSeries(acc, prec)


def schoolbook_translate_y(f: BiSeries, g: XSeries) -> BiSeries:
    """f(x, y + g(x)) from the binomial expansion of every term on Fraction
    coefficients, each product through schoolbook_xmul, at the precision
    BiSeries.translate_y documents. The library must agree exactly."""
    prec = f.precision
    shifts = [p for (p, q) in f.coeffs if q >= 1]
    if g.precision != INF and shifts:
        prec = min(prec, g.precision + min(shifts))
    max_q = max((q for (_, q) in f.coeffs), default=0)
    powers: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    for _ in range(max_q):
        powers.append(schoolbook_xmul(powers[-1], g.coeffs, prec))
    out: dict[tuple[int, int], Fraction] = {}
    for (p, q), c in f.coeffs.items():
        for j in range(q + 1):
            for e, ge in schoolbook_xmul({p: c * comb(q, j)}, powers[q - j], prec - j).items():
                out[e, j] = out[e, j] + ge if (e, j) in out else ge
    return BiSeries(out, prec)


def series_sum(terms: Iterable[S], start: S) -> S:
    """start plus every series in terms, like the builtin sum: coefficients
    added key by key, precision the least of all the operands'."""
    coeffs, prec = dict(start.coeffs), start.precision
    for s in terms:
        prec = min(prec, s.precision)
        for key, c in s.coeffs.items():
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
    return type(start)(coeffs, prec)


def undetermined_branch(f: BiSeries, precision: int) -> BranchJet:
    """Solve f(x, g(x)) = 0 by undetermined coefficients, one full
    substitution per coefficient: the coefficient of x^k in f(x, g) is
    slope * g_k plus terms in g_1..g_(k-1). The library's Newton lift must
    agree, coefficients and precision both; f must be a polynomial."""
    slope = f.coeffs[(0, 1)]
    g: dict[int, Fraction] = {}
    for k in range(1, precision):
        residual = schoolbook_substitute_y(f, XSeries(g, precision=k + 1))
        c = residual.coeffs.get(k, Fraction(0))
        if c:
            g[k] = -c / slope
    return BranchJet(XSeries(g, precision=precision))
