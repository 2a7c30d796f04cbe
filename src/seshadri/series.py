"""Truncated power series over exact rationals, with explicit precision.

A series of precision T stores exactly the monomials of total degree < T;
anything of degree >= T is unknown. Polynomials carry infinite precision
(INF). Operations propagate precision pessimistically: a coefficient is kept
only when it is provably correct, and computations that cannot certify a
coefficient lower the precision instead of storing a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Mapping

from .exact import _pack, _unpack

__all__ = [
    "INF",
    "AtLeast",
    "PrecisionError",
    "order_meets",
    "XSeries",
    "BiSeries",
]

INF = float("inf")


class PrecisionError(ArithmeticError):
    """A result needs more tracked terms than the inputs carry."""


@dataclass(frozen=True)
class AtLeast:
    """An order known only as a lower bound: every tracked coefficient vanished.

    Returned instead of an integer when a series is zero to its precision;
    callers that need ">= T" semantics test the bound.
    """

    bound: int | float

    def __str__(self) -> str:
        return f">= {self.bound}"


def order_meets(value: "int | AtLeast", threshold: int | float) -> bool:
    """Whether an exact-or-lower-bounded order is certified >= threshold."""
    bound = value.bound if isinstance(value, AtLeast) else value
    return bound >= threshold


def _validate_precision(precision: int | float) -> int | float:
    if precision == INF:
        return INF
    if isinstance(precision, int) and precision >= 0:
        return precision
    raise ValueError(f"precision must be a non-negative integer or INF, got {precision!r}")


def _add(out: dict[int, Fraction], e: int, c: Fraction) -> None:
    """out[e] += c, dropping the key when the sum is zero."""
    total = out[e] + c if e in out else c
    if total:
        out[e] = total
    else:
        out.pop(e, None)


def _kronecker(ta: list[tuple[int, Fraction]], tb: list[tuple[int, Fraction]],
               cap: int | float) -> list[tuple[int, Fraction]] | None:
    """The nonzero terms of ta*tb below cap from one packed integer product;
    None for a small product, a sparse operand (whose empty slots would cost
    more than its terms), or an lcm that far outgrows the denominators it
    scales (many distinct large ones). Both operands start at exponent 0."""
    if len(ta) * len(tb) <= 64:
        return None
    operands = []
    for terms in (ta, tb):
        span = max(e for e, _ in terms) + 1
        dens = [c.denominator for _, c in terms]
        scale = lcm(*dens)
        if span > 2 * len(terms) or scale.bit_length() > 2 * max(dens).bit_length() + 64:
            return None
        ints = [(e, c.numerator * (scale // c.denominator)) for e, c in terms]
        operands.append((span, scale, ints, max(abs(n) for _, n in ints).bit_length()))
    (span_a, da, na, bits_a), (span_b, db, nb, bits_b) = operands
    # the slot bound of _xmul's docstring, in whole bytes
    width = (bits_a + bits_b + min(len(ta), len(tb)).bit_length() + 2 + 7) // 8
    product = _pack(na, span_a, width) * _pack(nb, span_b, width)
    coeffs = _unpack(product, min(span_a + span_b - 1, cap), width)
    scale = da * db
    return [(e, Fraction(c, scale)) for e, c in enumerate(coeffs) if c]


def _xmul(a: dict[int, Fraction], b: dict[int, Fraction], cap: int | float,
          out: dict[int, Fraction] | None = None) -> dict[int, Fraction]:
    """Product of two x-series coefficient dicts, exponents below cap only.

    The only coefficient-product kernel of the package. With `out` given the
    product is added into it (and zero sums dropped) instead of a new dict.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4): each operand is scaled to integers A, B by the lcm of its
    denominators and evaluated at x = 2^k, so one integer product holds
    every coefficient of A*B in its own k-bit slot. Such a coefficient sums
    at most min(len a, len b) products, so k >= bits(max|A|) + bits(max|B|)
    + bits(min length) + 2 keeps each balanced signed slot apart. Products
    that _kronecker declines take the term-by-term loop.
    """
    if out is None:
        out = {}
    lo_a, lo_b = min(a, default=0), min(b, default=0)
    # only terms that can land below cap, exponents shifted to start at 0
    ta = [(e - lo_a, c) for e, c in a.items() if e + lo_b < cap]
    tb = [(e - lo_b, c) for e, c in b.items() if e + lo_a < cap]
    lo, cap = lo_a + lo_b, cap - lo_a - lo_b
    terms = _kronecker(ta, tb, cap)
    if terms is None:
        terms = ((ea + eb, ca * cb) for ea, ca in ta for eb, cb in tb if ea + eb < cap)
    for e, c in terms:
        _add(out, lo + e, c)
    return out


def _rows(coeffs: dict[tuple[int, int], Fraction]) -> dict[int, dict[int, Fraction]]:
    """Split x^p y^q coefficients into one x-series per power q of y."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (p, q), c in coeffs.items():
        rows.setdefault(q, {})[p] = c
    return rows


class _Series:
    """Construction, validation, products and powers shared by XSeries and
    BiSeries.

    coeffs maps a key to a nonzero Fraction, and every stored key has total
    degree below precision. A subclass gives the key of the constant
    monomial (_UNIT), the map from a key to its exponent pair (p, q) that
    also rejects bad keys (_pair), and the product (_mul).
    """

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: Mapping | None = None, precision: int | float = INF):
        precision = _validate_precision(precision)
        pair = self._pair
        data = {}
        for key, c in (coeffs or {}).items():
            p, q = pair(key)
            c = Fraction(c)
            if c and p + q < precision:
                data[key] = c
        self.coeffs = data
        self.precision = precision

    @classmethod
    def _normal(cls, coeffs: dict, precision: int | float):
        """Wrap coefficients that are already nonzero Fractions below precision."""
        series = object.__new__(cls)
        series.coeffs = coeffs
        series.precision = precision
        return series

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._mul(other, min(self.precision, other.precision))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers need a non-negative integer exponent")
        if len(self.coeffs) == 1:  # (c*m)^k = c^k * m^k, one term
            ((key, c),) = self.coeffs.items()
            key = tuple(k * e for e in key) if isinstance(key, tuple) else k * key
            return type(self)({key: c ** k}, self.precision)
        result = type(self)({self._UNIT: 1}, self.precision)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs and self.precision == other.precision

    def __str__(self) -> str:
        terms = []
        for key, c in self.coeffs.items():
            p, q = self._pair(key)
            terms.append((p + q, q, p, c))
        pieces: list[str] = []
        for _, q, p, c in sorted(terms):
            mono = _monomial_str(p, q)
            mag = abs(c)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self}, precision={self.precision})"


class XSeries(_Series):
    """Univariate truncated series in x over exact rationals.

    Keys are exponents e for x^e.
    """

    __slots__ = ()
    _UNIT = 0

    @staticmethod
    def _pair(e) -> tuple[int, int]:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"bad exponent {e!r}")
        return e, 0

    def _mul(self, other: "XSeries", prec: int | float) -> "XSeries":
        return XSeries._normal(_xmul(self.coeffs, other.coeffs, prec), prec)

    def ord(self) -> "int | AtLeast":
        """Least exponent with a nonzero coefficient, or AtLeast(precision)."""
        if self.coeffs:
            return min(self.coeffs)
        return AtLeast(self.precision)


class BiSeries(_Series):
    """Bivariate truncated series in x and y over exact rationals.

    Keys are exponent pairs (p, q) for x^p y^q; precision bounds the total
    degree of tracked monomials.
    """

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _pair(key) -> tuple[int, int]:
        p, q = key
        if p < 0 or q < 0:
            raise ValueError(f"bad exponent pair {key!r}")
        return p, q

    @staticmethod
    def _from_rows(rows: dict[int, dict[int, Fraction]], prec: int | float) -> "BiSeries":
        """Join rows whose row q holds only exponents below prec - q."""
        return BiSeries._normal({(p, q): c for q, row in rows.items() for p, c in row.items()},
                                prec)

    def _mul(self, other: "BiSeries", prec: int | float) -> "BiSeries":
        # row q of the product collects the x-products of rows qa + qb = q
        rows: dict[int, dict[int, Fraction]] = {}
        other_rows = _rows(other.coeffs)
        for qa, a in _rows(self.coeffs).items():
            for qb, b in other_rows.items():
                _xmul(a, b, prec - qa - qb, rows.setdefault(qa + qb, {}))
        return BiSeries._from_rows(rows, prec)

    def multiplicity(self) -> "int | AtLeast":
        """Least total degree with a nonzero coefficient (order at the origin)."""
        if self.coeffs:
            return min(p + q for p, q in self.coeffs)
        return AtLeast(self.precision)

    def substitute_y(self, g: XSeries) -> XSeries:
        """Evaluate along y = g(x); result precision is the tightest provable.

        Unknown terms of self only disturb degrees >= self.precision (g has
        no constant term), and the unknown tail of g enters a term x^p y^q
        at order p + (q-1)*ord(g) + g.precision.
        """
        if not order_meets(g.ord(), 1):
            raise ValueError("substitution requires g(0) = 0")
        g_ord = min(g.coeffs) if g.coeffs else g.precision
        prec = self.precision
        if g.precision != INF:
            prec = min([prec, *(p + (q - 1) * g_ord + g.precision for p, q in self.coeffs if q)])
        rows = _rows(self.coeffs)
        acc: dict[int, Fraction] = {}
        for q in range(max(rows, default=0), -1, -1):
            acc = _xmul(acc, g.coeffs, prec)
            for p, c in rows.get(q, {}).items():
                _add(acc, p, c)
        return XSeries(acc, prec)

    def translate_y(self, g: XSeries) -> "BiSeries":
        """Coordinate shift y -> y + g(x); afterwards {y = g(x)} is {y = 0}."""
        if not order_meets(g.ord(), 1):
            raise ValueError("translation requires g(0) = 0")
        prec = self.precision
        if g.precision != INF:
            shifts = [p for (p, q) in self.coeffs if q >= 1]
            if shifts:
                prec = min(prec, g.precision + min(shifts))
        max_q = max((q for (_, q) in self.coeffs), default=0)
        powers: list[dict[int, Fraction]] = [{0: Fraction(1)}]
        for _ in range(max_q):
            powers.append(_xmul(powers[-1], g.coeffs, prec))
        # x^p (y + g)^q = sum_j C(q, j) x^p g^(q-j) y^j, collected by j
        rows: dict[int, dict[int, Fraction]] = {}
        for (p, q), c in self.coeffs.items():
            for j in range(q + 1):
                _xmul({p: c * comb(q, j)}, powers[q - j], prec - j, rows.setdefault(j, {}))
        return BiSeries._from_rows(rows, prec)


def _power_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _monomial_str(p: int, q: int) -> str:
    parts = [s for s in (_power_str("x", p), _power_str("y", q)) if s]
    return "*".join(parts)
