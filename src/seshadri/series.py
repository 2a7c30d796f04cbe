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
from math import comb, gcd, isqrt, lcm
from typing import Callable, Mapping

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


def _scaled(coeffs: Mapping, scale: int = 0) -> tuple[dict, int]:
    """Integer numerators over scale (by default the lcm of the denominators), and scale."""
    scale = scale or lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (scale // c.denominator) for k, c in coeffs.items()}, scale


def _integers(*operands: Mapping) -> tuple[list[tuple[dict, int]], Callable]:
    """Each operand as numerators over one denominator, and the product for
    them: integers over each operand's lcm with _imul, or, if some lcm has
    more than 2 * bits(longest denominator) + 64 bits (many distinct long
    denominators), every operand's Fractions over 1, unscaled, with _loop."""
    scales = []
    for coeffs in operands:
        dens = [c.denominator for c in coeffs.values()]
        scales.append(lcm(*dens))
        if scales[-1].bit_length() > 2 * max(dens, default=1).bit_length() + 64:
            return [(c, 1) for c in operands], _loop
    return [_scaled(c, s) for c, s in zip(operands, scales)], _imul


def _fractions(nums: dict, den: int) -> dict:
    """One Fraction per nonzero numerator (an int, or a Fraction over 1) over den."""
    if den == 1:  # Fraction(n) copies a Fraction over 1 without a gcd
        return {k: Fraction(n) for k, n in nums.items()}
    return {k: Fraction(n, den) for k, n in nums.items()}


def _loop(a: dict, b: dict, cap: int | float, out: dict) -> dict:
    """Add a*b below cap into out term by term, for int or Fraction dicts (zero sums dropped)."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < cap:
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def _imul(a: dict[int, int], b: dict[int, int], cap: int | float,
          out: dict[int, int]) -> dict[int, int]:
    """Add a*b below cap into out, for integer coefficient dicts a and b
    (zero sums dropped): the package's one product kernel.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4) packs each operand into one integer, a coefficient per
    slot of bits(max|a|) + bits(max|b|) + bits(min length) + 2 bits, wide
    enough for every balanced signed coefficient of a*b. A cost model in
    30-bit limb products picks it or the term loop: the loop pays overhead
    and a limb product per pair of terms, the packed product overhead per
    slot and y*min(x, 8*sqrt(x)) for x <= y limbs (Karatsuba, 9.1). Small,
    sparse and lopsided products (a short side packed at the long side's
    slot width) take the loop."""
    lo_a, lo_b = min(a, default=0), min(b, default=0)
    # only terms that can land below cap; ta and tb start their exponents at 0
    a = {e: c for e, c in a.items() if e + lo_b < cap}
    b = {e: c for e, c in b.items() if e + lo_a < cap}
    if len(a) * len(b) > 64:
        ta, tb = [(e - lo_a, c) for e, c in a.items()], [(e - lo_b, c) for e, c in b.items()]
        (span_a, bits_a), (span_b, bits_b) = (
            (max(t)[0] + 1, max(abs(c) for _, c in t).bit_length()) for t in (ta, tb))
        slot = bits_a + bits_b + min(len(ta), len(tb)).bit_length() + 2
        x, y = sorted((span_a * (slot // 30 + 1), span_b * (slot // 30 + 1)))
        loop = len(ta) * len(tb) * (80 + (bits_a // 30 + 1) * (bits_b // 30 + 1))
        if 500 * (span_a + span_b) + y * min(x, 8 * isqrt(x)) < loop:
            width = (slot + 7) // 8
            product = _pack(ta, span_a, width) * _pack(tb, span_b, width)
            coeffs = _unpack(product, min(span_a + span_b - 1, cap - lo_a - lo_b), width)
            # the loop then adds the packed coefficients times 1
            a, b = {lo_a + lo_b: 1}, {e: c for e, c in enumerate(coeffs) if c}
    return _loop(a, b, cap, out)


def _reduced(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """nums/den with the content gcd(den, nums) divided out."""
    c = gcd(den, *nums.values())
    return ({e: n // c for e, n in nums.items()}, den // c) if c != 1 else (nums, den)


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
        ((a, da), (b, db)), mul = _integers(self.coeffs, other.coeffs)
        return XSeries._normal(_fractions(mul(a, b, prec, {}), da * db), prec)

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
        ((fa, da), (fb, db)), mul = _integers(self.coeffs, other.coeffs)
        rows: dict[int, dict[int, int]] = {}
        other_rows = _rows(fb)
        for qa, a in _rows(fa).items():
            for qb, b in other_rows.items():
                mul(a, b, prec - qa - qb, rows.setdefault(qa + qb, {}))
        return BiSeries._from_rows({q: _fractions(row, da * db) for q, row in rows.items()}, prec)

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
        # Horner over one denominator per side: with f = F/df and g = G/dg,
        # f(x, g) = sum_q F_q G^q dg^(top-q) / (df dg^top)
        ((fs, df), (gs, dg)), mul = _integers(self.coeffs, g.coeffs)
        rows = _rows(fs)
        top = max(rows, default=0)
        acc: dict[int, int] = {}
        for q in range(top, -1, -1):
            row = {p: n * dg ** (top - q) for p, n in rows.get(q, {}).items() if p < prec}
            if mul is _imul:
                acc = _imul(acc, gs, prec, row)
            else:  # acc's Fractions share denominators after one step: _integers decides again
                ((a, da), (b, db)), step = _integers(acc, gs)
                acc = _loop(row, {0: 1}, prec, _fractions(step(a, b, prec, {}), da * db))
        return XSeries._normal(_fractions(acc, df * dg ** top), prec)

    def solve_y(self, precision: int) -> XSeries:
        """The graph g with f(x, g(x)) = 0 for f = self, by Newton lifting.

        With g correct mod x^k, g - f(x,g) / f_y(x,g) is correct mod x^2k
        (Brent & Kung, JACM 25, 1978). g is exact to the lesser of precision and
        f's own: as ord g >= 1, unknown terms of f of degree >= T move g at >= T.
        """
        if not isinstance(precision, int) or precision < 1:
            raise ValueError(f"precision must be a positive integer, got {precision!r}")
        if self.coeffs.get((0, 0)):
            raise ValueError("implicit branch must pass through the origin")
        slope = self.coeffs.get((0, 1), Fraction(0))
        if slope == 0:
            raise ValueError("implicit branch needs a nonzero y-coefficient at the origin")
        prec = min(precision, self.precision)  # >= 1: a y-term needs self.precision >= 2
        f_y = BiSeries({(p, q - 1): q * c for (p, q), c in self.coeffs.items() if q},
                       self.precision - 1)
        g: dict[int, Fraction] = {}  # correct mod x^k
        # w = W/dw = -1 / f_y(x, g) mod x^(k/2) (mod x while k = 1)
        W, dw = {0: -slope.denominator}, slope.numerator
        k = 1
        while k < prec:
            k2 = min(2 * k, prec)
            # f(x, g) has order >= k, so only f_y(x, g) mod x^(k2-k) matters;
            # one Newton step w <- w*(2 + u*w) brings w up to that
            low = XSeries._normal({e: c for e, c in g.items() if e < k2 - k}, k2 - k)
            U, du = _scaled(f_y.substitute_y(low).coeffs)
            step = _imul(U, W, k2 - k, {})
            step[0] = du * dw  # u*w starts with -1, so this makes 2 + u*w
            step, ds = _reduced(step, du * dw)
            W, dw = _reduced(_imul(W, step, k2 - k, {}), dw * ds)
            # g + f(x, g)*w: the new terms x^k..x^(k2-1) do not meet those of g
            R, dr = _scaled(self.substitute_y(XSeries._normal(g, k2)).coeffs)
            g.update(_fractions(_imul(R, W, k2, {}), dr * dw))
            k = k2
        return XSeries._normal(g, prec)

    def translate_y(self, g: XSeries) -> "BiSeries":
        """Coordinate shift y -> y + g(x); afterwards {y = g(x)} is {y = 0}."""
        if not order_meets(g.ord(), 1):
            raise ValueError("translation requires g(0) = 0")
        prec = self.precision
        if g.precision != INF:
            shifts = [p for (p, q) in self.coeffs if q >= 1]
            if shifts:
                prec = min(prec, g.precision + min(shifts))
        ((fs, df), (gs, dg)), mul = _integers(self.coeffs, g.coeffs)
        top = max((q for (_, q) in fs), default=0)
        powers = [{0: 1}]
        for _ in range(top):
            powers.append(mul(powers[-1], gs, prec, {}))
        # x^p (y + g)^q = sum_j C(q, j) x^p g^(q-j) y^j, collected by j over
        # the one denominator df * dg^top; a power of g with no terms (every
        # power past the first when g = 0) adds nothing
        rows: dict[int, dict[int, int]] = {}
        for (p, q), n in fs.items():
            for j in range(q + 1):
                if powers[q - j]:
                    mul({p: n * comb(q, j) * dg ** (top - q + j)}, powers[q - j], prec - j,
                        rows.setdefault(j, {}))
        den = df * dg ** top
        return BiSeries._from_rows({j: _fractions(row, den) for j, row in rows.items()}, prec)


def _power_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _monomial_str(p: int, q: int) -> str:
    parts = [s for s in (_power_str("x", p), _power_str("y", q)) if s]
    return "*".join(parts)
