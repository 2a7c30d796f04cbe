"""Exact scalar arithmetic: rationals, quadratic surds, and rational matrices
with kernel computation.

Everything in this module is exact. Rationals are arbitrary precision, surd
comparison works by sign-aware squaring, and linear algebra runs
fraction-free Gauss-Jordan elimination over the integers. No floating point
is used anywhere in the library; decimal renderings for display live in the
command line layer only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

__all__ = [
    "square_free_split",
    "SurdValue",
    "surd_compare",
    "RatMatrix",
]


# trial division runs up to sqrt(n): at most 5 * 10**5 divisors at the limit
MAX_RADICAND = 10**12


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * core with core square-free; return (outer, core).

    Requires 1 <= n <= MAX_RADICAND. Trial division; fine for the radicand
    sizes that occur in bound arithmetic (products of small covering
    invariants).
    """
    if n < 1:
        raise ValueError("square_free_split needs a positive integer")
    if n > MAX_RADICAND:
        raise ValueError(f"radicand exceeds the limit {MAX_RADICAND}")
    outer, core, d, m = 1, 1, 2, n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
        d += 1 if d == 2 else 2
    core *= m  # leftover factor is prime, exponent 1
    return outer, core


@dataclass(frozen=True)
class SurdValue:
    """Exact real number of the form coeff * sqrt(radicand).

    Normal form: radicand is square-free and >= 1, square factors are
    absorbed into coeff, and the value is rational exactly when radicand
    is 1 (a zero coefficient forces radicand 1 as well).
    """

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        coeff = Fraction(self.coeff)
        rad = self.radicand
        if rad < 0:
            raise ValueError("radicand must be non-negative")
        if coeff == 0 or rad == 0:
            coeff, rad = Fraction(0), 1
        else:
            outer, core = square_free_split(rad)
            coeff, rad = coeff * outer, core
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", rad)

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def sign(self) -> int:
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    def squared(self) -> Fraction:
        """The exact rational value of the square (sign discarded)."""
        return self.coeff * self.coeff * self.radicand

    def __neg__(self) -> "SurdValue":
        return SurdValue(-self.coeff, self.radicand)

    def __mul__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        if isinstance(other, SurdValue):
            return SurdValue(self.coeff * other.coeff, self.radicand * other.radicand)
        return SurdValue(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        root = f"sqrt({self.radicand})"
        if self.coeff == 1:
            return root
        if self.coeff == -1:
            return f"-{root}"
        if self.coeff.denominator == 1:
            return f"{self.coeff}*{root}"
        return f"({self.coeff})*{root}"

    def __repr__(self) -> str:
        return f"SurdValue({self.coeff!r}, {self.radicand})"


def _as_surd(value: "SurdValue | Fraction | int") -> SurdValue:
    if isinstance(value, SurdValue):
        return value
    return SurdValue(Fraction(value), 1)


def surd_compare(a: "SurdValue | Fraction | int", b: "SurdValue | Fraction | int") -> int:
    """Exact ordering of two surd values: -1, 0 or 1.

    Signs first, then squares with sign-aware orientation. Never touches
    floating point.
    """
    a, b = _as_surd(a), _as_surd(b)
    sa, sb = a.sign(), b.sign()
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    qa, qb = a.squared(), b.squared()
    if qa == qb:
        return 0
    less = qa < qb
    if sa < 0:
        less = not less
    return -1 if less else 1


def _integer_row(row: list[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integer entries, same row space."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


class RatMatrix:
    """Dense matrix of exact rationals.

    Sized for witness systems: a degree-12 system is about 90 x 91, and the
    witness degree limit of 16 allows 153 columns. No sparse machinery on
    purpose.
    """

    def __init__(self, entries: Iterable[Iterable[Fraction | int]], cols: int | None = None):
        rows = [[Fraction(v) for v in row] for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): each row
        is scaled to integers by the lcm of its denominators, and every
        update (p*a - f*b) // prev divides exactly by the previous pivot, so
        entries stay minors of the scaled matrix. Only the r pivot rows go
        back to Fraction, each divided by its own pivot entry.
        """
        m = [_integer_row(row) for row in self.entries]
        pivots: list[int] = []
        prev = 1
        for c in range(self.cols):
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
        reduced += [[Fraction(0)] * self.cols for _ in range(len(m) - len(pivots))]
        return reduced, pivots

    def kernel(self) -> list[list[Fraction]]:
        """Basis of the right kernel; every vector satisfies self * v = 0 exactly."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis: list[list[Fraction]] = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[free] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][free]
            basis.append(v)
        return basis

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"
