"""Dimension counting for invariant linear systems on cyclic coverings of the
plane, and the search that produces the candidate exceptional divisors.

An invariant divisor D ~ d*pi*L corresponds to a plane curve of degree d, so
the available dimension is h^0(O(d)) = C(d+2, 2). Passing through a
ramification point with multiplicity m imposes fewer conditions than for an
arbitrary divisor because invariance kills every monomial whose y-exponent
is not a multiple of n: writing m = n*k + r the count is (k+1)(n*k/2 + r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

__all__ = [
    "Candidate",
    "condition_count",
    "h0_plane",
    "candidate_search",
    "discard_search",
    "constants_table",
    "REFERENCE_TABLE",
]


def condition_count(n: int, m: int) -> int:
    """Conditions for an invariant divisor to vanish to order m at a
    ramification point: (k+1)(n*k/2 + r) with m = n*k + r.

    Counts the lattice points (i, n*j) with i + n*j < m; an integer even
    though the formula has a half in it, since k(k+1) is even.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    k, r = divmod(m, n)
    return (k + 1) * (n * k + 2 * r) // 2


def h0_plane(d: int) -> int:
    """Dimension of the space of plane curves of degree d: C(d+2, 2)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return (d + 2) * (d + 1) // 2


@dataclass(frozen=True)
class Candidate:
    """A candidate exceptional divisor: degree d, multiplicity m at the
    ramification point, and the resulting constant n*d/m."""

    n: int
    d: int
    m: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.d * self.d * self.n > self.m * self.m:
            raise ValueError("candidate needs d >= 1 and d^2 n <= m^2")
        if self.h0 <= self.conditions:
            raise ValueError("candidate system has no section to spare")

    @property
    def h0(self) -> int:
        return h0_plane(self.d)

    @property
    def conditions(self) -> int:
        return condition_count(self.n, self.m)

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.n * self.d, self.m)


def _minimal_mult(n: int, d: int) -> int:
    """Smallest m with m^2 >= d^2 * n (exact integer ceiling of d*sqrt(n))."""
    s = isqrt(d * d * n)
    return s if s * s == d * d * n else s + 1


def candidate_search(n: int, d_max: int) -> Candidate | None:
    """First (d, m) with room for an invariant divisor of degree d and
    multiplicity m at a ramification point.

    For each degree only the minimal m with m^2 >= d^2 n is tested: larger m
    costs strictly more conditions and lowers the ratio n*d/m, so the minimal
    choice maximizes both the chance of existence and the resulting constant.
    Degrees increase from 1, which pins the table deterministically.
    """
    if n < 2 or d_max < 1:
        raise ValueError("need n >= 2 and d_max >= 1")
    for d in range(1, d_max + 1):
        m = _minimal_mult(n, d)
        if h0_plane(d) > condition_count(n, m):
            return Candidate(n, d, m)
    return None


def discard_search(n: int) -> list[tuple[int, int]]:
    """Candidate (degree, multiplicity) pairs not excluded by pure numerics.

    A competing exceptional divisor of degree j and multiplicity m must
    satisfy m^2 >= n j^2 >= m (m-1) and, at a generic branch point,
    m < h^0(O(j)). Pairs surviving both sieves are returned; everything else
    is numerically impossible.
    """
    if not 2 <= n <= 9:
        raise ValueError("discard search applies to degrees 2..9")
    top = candidate_search(n, d_max=10)
    if top is None:  # cannot happen for n <= 9: the table has a row for each
        raise ArithmeticError(f"no candidate of degree <= 10 for n={n}")
    survivors: list[tuple[int, int]] = []
    for j in range(1, top.d + 1):
        m = _minimal_mult(n, j)
        while m * (m - 1) <= n * j * j:
            if m < h0_plane(j):
                survivors.append((j, m))
            m += 1
    return survivors


def constants_table(d_max: int = 10) -> list[tuple[int, Candidate | None]]:
    """The table of candidates and constants for coverings of the plane,
    n = 2..9, with None for a degree that has no candidate up to d_max."""
    return [(n, candidate_search(n, d_max)) for n in range(2, 10)]


# Built-in expected values; the CLI table command self-checks against these
# and exits nonzero on any deviation. (d, m) also pins h0, the condition
# count and the constant n*d/m, which Candidate derives from them.
REFERENCE_TABLE: dict[int, tuple[int, int, int, int]] = {
    2: (1, 2, 3, 2),
    3: (1, 2, 3, 2),
    4: (1, 2, 3, 2),
    5: (2, 5, 6, 5),
    6: (2, 5, 6, 5),
    7: (3, 8, 10, 9),
    8: (6, 17, 28, 27),
    9: (3, 9, 10, 9),
}
