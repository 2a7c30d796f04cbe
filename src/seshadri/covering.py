"""Branched cyclic coverings and multi-point Seshadri bounds.

The covering pi: X -> Y has degree n, branch divisor B ~ n*M downstairs and
reduced ramification divisor R upstairs with pi*B = n*R. For an ample
generator L on a surface with Picard number 1 the pullback satisfies
(pi*L)^2 = n*L^2, which is all the intersection theory these bounds need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exact import SurdValue

__all__ = [
    "CoveringSpec",
    "SeshadriBounds",
    "steffens_bounds",
    "nagata_upper",
    "plane_constant",
]


@dataclass(frozen=True)
class CoveringSpec:
    """Covering data: degree n and self-intersection of the ample generator."""

    n: int
    L2: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("covering degree must be at least 2")
        if self.L2 < 1:
            raise ValueError("L^2 must be positive")

    @property
    def pullback_self_intersection(self) -> int:
        """(pi*L)^2 = n * L^2."""
        return self.n * self.L2


@dataclass(frozen=True)
class SeshadriBounds:
    """Exact lower and upper bounds, maximal when they coincide."""

    lower: Fraction
    upper: SurdValue

    @property
    def maximal(self) -> bool:
        # surd normal forms are unique, so equal values are equal records
        return SurdValue(self.lower) == self.upper


def steffens_bounds(spec: CoveringSpec, r: int) -> SeshadriBounds:
    """Bounds for the Seshadri constant of pi*L at r very general points.

    Lower bound floor(sqrt(r*n*L^2))/r, upper bound sqrt(n*L^2/r); they
    coincide exactly when r*n*L^2 is a perfect square.
    """
    if r < 1:
        raise ValueError("number of points must be positive")
    s = r * spec.pullback_self_intersection
    lower = Fraction(isqrt(s), r)
    upper = SurdValue(Fraction(1, r), s)  # sqrt(n*L^2/r) = sqrt(r*n*L^2)/r
    return SeshadriBounds(lower, upper)


def nagata_upper(spec: CoveringSpec, eps_downstairs: SurdValue) -> SurdValue:
    """Upper bound n * eps for the constant of pi*L at r branch points.

    eps_downstairs must be the (known or conjectural) Seshadri constant of L
    at n*r very general points of the base surface; the caller owns that
    claim and this function only scales it by the covering degree.
    """
    return SurdValue(spec.n * eps_downstairs.coeff, eps_downstairs.radicand)


def plane_constant(points: int) -> SurdValue:
    """Seshadri constant of O(1) at `points` very general points of the plane.

    Up to 9 points: the least of 1/sqrt(points) and d/(3d - 1) over the
    (-1)-classes (d; m_1..m_points), with sum(m) = 3d - 1 and sum(m^2) =
    d^2 + 1 (Nagata, Amer. J. Math. 81, 1959); up to 8 points they all have
    d <= 6, and at 9 no d/(3d - 1) is below 1/3. Beyond: 1/sqrt(points), a
    theorem for square counts and the Nagata conjecture otherwise.
    """
    if points < 1:
        raise ValueError("number of points must be positive")
    if points <= 9:
        # d/(3d - 1) falls as d grows, so the largest d with a class decides;
        # a rational v is at most 1/sqrt(points) exactly when v^2 * points <= 1
        ratio = next((Fraction(d, 3 * d - 1) for d in range(6, 0, -1)
                      if _splits(3 * d - 1, d * d + 1, points, d)), None)
        if ratio is not None and ratio * ratio * points <= 1:
            return SurdValue(ratio)
    return SurdValue(Fraction(1, points), points)


def _splits(total: int, squares: int, parts: int, top: int) -> bool:
    """Whether `parts` non-increasing integers in [0, top] sum to total, squares to squares."""
    if total * total > parts * squares:  # Cauchy-Schwarz; also squares < 0
        return False
    if parts == 0:
        return squares == 0
    return any(_splits(total - m, squares - m * m, parts - 1, m)
               for m in range(min(top, total), -1, -1))
