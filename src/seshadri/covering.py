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
    "nagata_conjectural",
    "KnownConstant",
    "KNOWN_PLANE_CONSTANTS",
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


def nagata_conjectural(points: int) -> SurdValue:
    """Conjectural maximal value 1/sqrt(points) for points >= 9.

    For perfect squares this value is an established theorem; for other
    counts it is the Nagata conjecture and callers should flag it as such.
    Counts below 9 are rejected; use the bundled table of known constants.
    """
    if points < 9:
        raise ValueError("conjectural value is stated for at least 9 points")
    return SurdValue(Fraction(1, points), points)


@dataclass(frozen=True)
class KnownConstant:
    """A classical multi-point Seshadri constant of O(1) on the plane."""

    value: Fraction
    exceptional_curve: str


# Known values of the Seshadri constant of O(1) at 1..9 very general plane
# points, keyed by the point count, each with the classical curve realizing
# it. Reference data for callers; nothing in this package derives them.
KNOWN_PLANE_CONSTANTS: dict[int, KnownConstant] = {
    1: KnownConstant(Fraction(1), "a line through the point"),
    2: KnownConstant(Fraction(1, 2), "the line through both points"),
    3: KnownConstant(Fraction(1, 2), "a line through two of the points"),
    4: KnownConstant(Fraction(1, 2), "a line through two of the points"),
    5: KnownConstant(Fraction(2, 5), "the conic through all five points"),
    6: KnownConstant(Fraction(2, 5), "a conic through five of the points"),
    7: KnownConstant(Fraction(3, 8), "a cubic double at one point, through the other six"),
    8: KnownConstant(Fraction(6, 17), "a sextic triple at one point, double at the other seven"),
    9: KnownConstant(Fraction(1, 3), "the cubic through all nine points"),
}
