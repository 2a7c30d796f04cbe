"""Blow-up clusters along a smooth branch curve.

Everything here happens in local coordinates (x, y) where the branch curve
is the graph y = g(x); after normalization the branch is y = 0. Blowing up
the origin with the chart x = x1, y = x1*y1 keeps the strict transform of
the branch equal to {y1 = 0}, so the next cluster point (the intersection of
the exceptional line with the branch transform) is again the chart origin.
Only this chart is ever needed; no gluing.

The walk certifies each multiplicity it reports: a truncated input whose
tracked terms all die during the transforms yields determinate=False rather
than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .series import INF, AtLeast, BiSeries, XSeries, _fractions, _imul, _scaled

__all__ = [
    "BranchJet",
    "ClusterResult",
    "normalize_branch",
    "cluster_multiplicities",
    "pullback_mult",
    "branch_from_implicit",
]


@dataclass(frozen=True)
class BranchJet:
    """The branch curve as a graph y = g(x) with g(0) = 0 (smooth by type)."""

    g: XSeries

    def __post_init__(self) -> None:
        if 0 in self.g.coeffs:
            raise ValueError("branch must pass through the origin: g(0) = 0")

    @property
    def precision(self) -> int | float:
        return self.g.precision


@dataclass(frozen=True)
class ClusterResult:
    """Multiplicities (m_1, ..., m_n) at the infinitely near branch points.

    determinate is False when the input precision ran out before every entry
    could be certified; the reported prefix is still correct.
    """

    mults: tuple[int, ...]
    determinate: bool

    @property
    def total(self) -> int:
        return sum(self.mults)


def normalize_branch(curve: BiSeries, branch: BranchJet) -> BiSeries:
    """Rewrite the curve germ in coordinates where the branch is {y = 0}."""
    return curve.translate_y(branch.g)


def _strict_transform(series: BiSeries, mult: int) -> BiSeries:
    """One blow-up step in the chart x = x1, y = x1*y1, divided by x1^mult.

    A term x^p y^q becomes x1^(p+q-mult) y1^q. Precision drops by mult: an
    unknown term of total degree >= T lands in total degree >= T - mult.
    """
    prec = series.precision if series.precision == INF else max(series.precision - mult, 0)
    return BiSeries._normal({(p + q - mult, q): c for (p, q), c in series.coeffs.items()
                             if p + 2 * q - mult < prec}, prec)


def cluster_multiplicities(curve: BiSeries, n: int) -> ClusterResult:
    """Multiplicity sequence of a branch-normalized curve along the first n
    infinitely near points of the branch.

    The curve must already be in coordinates where the branch is {y = 0}.
    A unit factor (nonzero constant term) has multiplicity 0 and ends the
    walk; all later entries are 0.
    """
    if n < 1:
        raise ValueError("need at least one cluster point")
    if curve.is_zero and curve.precision == INF:
        raise ValueError("the zero curve has no multiplicity sequence")
    s = curve
    mults: list[int] = []
    determinate = True
    for _ in range(n):
        m = s.multiplicity()
        if isinstance(m, AtLeast):
            determinate = False
            break
        if m == 0:
            break
        mults.append(m)
        s = _strict_transform(s, m)
    while len(mults) < n:
        mults.append(0)
    return ClusterResult(tuple(mults), determinate)


def pullback_mult(curve: BiSeries, n: int) -> "int | AtLeast":
    """Multiplicity of the pullback divisor at the ramification point.

    For the curve sum a_pq x^p y^q downstairs, the pullback under the degree
    n covering has local equation sum a_pq u^p v^(n q), so its order is
    min(p + n*q) over the support.
    """
    if n < 1:
        raise ValueError("covering degree must be positive")
    if not curve.coeffs:
        return AtLeast(curve.precision)
    return min(p + n * q for p, q in curve.coeffs)


# Also the witness target cap, so a branch can be solved to any target. The
# cap still bounds real work: a dense F such as y+(x+y)^2*(1+x-y)^30 takes
# about 0.54 s at 256 (2-vCPU Xeon VM), against 0.007 s for y+y^2+x*y^3-x^2+x^3*y.
MAX_IMPLICIT_PRECISION = 256


def branch_from_implicit(f: BiSeries, precision: int) -> BranchJet:
    """Solve f(x, g(x)) = 0 for the branch graph g by Newton lifting.

    Needs f(0,0) = 0 and a nonzero coefficient on y, the implicit function
    theorem hypothesis at the origin. Each step doubles the number of known
    coefficients: with g correct mod x^k, g - f(x,g) / f_y(x,g) is correct
    mod x^2k (Brent & Kung, JACM 25, 1978). The arithmetic is exact, so the
    result equals the unique solution to its precision, which is the
    requested one or f's own if lower: unknown terms of f of total degree
    >= T only disturb g at orders >= T, since ord g >= 1.
    """
    if not 1 <= precision <= MAX_IMPLICIT_PRECISION:
        raise ValueError(f"precision must be between 1 and {MAX_IMPLICIT_PRECISION}")
    if f.coeffs.get((0, 0)):
        raise ValueError("implicit branch must pass through the origin")
    slope = f.coeffs.get((0, 1), Fraction(0))
    if slope == 0:
        raise ValueError("implicit branch needs a nonzero y-coefficient at the origin")
    prec = min(precision, f.precision)
    f_y = BiSeries({(p, q - 1): q * c for (p, q), c in f.coeffs.items() if q}, f.precision - 1)
    g: dict[int, Fraction] = {}  # correct mod x^k
    # w = W/dw = -1 / f_y(x, g) mod x^(k/2) (mod x while k = 1), integer
    # numerators over one denominator
    W, dw = {0: -slope.denominator}, slope.numerator
    k = 1
    while k < prec:
        k2 = min(2 * k, prec)
        # f(x, g) has order >= k, so only f_y(x, g) mod x^(k2-k) matters;
        # one Newton step w <- w*(2 + u*w) brings w up to that
        low = XSeries._normal({e: c for e, c in g.items() if e < k2 - k}, k2 - k)
        U, du = _scaled(f_y.substitute_y(low).coeffs, capped=False)
        step = _imul(U, W, k2 - k, {})
        step[0] = du * dw  # u*w starts with -1, so this makes 2 + u*w
        step, ds = _reduced(step, du * dw)
        W, dw = _reduced(_imul(W, step, k2 - k, {}), dw * ds)
        # g + f(x, g)*w: the new terms x^k..x^(k2-1) do not meet those of g
        R, dr = _scaled(f.substitute_y(XSeries._normal(g, k2)).coeffs, capped=False)
        g.update(_fractions(_imul(R, W, k2, {}), dr * dw))
        k = k2
    return BranchJet(XSeries._normal(g, prec))


def _reduced(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """nums/den with the content gcd(den, nums) divided out."""
    c = gcd(den, *nums.values())
    return ({e: n // c for e, n in nums.items()}, den // c) if c != 1 else (nums, den)
