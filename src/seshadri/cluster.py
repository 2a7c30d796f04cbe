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

from .series import INF, AtLeast, BiSeries, XSeries

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


def cluster_multiplicities(curve: BiSeries, n: int) -> ClusterResult:
    """Multiplicity sequence of a branch-normalized curve along the first n
    infinitely near points of the branch.

    The curve must already be in coordinates where the branch is {y = 0}.
    A unit factor (nonzero constant term) has multiplicity 0 and ends the
    walk; all later entries are 0.

    Each step divides the chart x = x1, y = x1*y1 by x1^m, m the multiplicity:
    x^p y^q becomes x1^(p+q-m) y1^q, and precision drops by m (an unknown term
    of degree >= T lands in degree >= T - m). Terms never merge, so the walk
    keeps only the staircase q -> least p with x^p y^q in the curve: that term
    has the least degree of its row and is the last to fall below precision.
    """
    if n < 1:
        raise ValueError("need at least one cluster point")
    if curve.is_zero and curve.precision == INF:
        raise ValueError("the zero curve has no multiplicity sequence")
    stair: dict[int, int] = {}
    for p, q in curve.coeffs:
        stair[q] = min(p, stair.get(q, p))
    prec = curve.precision
    mults: list[int] = []
    determinate = True
    for _ in range(n):
        if not stair:
            determinate = False
            break
        m = min(p + q for q, p in stair.items())
        if m == 0:
            break
        mults.append(m)
        prec = max(prec - m, 0)
        stair = {q: p + q - m for q, p in stair.items() if p + 2 * q - m < prec}
    mults += [0] * (n - len(mults))
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
    """The branch graph of f = 0 at the origin, solved by `BiSeries.solve_y`."""
    if not 1 <= precision <= MAX_IMPLICIT_PRECISION:
        raise ValueError(f"precision must be between 1 and {MAX_IMPLICIT_PRECISION}")
    return BranchJet(f.solve_y(precision))
