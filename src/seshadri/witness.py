"""Existence of plane curves with prescribed multiplicity at the origin and
prescribed contact order with a branch jet, decided by exact linear algebra.

A curve of degree j has one coefficient per monomial x^p y^q, p + q <= j.
Multiplicity mu at the origin zeroes those with p + q < mu; the others are
the unknowns. Contact order t with y = g(x) zeroes the coefficient of x^e
along the branch for e < t, and since x^p g(x)^q has order >= p + q, only
the rows mu <= e < t can be nonzero. The kernel, padded with the zeroed
coefficients, is exactly the set of curves asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import MAX_IMPLICIT_PRECISION, BranchJet
from .exact import RatMatrix
from .intersection import local_intersection
from .series import AtLeast, BiSeries, PrecisionError, XSeries, order_meets

__all__ = [
    "VerificationError",
    "WitnessProblem",
    "WitnessVerdict",
    "curve_monomials",
    "solve_witness",
    "n8_certificate",
]


# The (d+1)(d+2)/2 columns bound the system: on a dense 64-term jet, degree 16
# at target 152 (151 x 152) takes about 1.5 s, nearly all of it eliminating
# (2-vCPU Xeon VM; README's limits section keeps the measured figures).
MAX_WITNESS_DEGREE = 16
MAX_WITNESS_TARGET = MAX_IMPLICIT_PRECISION


class VerificationError(Exception):
    """A computed basis curve failed its independent re-check."""


def curve_monomials(degree: int) -> list[tuple[int, int]]:
    """Monomials x^p y^q with p + q <= degree, in graded order."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return [(total - q, q) for total in range(degree + 1) for q in range(total + 1)]


@dataclass(frozen=True)
class WitnessProblem:
    """Search data: branch jet, curve degree, required multiplicity at the
    origin, and required intersection order with the branch."""

    branch: BranchJet
    degree: int
    mult: int
    target: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.degree > MAX_WITNESS_DEGREE:
            raise ValueError(f"degree must be at most {MAX_WITNESS_DEGREE}")
        if self.mult < 0 or self.target < 0:
            raise ValueError("multiplicity and target order must be non-negative")
        if self.target > MAX_WITNESS_TARGET:
            raise ValueError(f"target order must be at most {MAX_WITNESS_TARGET}")
        if self.branch.precision < self.target:
            raise PrecisionError(
                f"branch precision {self.branch.precision} cannot pin contact order "
                f"{self.target}; need precision >= {self.target}"
            )


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of a witness problem.

    basis holds coefficient vectors aligned with monomials; conditions counts
    one per monomial below the multiplicity and one per exponent below the
    target, so kernel_dim can exceed unknowns - conditions.
    """

    problem: WitnessProblem
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def monomials(self) -> tuple[tuple[int, int], ...]:
        return tuple(curve_monomials(self.problem.degree))

    @property
    def exists(self) -> bool:
        return bool(self.basis)

    @property
    def kernel_dim(self) -> int:
        return len(self.basis)

    @property
    def unknowns(self) -> int:
        return len(self.monomials)

    @property
    def conditions(self) -> int:
        below = min(self.problem.mult, self.problem.degree + 1)  # 1 + 2 + ... + below monomials
        return below * (below + 1) // 2 + self.problem.target

    def basis_curves(self) -> list[BiSeries]:
        return [
            BiSeries({mono: c for mono, c in zip(self.monomials, vec) if c})
            for vec in self.basis
        ]


def solve_witness(problem: WitnessProblem) -> WitnessVerdict:
    """Decide whether a curve with the prescribed data exists, with a basis.

    Only the monomials at or above the multiplicity (a suffix of the graded
    order) and the exponents from the multiplicity to the target enter the
    system. Every basis curve is re-checked against the independent
    intersection and multiplicity routines before it is reported.
    """
    monos = curve_monomials(problem.degree)
    low = sum(p + q < problem.mult for p, q in monos)
    high = monos[low:]
    # coefficients of x^e in x^p g(x)^q, for e below the target order
    jet = XSeries(problem.branch.g.coeffs, problem.target)
    powers = [XSeries({0: 1}, problem.target)]
    for _ in range(max((q for _, q in high), default=0)):
        powers.append(powers[-1] * jet)
    zero = Fraction(0)
    rows = [[powers[q].coeffs.get(e - p, zero) for p, q in high]
            for e in range(problem.mult, problem.target)]
    kernel = RatMatrix(rows, cols=len(high)).kernel()
    verdict = WitnessVerdict(problem, tuple((zero,) * low + tuple(vec) for vec in kernel))
    _recheck(verdict)
    return verdict


def _recheck(verdict: WitnessVerdict) -> None:
    """Defense in depth: basis curves must pass the independent checks, or
    VerificationError is raised (an explicit raise, so it holds under -O).
    The branch is cut at the target order (at least 1, for substitute_y)."""
    problem = verdict.problem
    branch = BranchJet(XSeries(problem.branch.g.coeffs, max(problem.target, 1)))
    for curve in verdict.basis_curves():
        mult = curve.multiplicity()
        if isinstance(mult, AtLeast) or mult < problem.mult:
            raise VerificationError(f"basis curve {curve} fails the multiplicity check")
        if not order_meets(local_intersection(curve, branch), problem.target):
            raise VerificationError(f"basis curve {curve} fails the contact-order check")


def n8_certificate(b: int) -> WitnessVerdict:
    """The remaining case for the degree-8 covering: is there a cubic with a
    double point at the origin meeting the branch y = x^(8b) + x^4 + x^2 with
    order at least 9? exists=False certifies the constant 48/17.

    The x^(8b) term sits above the contact order 9 for every b >= 1, so the
    verdict cannot depend on b; the parameter is exposed to make that visible.
    """
    if b < 1:
        raise ValueError("branch degree parameter b must be positive")
    branch = BranchJet(XSeries({2: Fraction(1), 4: Fraction(1), 8 * b: Fraction(1)}))
    return solve_witness(WitnessProblem(branch=branch, degree=3, mult=2, target=9))
