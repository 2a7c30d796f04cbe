"""Existence of plane curves with prescribed multiplicity at the origin and
prescribed contact order with a branch jet, decided by exact linear algebra.

The coefficient space of curves of degree j has one unknown per monomial
x^p y^q with p + q <= j. Multiplicity mu at the origin contributes one zero
row per monomial below total degree mu; contact order t with y = g(x)
contributes one row per exponent e < t, built from the coefficients of
x^p g(x)^q. The kernel of that system is exactly the set of curves asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import BranchJet
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


# Elimination time grows steeply with the (d+1)(d+2)/2 columns. On a
# six-term rational jet, degree 16 took about 18 s at the Veronese edge and
# 25 s at target 256 (2-vCPU Xeon VM); past the rank, more contact rows
# add little.
MAX_WITNESS_DEGREE = 16
MAX_WITNESS_TARGET = 256


class VerificationError(Exception):
    """A computed basis curve failed its independent re-check."""


def curve_monomials(degree: int) -> list[tuple[int, int]]:
    """Monomials x^p y^q with p + q <= degree, in graded order."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return sorted(
        ((p, q) for total in range(degree + 1) for q in range(total + 1) for p in [total - q]),
        key=lambda pq: (pq[0] + pq[1], pq[1]),
    )


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

    basis holds coefficient vectors aligned with the monomial order; unknowns
    and conditions record the raw system size so dependent conditions are
    visible (kernel_dim can exceed unknowns - conditions).
    """

    exists: bool
    kernel_dim: int
    basis: tuple[tuple[Fraction, ...], ...]
    monomials: tuple[tuple[int, int], ...]
    unknowns: int
    conditions: int

    def __post_init__(self) -> None:
        if self.exists != (self.kernel_dim > 0):
            raise ValueError("exists flag inconsistent with kernel dimension")
        if self.kernel_dim != len(self.basis):
            raise ValueError("kernel dimension inconsistent with basis size")

    def basis_curves(self) -> list[BiSeries]:
        return [
            BiSeries({mono: c for mono, c in zip(self.monomials, vec) if c})
            for vec in self.basis
        ]


def solve_witness(problem: WitnessProblem) -> WitnessVerdict:
    """Decide whether a curve with the prescribed data exists, with a basis.

    Builds the full coefficient-space system (multiplicity rows are explicit
    unit rows, nothing pre-eliminated), computes its exact kernel, and
    re-checks every basis curve against the independent intersection and
    multiplicity routines before reporting it.
    """
    monos = curve_monomials(problem.degree)
    g = problem.branch.g
    rows: list[list[Fraction]] = []
    for i, (p, q) in enumerate(monos):
        if p + q < problem.mult:
            row = [Fraction(0)] * len(monos)
            row[i] = Fraction(1)
            rows.append(row)
    # coefficients of x^e in x^p g(x)^q, for e below the target order
    jet = XSeries(g.coeffs, problem.target)
    powers = [XSeries({0: 1}, problem.target)]
    for _ in range(max(q for _, q in monos)):
        powers.append(powers[-1] * jet)
    for e in range(problem.target):
        rows.append([powers[q].coeffs.get(e - p, Fraction(0)) for p, q in monos])
    matrix = RatMatrix(rows, cols=len(monos))
    basis = matrix.kernel()
    verdict = WitnessVerdict(
        exists=bool(basis),
        kernel_dim=len(basis),
        basis=tuple(tuple(vec) for vec in basis),
        monomials=tuple(monos),
        unknowns=len(monos),
        conditions=len(rows),
    )
    _recheck(verdict, problem)
    return verdict


def _recheck(verdict: WitnessVerdict, problem: WitnessProblem) -> None:
    """Defense in depth: basis curves must pass the independent checks, or
    VerificationError is raised (an explicit raise, so it holds under -O)."""
    for curve in verdict.basis_curves():
        mult = curve.multiplicity()
        if isinstance(mult, AtLeast) or mult < problem.mult:
            raise VerificationError(f"basis curve {curve} fails the multiplicity check")
        contact = local_intersection(curve, problem.branch)
        if not order_meets(contact, problem.target):
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
