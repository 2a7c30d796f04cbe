"""Witness systems: the hand-checked elimination, presets, and probes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from seshadri.cli import main as cli_main
from seshadri.cluster import BranchJet
from seshadri.exact import RatMatrix
from seshadri.intersection import local_intersection
from seshadri.series import AtLeast, BiSeries, PrecisionError, XSeries, order_meets
from seshadri.witness import (
    MAX_WITNESS_DEGREE,
    MAX_WITNESS_TARGET,
    WitnessProblem,
    curve_monomials,
    n8_certificate,
    solve_witness,
)

from oracles import cofactor_determinant


def test_monomial_order_graded():
    assert curve_monomials(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# ------------------------------------------------- the hand-checked system
#
# For the branch y = x^2 + x^4 + x^8 and a cubic with a double point at the
# origin, the coefficient of x^e in a20 x^2 + a11 x y + a02 y^2 + a30 x^3
# + a21 x^2 y + a12 x y^2 + a03 y^3 along y = g(x) was expanded by hand for
# e = 2..8:
#
#   e=2: a20                 e=3: a11 + a30        e=4: a02 + a21
#   e=5: a11 + a12           e=6: 2 a02 + a21 + a03
#   e=7: 2 a12               e=8: a02 + 3 a03
#
# Eliminating by hand: a20 = 0; a12 = 0; then a11 = 0 and a30 = 0;
# a21 = -a02; (e=6) gives a03 = -a02; (e=8) gives -2 a02 = 0. All zero.

HAND_SYSTEM = [
    # columns: a20, a11, a02, a30, a21, a12, a03
    [1, 0, 0, 0, 0, 0, 0],  # x^2
    [0, 1, 0, 1, 0, 0, 0],  # x^3
    [0, 0, 1, 0, 1, 0, 0],  # x^4
    [0, 1, 0, 0, 0, 1, 0],  # x^5
    [0, 0, 2, 0, 1, 0, 1],  # x^6
    [0, 0, 0, 0, 0, 2, 0],  # x^7
    [0, 0, 1, 0, 0, 0, 3],  # x^8
]


def test_hand_system_has_trivial_kernel():
    # cofactor-expansion determinant, independent of the library elimination
    det = cofactor_determinant([[Fraction(v) for v in row] for row in HAND_SYSTEM])
    assert det != 0
    # the library's elimination agrees with the hand result
    assert RatMatrix(HAND_SYSTEM, cols=len(HAND_SYSTEM[0])).kernel() == []


def test_solver_reproduces_hand_system(monkeypatch):
    # the n8 problem hands exactly the hand-expanded system to the kernel
    systems = []
    kernel = RatMatrix.kernel

    def recording_kernel(self):
        systems.append(self)
        return kernel(self)

    monkeypatch.setattr(RatMatrix, "kernel", recording_kernel)
    assert not n8_certificate(1).exists
    (system,) = systems
    assert system.entries == [[Fraction(v) for v in row] for row in HAND_SYSTEM]


def test_n8_certificate_all_small_b():
    for b in (1, 2, 3):
        verdict = n8_certificate(b)
        assert not verdict.exists
        assert verdict.kernel_dim == 0
        assert verdict.unknowns == 10 and verdict.conditions == 12
    with pytest.raises(ValueError):
        n8_certificate(0)


def test_high_degree_branch_term_is_inert():
    # x^(8b) only touches exponents >= 16 > 8, so every b gives one system
    assert n8_certificate(1).basis == n8_certificate(2).basis == n8_certificate(3).basis


# ----------------------------------------------------------- worked cases

def test_lines_through_origin_meet_axis():
    verdict = solve_witness(WitnessProblem(BranchJet(XSeries({})), degree=1, mult=0, target=1))
    assert verdict.exists and verdict.kernel_dim == 2
    curves = {str(c) for c in verdict.basis_curves()}
    assert curves == {"x", "y"}


def test_conic_containing_branch_jet():
    verdict = solve_witness(
        WitnessProblem(BranchJet(XSeries({2: 1})), degree=2, mult=1, target=5))
    assert verdict.exists and verdict.kernel_dim == 1
    (curve,) = verdict.basis_curves()
    # the kernel is spanned by y - x^2 up to scale
    scaled = curve * BiSeries({(0, 0): 1 / curve.coeffs[(0, 1)]})
    assert scaled.coeffs == {(0, 1): Fraction(1), (2, 0): Fraction(-1)}


def test_no_constraints_keeps_everything():
    verdict = solve_witness(WitnessProblem(BranchJet(XSeries({})), degree=1, mult=0, target=0))
    assert verdict.kernel_dim == verdict.unknowns == 3
    assert verdict.conditions == 0


def test_problem_size_limits():
    branch = BranchJet(XSeries({1: Fraction(1)}))
    WitnessProblem(branch, degree=MAX_WITNESS_DEGREE, mult=0, target=MAX_WITNESS_TARGET)
    with pytest.raises(ValueError, match="degree must be at most"):
        WitnessProblem(branch, degree=MAX_WITNESS_DEGREE + 1, mult=0, target=1)
    with pytest.raises(ValueError, match="target order must be at most"):
        WitnessProblem(branch, degree=1, mult=0, target=MAX_WITNESS_TARGET + 1)


def test_precision_shortfall_rejected():
    branch = BranchJet(XSeries({2: 1}, 5))
    with pytest.raises(PrecisionError):
        WitnessProblem(branch=branch, degree=3, mult=2, target=9)


# ------------------------------------------------------------- invariants

def test_monotone_in_target_and_mult():
    rng = random.Random(3)
    for _ in range(30):
        gdict = {e: rng.randint(-5, 5) for e in range(1, 7)}
        branch = BranchJet(XSeries(gdict))
        degree = rng.randint(1, 4)
        dims = []
        for target in range(0, 8):
            verdict = solve_witness(WitnessProblem(branch=branch, degree=degree,
                                                   mult=0, target=target))
            dims.append(verdict.kernel_dim)
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        dims_mu = []
        for mult in range(0, degree + 2):
            verdict = solve_witness(WitnessProblem(branch=branch, degree=degree,
                                                   mult=mult, target=4))
            dims_mu.append(verdict.kernel_dim)
        assert all(a >= b for a, b in zip(dims_mu, dims_mu[1:]))


def test_dimension_accounting():
    rng = random.Random(4)
    for _ in range(40):
        gdict = {e: rng.randint(-5, 5) for e in range(1, 6)}
        branch = BranchJet(XSeries(gdict))
        degree = rng.randint(1, 4)
        mult = rng.randint(0, degree)
        target = rng.randint(0, 6)
        verdict = solve_witness(WitnessProblem(branch=branch, degree=degree,
                                               mult=mult, target=target))
        mult_conditions = sum(1 for p, q in verdict.monomials if p + q < mult)
        assert verdict.conditions == mult_conditions + target
        assert verdict.kernel_dim >= verdict.unknowns - verdict.conditions


def test_basis_curves_pass_independent_checks():
    branch = BranchJet(XSeries({1: 2, 3: -1}))
    verdict = solve_witness(WitnessProblem(branch=branch, degree=3, mult=1, target=4))
    assert verdict.exists
    for curve in verdict.basis_curves():
        mult = curve.multiplicity()
        assert not isinstance(mult, AtLeast) and mult >= 1
        contact = local_intersection(curve, branch)
        assert order_meets(contact, 4)


def test_genericity_probe_reports_zero_failures():
    # random branches x^2 + (higher terms): the degree-8 verdict should be
    # exists=False away from a thin exceptional set; report the failure count
    rng = random.Random(987654321)
    failures = 0
    for _ in range(100):
        gdict = {2: Fraction(1)}
        for e in range(3, 9):
            gdict[e] = Fraction(rng.randint(-9, 9))
        verdict = solve_witness(WitnessProblem(branch=BranchJet(XSeries(gdict)),
                                               degree=3, mult=2, target=9))
        if verdict.exists:
            failures += 1
    print(f"genericity probe: {failures} of 100 random branches admitted a curve")
    assert failures == 0


def test_verdict_json_payload(capsys):
    code = cli_main(["witness", "--branch", "y=x^2", "--degree", "2", "--mult", "1",
                     "--target", "5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert payload["exists"] is True
    assert payload["kernel_dim"] == 1
    assert payload["basis"] == ["-y + x^2"]
    assert len(payload["basis_vectors"][0]) == payload["unknowns"] == 6
