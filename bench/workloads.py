"""Seeded command lines for the benchmark workloads, and the checks on what
each command prints about itself.

A workload is a batch of `seshadri` argument vectors built from a seed. The
batch is a sequence of blocks, and every block holds the workload's size
tiers in the same fixed proportions. A run stops at a block boundary, so its
calls keep those proportions, and the tiers are weighted so that the median
call falls well inside one tier rather than on a tier boundary.

Every value is passed as `--opt=value`: argparse would read a polynomial
that starts with `-` as a flag. Every `cluster` and `witness` call names its
`--precision`, so no environment default can change the work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

DEFAULT_SEED = 1

# (tier name, calls per block); the order is the order within a block.
Block = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Block
    blocks: int  # blocks in one generated batch
    make: Callable[[random.Random, str, int], list[str]]  # (rng, tier, k-th call of tier)

    @property
    def block_size(self) -> int:
        return sum(count for _, count in self.block)


# ------------------------------------------------------------ text helpers

def _rational(rng: random.Random, nums, dens) -> Fraction:
    return Fraction(rng.choice(nums), rng.choice(dens)) * rng.choice((1, -1))


def _monomial(p: int, q: int) -> str:
    parts = []
    for var, e in (("x", p), ("y", q)):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "*".join(parts)


def _poly(terms: list[tuple[Fraction, int, int]], lead: str = "") -> str:
    """Render sum c*x^p*y^q in the CLI grammar, after an optional leading text."""
    out = lead
    for c, p, q in terms:
        mono = _monomial(p, q)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


def _curve(rng: random.Random, y_degrees: tuple[int, ...], top: int) -> str:
    """A curve through the origin with one monomial x^p*y^q of degree 1..top
    for each q in y_degrees; p and the coefficients are seeded. The powers
    of y set the cost of moving the curve onto a branch, so they are fixed."""
    terms = [(_rational(rng, range(1, 10), (1, 2, 3)), rng.randint(max(0, 1 - q), top - q), q)
             for q in y_degrees]
    return _poly(terms)


# --------------------------------------------------------- implicit-branch

_PRECISION = {"p48": 48, "p64": 64, "p96": 96}


# |a|, |b|, |c|, |d| of the implicit branch. The seed picks only the signs:
# the coefficient bits of the solved branch, which set the cost of lifting it,
# then stay within a few percent across seeds (at precision 64 they reach
# 142-149 bits for every sign pattern; seeded magnitudes from 1..9 over 1 or 2
# give 90-169 bits and move the median call by about 15% between seeds).
_IMPLICIT_MAGNITUDES = (Fraction(3), Fraction(5), Fraction(2), Fraction(7, 2))


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _implicit_branch(rng: random.Random, tier: str, k: int) -> list[str]:
    # F = y + a*x^2 + b*x^4 + c*x^2*y + d*x*y^2 with seeded signs on fixed
    # magnitudes, so the cost of a call depends on its precision tier and
    # barely on the seed; solving F takes nearly all of it, and neither the
    # curve nor --n changes it by more than the timing noise.
    terms = ((2, 0), (4, 0), (2, 1), (1, 2))
    branch = _poly([(_sign(rng) * m, p, q) for m, (p, q) in zip(_IMPLICIT_MAGNITUDES, terms)],
                   lead="y")
    curve = _curve(rng, (0, 1, 2), 4)
    return ["cluster", f"--curve={curve}", f"--branch={branch}",
            f"--n={rng.randint(2, 9)}", f"--precision={_PRECISION[tier]}"]


# -------------------------------------------------------- witness-veronese

_DEGREE = {"d8": 8, "d10": 10, "d12": 12}
# Magnitudes of the jet's coefficients; the seed picks the signs and the top
# exponent, so the entry sizes of the elimination do not vary with the seed.
_JET_MAGNITUDES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 2), Fraction(3),
                   Fraction(3, 2))


def veronese_edge(degree: int, mult: int) -> int:
    """Largest contact order a generic branch still allows at this degree.

    A curve of degree j has h0 = C(j+2, 2) coefficients; multiplicity m costs
    C(m+1, 2) conditions, and the first m contact conditions follow from the
    multiplicity. So target = edge leaves a kernel of dimension 1 for a
    generic jet, and target = edge + 1 leaves none.
    """
    return comb(degree + 2, 2) - comb(mult + 1, 2) + mult - 1


def _witness_veronese(rng: random.Random, tier: str, k: int) -> list[str]:
    degree = _DEGREE[tier]
    # Every mult meets both targets within two cycles of four calls, and a
    # single block already holds calls with a kernel and calls without.
    mult = k % 4
    target = veronese_edge(degree, mult) + (k + k // 4) % 2
    # Six terms, x^1..x^5 and one above the degree: the graph is then an
    # irreducible curve of degree > j, so no curve of degree j contains it
    # and the kernel is the generic one.
    exps = [1, 2, 3, 4, 5, rng.randint(degree + 1, degree + 4)]
    g = _poly([(_sign(rng) * m, p, 0) for m, p in zip(_JET_MAGNITUDES, exps)])
    return ["witness", f"--branch=y={g}", f"--degree={degree}", f"--mult={mult}",
            f"--target={target}", "--precision=128", "--format=json"]


# ------------------------------------------------------------ paper-claims

# Seshadri constants of O(1) at small numbers of plane points, and surds of
# the conjectural form, as --eps values.
_EPS = ("1", "1/2", "2/5", "3/8", "6/17", "1/3", "1/10*sqrt(10)", "1/11*sqrt(11)",
        "1/12*sqrt(12)", "1/4")


def _fmt(rng: random.Random) -> str:
    return f"--format={rng.choice(('tsv', 'json'))}"


def _paper_claims(rng: random.Random, tier: str, k: int) -> list[str]:
    if tier == "bounds":
        return ["bounds", f"--n={rng.randint(2, 9)}", f"--l2={rng.randint(1, 4)}",
                f"--r={rng.randint(1, 9)}", _fmt(rng)]
    if tier == "nagata-known":
        n = rng.randint(2, 9)
        return ["nagata", f"--n={n}", f"--r={rng.randint(1, 9 // n)}", _fmt(rng)]
    if tier == "nagata-eps":
        return ["nagata", f"--n={rng.randint(2, 9)}", f"--r={rng.randint(1, 4)}",
                f"--eps={rng.choice(_EPS)}", _fmt(rng)]
    if tier == "nagata-conjecture":
        n = rng.randint(2, 9)
        r = -(-10 // n) + rng.randint(0, 3)
        return ["nagata", f"--n={n}", f"--r={r}", "--conjecture", _fmt(rng)]
    if tier == "table":
        return ["table", _fmt(rng)]
    if tier == "table-dmax":
        return ["table", f"--dmax={rng.randint(6, 12)}", _fmt(rng)]
    if tier == "n8":
        return ["witness", "n8", f"--b={rng.randint(1, 3)}", _fmt(rng)]
    if tier == "cluster":
        # A rational curve of degree up to 24 against an explicit branch; the
        # branch has infinite precision, so translate_y expands in full.
        curve = _curve(rng, (0, 2, 4, 8, 12), 24)
        g = _poly([(_rational(rng, range(1, 6), (1, 2, 3)), p, 0)
                   for p in sorted(rng.sample(range(1, 6), 3))])
        return ["cluster", f"--curve={curve}", f"--branch=y={g}",
                f"--n={rng.randint(2, 9)}", "--precision=64", _fmt(rng)]
    raise ValueError(f"unknown tier {tier!r}")


# Block proportions keep the median call well inside one tier (p64, d10,
# the short calls) and, in a 35-second run, the tail (the call with ten
# slower ones above it) inside one tier too (p96, d10, cluster), so that
# neither sits on a tier boundary.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("implicit-branch", (("p48", 1), ("p64", 2), ("p96", 1)), 32, _implicit_branch),
        Workload("witness-veronese", (("d8", 3), ("d10", 4), ("d12", 1)), 10, _witness_veronese),
        Workload("paper-claims",
                 (("bounds", 6), ("nagata-known", 2), ("nagata-eps", 2), ("nagata-conjecture", 1),
                  ("table", 1), ("table-dmax", 1), ("n8", 3), ("cluster", 4)),
                 120, _paper_claims),
    )
}


def batch(name: str, seed: int) -> list[list[str]]:
    """The workload's argument vectors for this seed, block after block."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    seen: dict[str, int] = {}
    calls: list[list[str]] = []
    for _ in range(workload.blocks):
        for tier, count in workload.block:
            for _ in range(count):
                k = seen.get(tier, 0)
                seen[tier] = k + 1
                calls.append(workload.make(rng, tier, k))
    return calls


def argv_digest(calls: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(calls).encode()).hexdigest()


def output_digest(code: int, stdout: str) -> str:
    """Golden form of one call: exit code and a prefix of the stdout hash."""
    return f"{code} {hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


# ------------------------------------------------------------------ checks

def _results(stdout: str) -> tuple[str, dict]:
    """(command, results) from a JSON or TSV report; TSV values stay text."""
    if stdout.lstrip().startswith("{"):
        payload = json.loads(stdout)
        return payload["command"], payload["results"]
    command = ""
    results: dict = {}
    for line in stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "# command":
            command = fields[1]
        elif len(fields) == 2 and not fields[0].startswith("#"):
            results[fields[0]] = fields[1]
    return command, results


def basis_size(stdout: str) -> int:
    """Basis curves a witness report lists; 0 for other commands."""
    command, results = _results(stdout)
    if command != "witness":
        return 0
    return int(results["kernel_dim"])


def _flag(value) -> bool | None:
    if isinstance(value, bool):
        return value
    return {"true": True, "false": False}.get(value)


def check_output(argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """Why a call's output is wrong, from what the command reports about
    itself; None when it is consistent."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    try:
        command, results = _results(stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if command != argv[0]:
        return f"report is for {command!r}, not {argv[0]!r}"
    if command in ("table", "cluster") and _flag(results.get("verified")) is not True:
        return "verified is not true"
    if command == "cluster" and _flag(results.get("determinate")) is not True:
        return "determinate is not true"
    if command == "witness":
        basis = results.get("basis")
        if isinstance(basis, str):
            basis = basis.split(",") if basis else []
        try:
            kernel_dim = int(results.get("kernel_dim"))
        except (TypeError, ValueError):
            return "kernel_dim missing"
        if basis is None or kernel_dim != len(basis):
            return "kernel_dim differs from the basis length"
        if _flag(results.get("exists")) is not (kernel_dim > 0):
            return "exists disagrees with kernel_dim"
    return None
