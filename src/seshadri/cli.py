"""Command line front end: tables, bounds, cluster walks, witness systems,
and Nagata-style upper bounds, as deterministic TSV or JSON reports.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 precision
shortfall. Decimal renderings are display-only approximations; every
decision below them is exact.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .cluster import MAX_IMPLICIT_PRECISION, cluster_multiplicities, normalize_branch, pullback_mult
from .conditions import REFERENCE_TABLE, constants_table
from .covering import (
    KNOWN_PLANE_CONSTANTS,
    CoveringSpec,
    nagata_conjectural,
    nagata_upper,
    steffens_bounds,
)
from .exact import SurdValue
from .parsing import parse_branch, parse_curve, parse_surd
from .series import AtLeast, PrecisionError
from .witness import VerificationError, WitnessProblem, n8_certificate, solve_witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_PRECISION = 3

DEFAULT_PRECISION = 64
APPROX_DIGITS = 20
# the walk pads its multiplicity list with zeros out to n, and the report
# prints every entry
MAX_CLUSTER_N = 10_000
# a dense degree-64 curve with 100-digit coefficients is about 250 KB
MAX_CURVE_FILE_BYTES = 1 << 20
# TSV keeps one record per line: every break str.splitlines() knows becomes "; "
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


class UsageError(ValueError):
    """Input the CLI itself rejects; `main` reports every ValueError as one."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad input by default; the exit-code contract
    # reserves 2 for verification failures, so route through UsageError.
    def error(self, message: str):
        raise UsageError(message)


@dataclass
class Report:
    """Deterministic report of exact values, which `render` alone turns into text."""

    command: str
    inputs: dict
    results: dict
    provenance: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "provenance": self.provenance,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str)

    def to_tsv(self) -> str:
        lines = [f"# command\t{self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"# input.{key}\t{_tsv_scalar(self.inputs[key])}")
        table = self.results.get("table")
        if table is not None:
            lines.append("\t".join(table["columns"]))
            for row in table["rows"]:
                lines.append("\t".join(_tsv_scalar(v) for v in row))
        for key, value in self.results.items():
            if key == "table":
                continue
            lines.append(f"{key}\t{_tsv_scalar(value)}")
        for note in self.provenance:
            lines.append(f"# provenance\t{note}")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        try:
            return self.to_json() if fmt == "json" else self.to_tsv()
        except ValueError as exc:
            # str() of an int past the interpreter's conversion limit
            raise UsageError(f"a result has a number longer than the "
                             f"{sys.get_int_max_str_digits()} digits a report can print") from exc


def _tsv_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_tsv_scalar(v) for v in value)
    return _LINE_BREAK.sub("; ", str(value).replace("\t", " "))


def _approx_str(value: SurdValue | Fraction) -> str:
    """Decimal rendering with APPROX_DIGITS significant digits. Display only."""
    if isinstance(value, Fraction):
        value = SurdValue(value)
    with localcontext() as ctx:
        ctx.prec = APPROX_DIGITS + 15
        approx = (
            Decimal(value.coeff.numerator)
            / Decimal(value.coeff.denominator)
            * Decimal(value.radicand).sqrt()
        )
        ctx.prec = APPROX_DIGITS
        approx = +approx
    return str(approx)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="seshadri",
        description="Exact Seshadri-constant computations for cyclic coverings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="candidate table and constants for n = 2..9")
    p_table.add_argument("--dmax", type=int, default=10, help="degree search bound (default 10)")
    _add_format(p_table)

    p_bounds = sub.add_parser("bounds", help="multi-point bounds at very general points")
    p_bounds.add_argument("--n", type=int, required=True, help="covering degree (>= 2)")
    p_bounds.add_argument("--l2", type=int, default=1, help="self-intersection of the ample generator")
    p_bounds.add_argument("--r", type=int, default=1, help="number of points")
    _add_format(p_bounds)

    p_cluster = sub.add_parser("cluster", help="multiplicity sequence along the branch cluster")
    group = p_cluster.add_mutually_exclusive_group(required=True)
    group.add_argument("--curve", help="curve polynomial or monomial list")
    group.add_argument("--curve-file", help="file containing the curve (UTF-8 text)")
    p_cluster.add_argument("--branch", default="y=0", help="branch: 'y=poly(x)' or implicit F(x,y)")
    p_cluster.add_argument("--n", type=int, required=True, help="covering degree / cluster length")
    p_cluster.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                           help=f"series precision for implicit branches (default {DEFAULT_PRECISION})")
    _add_format(p_cluster)

    p_witness = sub.add_parser("witness", help="curves with prescribed multiplicity and branch contact")
    p_witness.add_argument("preset", nargs="?", choices=["n8"],
                           help="'n8' runs the built-in degree-8 certificate")
    p_witness.add_argument("--b", type=int, default=1, help="branch degree parameter for the n8 preset")
    p_witness.add_argument("--branch", help="branch: 'y=poly(x)' or implicit F(x,y)")
    p_witness.add_argument("--degree", type=int, help="curve degree j")
    p_witness.add_argument("--mult", type=int, help="required multiplicity at the origin")
    p_witness.add_argument("--target", type=int, help="required contact order with the branch")
    p_witness.add_argument("--precision", type=int, default=None,
                           help="series precision for implicit branches")
    _add_format(p_witness)

    p_nagata = sub.add_parser("nagata", help="upper bound n*eps(L; n*r) at branch points")
    p_nagata.add_argument("--n", type=int, required=True, help="covering degree (>= 2)")
    p_nagata.add_argument("--r", type=int, default=1, help="number of branch points")
    p_nagata.add_argument("--eps", help="value of eps(O(1); n*r), e.g. '6/17' or '1/10*sqrt(10)'")
    p_nagata.add_argument("--conjecture", action="store_true",
                          help="use the conjectural value 1/sqrt(n*r)")
    _add_format(p_nagata)

    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv",
                        help="output format (default tsv)")


def cmd_table(args) -> tuple[Report, int]:
    rows = []
    ok = True
    for n, cand in constants_table(args.dmax):
        if cand is None:
            rows.append([n, "-", "-", "-", "-", "-"])
            ok = False
            continue
        row = (cand.d, cand.m, cand.h0, cand.conditions)
        rows.append([n, *row, cand.epsilon])
        ok = ok and row == REFERENCE_TABLE[n]
    report = Report(
        command="table",
        inputs={"dmax": args.dmax},
        results={
            "table": {
                "columns": ["n", "d", "m", "h0", "conditions", "epsilon"],
                "rows": rows,
            },
            "verified": ok,
        },
        provenance=[
            "search over degrees with exact condition counting",
            "checked against the built-in reference values",
        ],
    )
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def cmd_bounds(args) -> tuple[Report, int]:
    spec = CoveringSpec(n=args.n, L2=args.l2)
    bounds = steffens_bounds(spec, args.r)
    report = Report(
        command="bounds",
        inputs={"n": args.n, "l2": args.l2, "r": args.r},
        results={
            "lower": bounds.lower,
            "lower_approx": _approx_str(bounds.lower),
            "upper": bounds.upper,
            "upper_approx": _approx_str(bounds.upper),
            "maximal": bounds.maximal,
            "pullback_self_intersection": spec.pullback_self_intersection,
        },
        provenance=[
            "floor-square-root lower bound and square-root upper bound at very general points",
            "bounds coincide exactly when r*n*L2 is a perfect square",
        ],
    )
    return report, EXIT_OK


def cmd_cluster(args) -> tuple[Report, int]:
    text = args.curve
    if args.curve_file is not None:
        try:
            with open(args.curve_file, "rb") as fh:
                data = fh.read(MAX_CURVE_FILE_BYTES + 1)
        except OSError as exc:
            raise UsageError(f"cannot read curve file: {exc}")
        if len(data) > MAX_CURVE_FILE_BYTES:
            raise UsageError(f"curve file is longer than {MAX_CURVE_FILE_BYTES} bytes")
        # decoded as open() in text mode would: UTF-8, universal newlines
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    if args.n > MAX_CLUSTER_N:
        raise UsageError(f"--n must be at most {MAX_CLUSTER_N}")
    curve = normalize_branch(parse_curve(text), parse_branch(args.branch, args.precision))
    result = cluster_multiplicities(curve, args.n)
    pm = pullback_mult(curve, args.n)
    indeterminate = not result.determinate or isinstance(pm, AtLeast)
    verified = (not indeterminate) and pm == result.total
    report = Report(
        command="cluster",
        inputs={"curve": text.strip(), "branch": args.branch.strip(),
                "n": args.n, "precision": args.precision},
        results={
            "mults": list(result.mults),
            "total": result.total,
            "pullback_multiplicity": pm,
            "determinate": result.determinate,
            "verified": verified,
        },
        provenance=[
            "blow-up walk in the chart keeping the branch at y = 0",
            "pullback multiplicity is min(p + n*q) over the local equation",
        ],
    )
    if indeterminate:
        return report, EXIT_PRECISION
    return report, EXIT_OK if verified else EXIT_VERIFICATION


@dataclass(frozen=True)
class _N8Branch:
    b: int  # 8*b may pass the digit limit, which only Report.render reports

    def __str__(self) -> str:
        return f"y=x^{8 * self.b}+x^4+x^2"


def cmd_witness(args) -> tuple[Report, int]:
    if args.preset == "n8":
        verdict = n8_certificate(args.b)
        problem = verdict.problem
        inputs = {"preset": "n8", "b": args.b, "branch": _N8Branch(args.b),
                  "degree": problem.degree, "mult": problem.mult, "target": problem.target}
        provenance = [
            "built-in certificate branch for the degree-8 covering",
            "exists=false certifies the constant 48/17",
        ]
    else:
        missing = [name for name, value in
                   (("--branch", args.branch), ("--degree", args.degree),
                    ("--mult", args.mult), ("--target", args.target))
                   if value is None]
        if missing:
            raise UsageError(f"witness needs {', '.join(missing)} (or the n8 preset)")
        precision = args.precision
        if precision is None:
            # a target past the cap is then reported as such by WitnessProblem
            precision = min(max(args.target, DEFAULT_PRECISION), MAX_IMPLICIT_PRECISION)
        branch = parse_branch(args.branch, precision)
        verdict = solve_witness(WitnessProblem(branch=branch, degree=args.degree,
                                               mult=args.mult, target=args.target))
        inputs = {"branch": args.branch.strip(), "degree": args.degree,
                  "mult": args.mult, "target": args.target, "precision": precision}
        provenance = ["exact kernel of the multiplicity and contact-order conditions"]
    report = Report(
        command="witness",
        inputs=inputs,
        results={
            "exists": verdict.exists,
            "kernel_dim": verdict.kernel_dim,
            "unknowns": verdict.unknowns,
            "conditions": verdict.conditions,
            "basis": verdict.basis_curves(),
            "basis_vectors": verdict.basis,
        },
        provenance=provenance,
    )
    return report, EXIT_OK


def cmd_nagata(args) -> tuple[Report, int]:
    spec = CoveringSpec(n=args.n)
    if args.r < 1:
        raise UsageError("--r must be at least 1")
    points = args.n * args.r
    notes: list[str] = []
    if args.eps is not None:
        eps = parse_surd(args.eps)
        if eps.coeff <= 0:
            raise UsageError("--eps must be positive")
        source = "user-supplied"
    elif args.conjecture and points >= 10:
        eps = nagata_conjectural(points)
        if eps.is_rational:
            source = "known (square point count)"
        else:
            source = "conjectural"
            notes.append(f"1/sqrt({points}) is conjectural for non-square point counts")
    else:
        known = KNOWN_PLANE_CONSTANTS.get(points)
        if known is None:
            raise UsageError(f"no bundled constant for more than {max(KNOWN_PLANE_CONSTANTS)} "
                             "points; pass --eps or --conjecture")
        eps = SurdValue(known.value)
        source = "known"
        notes.append(f"bundled classical value realized by {known.exceptional_curve}")
        if args.conjecture:
            notes.append("small point count: bundled known value used instead of the conjecture")
    bound = nagata_upper(spec, eps)
    maximal = bound == steffens_bounds(spec, args.r).upper
    report = Report(
        command="nagata",
        inputs={"n": args.n, "r": args.r,
                "eps": args.eps if args.eps is not None else eps,
                "conjecture": bool(args.conjecture)},
        results={
            "bound": bound,
            "bound_approx": _approx_str(bound),
            "eps_source": source,
            "maximal": maximal,
        },
        provenance=["upper bound n * eps(L; n*r) at r branch points"] + notes,
    )
    return report, EXIT_OK


_COMMANDS = {
    "table": cmd_table,
    "bounds": cmd_bounds,
    "cluster": cmd_cluster,
    "witness": cmd_witness,
    "nagata": cmd_nagata,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, code = _COMMANDS[args.command](args)
        text = report.render(args.format)
    except ValueError as exc:  # UsageError, ParseError and the library's own checks
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision shortfall: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout early; the verdict stands
        sys.stdout = None  # so that the flush at exit does not raise again
    return code


if __name__ == "__main__":
    sys.exit(main())
