"""Command line behavior: golden outputs, formats, exit codes, determinism."""

from __future__ import annotations

import ast
import io
import json
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seshadri import witness
from seshadri.cli import MAX_CURVE_FILE_BYTES, main
from seshadri.cluster import MAX_IMPLICIT_PRECISION
from seshadri.parsing import parse_branch, parse_poly_xy
from seshadri.witness import MAX_WITNESS_DEGREE, MAX_WITNESS_TARGET

GOLDEN_TABLE = """\
# command\ttable
# input.dmax\t10
n\td\tm\th0\tconditions\tepsilon
2\t1\t2\t3\t2\t1
3\t1\t2\t3\t2\t3/2
4\t1\t2\t3\t2\t2
5\t2\t5\t6\t5\t2
6\t2\t5\t6\t5\t12/5
7\t3\t8\t10\t9\t21/8
8\t6\t17\t28\t27\t48/17
9\t3\t9\t10\t9\t3
verified\ttrue
# provenance\tsearch over degrees with exact condition counting
# provenance\tchecked against the built-in reference values
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_usage_error(capsys, *argv) -> str:
    """The command ends within 1 s with exit 1, no report and one message."""
    with time_limit(1.0):
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, ""), err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    return err


def run_python(*args) -> subprocess.CompletedProcess:
    """A child interpreter with a stripped environment, from the repo root."""
    repo = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=False, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(repo / "src")},
        cwd=repo,
    )


# ------------------------------------------------------------------- table

def test_table_golden_tsv(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out == GOLDEN_TABLE


def test_table_tight_dmax_identical(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "6")
    assert code == 0
    assert out.replace("# input.dmax\t6", "# input.dmax\t10") == GOLDEN_TABLE


def test_table_json_rows(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]["table"]["rows"]
    assert rows[6] == [8, 6, 17, 28, 27, "48/17"]
    assert payload["results"]["verified"] is True


def test_table_underpowered_search_fails_verification(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "1")
    assert code == 2
    assert "false" in out


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--format", "json")
    _, second, _ = run(capsys, "table", "--format", "json")
    assert first == second


# ------------------------------------------------------------------ bounds

def test_bounds_square_case(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4")
    assert code == 0
    assert "lower\t2" in out
    assert "upper\t2" in out
    assert "maximal\ttrue" in out


def test_bounds_irrational_case(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "2")
    assert code == 0
    assert "upper\tsqrt(2)" in out
    assert "upper_approx\t1.4142135623730950488" in out
    assert "maximal\tfalse" in out


def test_bounds_scaled_generator(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--l2", "3")
    assert code == 0
    assert "lower\t3" in out and "maximal\ttrue" in out


def test_bounds_usage_errors(capsys):
    code, _, err = run(capsys, "bounds", "--n", "1")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "bounds", "--n", "4", "--r", "0")
    assert code == 1


# each radicand below is past the limit; factoring it by trial division
# would run for minutes
@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1000000007", "--r", "1000000009"],
    ["nagata", "--n", "1000000007", "--r", "1000000009", "--conjecture"],
    ["nagata", "--n", "2", "--eps", "sqrt(1000000000000000003)"],
])
def test_radicand_limit_is_usage_error(capsys, argv):
    err = assert_usage_error(capsys, *argv)
    assert "exceeds the limit 1000000000000" in err


# ----------------------------------------------------------------- cluster

def test_cluster_quintic(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "x^5+y^2", "--branch", "y=0", "--n", "3")
    assert code == 0
    assert "mults\t2,2,1" in out
    assert "total\t5" in out
    assert "pullback_multiplicity\t5" in out
    assert "verified\ttrue" in out


def test_cluster_transverse_line(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "x", "--branch", "y=0", "--n", "2")
    assert code == 0
    assert "mults\t1,0" in out


def test_cluster_tangent_cubic(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "y-x^3", "--branch", "y=0", "--n", "3")
    assert code == 0
    assert "mults\t1,1,1" in out and "verified\ttrue" in out


def test_cluster_curve_file(tmp_path, capsys):
    # x + y^2 from the monomial-list format: pullback min(1, 4) = 1
    path = tmp_path / "curve.txt"
    path.write_text("1 0 1\n0 2 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "cluster", "--curve-file", str(path), "--n", "2")
    assert code == 0
    assert "mults\t1,0" in out
    assert "total\t1" in out
    assert "verified\ttrue" in out
    assert "\n0 2 1" not in out  # multi-line input stays on one TSV record


def test_cluster_precision_shortfall_exit_code(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "y",
                       "--branch", "y+y^2-x^2", "--n", "3", "--precision", "2")
    assert code == 3
    assert "determinate\tfalse" in out


def test_cluster_implicit_branch_verifies(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "y - x^2",
                       "--branch", "y+y^2-x^2", "--n", "4", "--precision", "24")
    assert code == 0
    assert "verified\ttrue" in out


def nested(depth: int, text: str = "x") -> str:
    return "(" * depth + text + ")" * depth


def test_cluster_degree_limit(capsys):
    code, out, _ = run(capsys, "cluster", "--curve", "x^64", "--n", "2")
    assert code == 0 and "mults\t64,0" in out
    # rejected while parsing: expanding them would take seconds to minutes
    for curve in ("(1+x+y)^65", "((x+y)^9)^9"):
        start = time.perf_counter()
        code, out, err = run(capsys, "cluster", "--curve", curve, "--n", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("usage error: total degree") and "limit 64" in err
    # deeper parentheses would run the recursive parser out of stack
    code, out, _ = run(capsys, "cluster", "--curve", nested(64), "--n", "2")
    assert code == 0 and "mults\t1,0" in out
    for argv in (["--curve", nested(65)], ["--curve", nested(5000)],
                 ["--curve", "x", "--branch", nested(400, "y-x^2")]):
        err = assert_usage_error(capsys, "cluster", *argv, "--n", "2")
        assert err.startswith("usage error: parentheses nested deeper than 64"), err


def test_cluster_n_limit(capsys):
    code, _, _ = run(capsys, "cluster", "--curve", "x", "--n", "10000")
    assert code == 0
    code, out, err = run(capsys, "cluster", "--curve", "x", "--n", "10001")
    assert code == 1 and out == ""
    assert err == "usage error: --n must be at most 10000\n"


def test_cluster_longest_walk_on_the_largest_curve(capsys):
    # y*(1+x+y)^63 has 2080 terms and multiplicity 1 at each of the 10000
    # cluster points; the walk carries one exponent per power of y, not the
    # whole series, through every blow-up
    start = time.perf_counter()
    code, out, _ = run(capsys, "cluster", "--curve", "(1+x+y)^63*y", "--branch", "y=0",
                       "--n", "10000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "total\t10000" in out and "verified\ttrue" in out


def test_cluster_rejects_garbage(capsys):
    code, _, err = run(capsys, "cluster", "--curve", "z^2", "--n", "2")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "cluster", "--curve", "0", "--n", "2")
    assert code == 1


# ----------------------------------------------------------------- witness

def test_witness_n8_preset(capsys):
    code, out, _ = run(capsys, "witness", "n8", "--b", "1")
    assert code == 0
    assert "exists\tfalse" in out
    assert "kernel_dim\t0" in out


def test_witness_n8_larger_b(capsys):
    for b in ("2", "3"):
        code, out, _ = run(capsys, "witness", "n8", "--b", b)
        assert code == 0 and "exists\tfalse" in out


def test_witness_explicit_problem(capsys):
    code, out, _ = run(capsys, "witness", "--branch", "y=x^2",
                       "--degree", "2", "--mult", "1", "--target", "5")
    assert code == 0
    assert "exists\ttrue" in out
    assert "-y + x^2" in out


def test_printed_witness_basis_curves_parse_back(capsys):
    code, out, _ = run(capsys, "witness", "--branch=y=x^2-3/2*x^3",
                       "--degree=3", "--mult=1", "--target=7")
    assert code == 0
    results = dict(line.split("\t") for line in out.splitlines())
    assert results["kernel_dim"] == "3"
    curves = results["basis"].split(",")
    assert len(curves) == 3
    for curve in curves:
        code, again, _ = run(capsys, "cluster", f"--curve={curve}",
                             "--branch=y=x^2-3/2*x^3", "--n=3")
        assert code == 0
        assert "verified\ttrue" in again.splitlines()


def test_witness_trivial_line_case(capsys):
    code, out, _ = run(capsys, "witness", "--branch", "y=0",
                       "--degree", "1", "--mult", "0", "--target", "1")
    assert code == 0
    assert "kernel_dim\t2" in out


def test_witness_precision_shortfall(capsys):
    code, _, err = run(capsys, "witness", "--branch", "y+y^2-x^2",
                       "--degree", "3", "--mult", "2", "--target", "9",
                       "--precision", "5")
    assert code == 3
    assert "precision" in err


def test_witness_missing_flags(capsys):
    code, _, err = run(capsys, "witness", "--degree", "3")
    assert code == 1 and "usage error" in err


# ------------------------------------------------------------------ nagata

def test_nagata_known_small_count(capsys):
    code, out, _ = run(capsys, "nagata", "--n", "9")
    assert code == 0
    assert "bound\t3" in out
    assert "eps_source\tknown" in out


# eps(O(1); k) at k very general plane points, and the curve the report names
PLANE_CONSTANTS = {
    1: ("1", "a line through the point"),
    2: ("1/2", "the line through both points"),
    3: ("1/2", "a line through two of the points"),
    4: ("1/2", "a line through two of the points"),
    5: ("2/5", "the conic through all five points"),
    6: ("2/5", "a conic through five of the points"),
    7: ("3/8", "a cubic double at one point, through the other six"),
    8: ("6/17", "a sextic triple at one point, double at the other seven"),
    9: ("1/3", "the cubic through all nine points"),
}


@pytest.mark.parametrize("n, r", [(n, r) for n in range(2, 10) for r in range(1, 9 // n + 1)])
@pytest.mark.parametrize("conjecture", [[], ["--conjecture"]])
def test_nagata_known_constant_at_every_small_point_count(capsys, n, r, conjecture):
    eps, curve = PLANE_CONSTANTS[n * r]
    bound = str(n * Fraction(eps))
    notes = [f"bundled classical value realized by {curve}"]
    if conjecture:
        notes.append("small point count: bundled known value used instead of the conjecture")
    code, out, _ = run(capsys, "nagata", f"--n={n}", f"--r={r}", *conjecture)
    assert code == 0
    lines = out.splitlines()
    assert {"# input.eps\t" + eps, "bound\t" + bound, "eps_source\tknown"} <= set(lines)
    assert [line for line in lines if line.startswith("# provenance")][1:] == \
        ["# provenance\t" + note for note in notes]
    code, out, _ = run(capsys, "nagata", f"--n={n}", f"--r={r}", *conjecture, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert (report["inputs"]["eps"], report["results"]["bound"]) == (eps, bound)
    assert report["results"]["eps_source"] == "known"
    assert report["provenance"][1:] == notes


def test_nagata_user_supplied(capsys):
    code, out, _ = run(capsys, "nagata", "--n", "8", "--eps", "6/17")
    assert code == 0
    assert "bound\t48/17" in out
    assert "eps_source\tuser-supplied" in out
    assert "maximal\tfalse" in out  # 48/17 < sqrt(8)


@pytest.mark.parametrize("n", [8, 10, 11, 12])
def test_printed_eps_parses_back(capsys, n):
    code, out, _ = run(capsys, "nagata", f"--n={n}", "--conjecture")
    assert code == 0
    eps = dict(line.split("\t") for line in out.splitlines())["# input.eps"]
    code, again, _ = run(capsys, "nagata", f"--n={n}", f"--eps={eps}")
    assert code == 0
    assert [line for line in again.splitlines() if line.startswith("bound")] == \
        [line for line in out.splitlines() if line.startswith("bound")]


@pytest.mark.parametrize("eps", ["0", "-1/2", "-sqrt(3)", "sqrt(0)"])
def test_nagata_non_positive_eps(capsys, eps):
    err = assert_usage_error(capsys, "nagata", "--n", "8", f"--eps={eps}")
    assert err == "usage error: --eps must be positive\n"


def test_nagata_conjecture_square(capsys):
    code, out, _ = run(capsys, "nagata", "--n", "16", "--conjecture")
    assert code == 0
    assert "bound\t4" in out
    assert "maximal\ttrue" in out


def test_nagata_conjecture_non_square(capsys):
    code, out, _ = run(capsys, "nagata", "--n", "11", "--conjecture")
    assert code == 0
    assert "eps_source\tconjectural" in out
    assert "maximal\ttrue" in out  # n * 1/sqrt(n) = sqrt(n)


def test_nagata_small_count_falls_back_to_table(capsys):
    code, out, _ = run(capsys, "nagata", "--n", "3", "--r", "3", "--conjecture")
    assert code == 0
    assert "bound\t1" in out  # 3 * eps(O(1); 9) = 3 * 1/3
    assert "bundled known value" in out


def test_nagata_requires_source_for_large_counts(capsys):
    code, _, err = run(capsys, "nagata", "--n", "12")
    assert code == 1 and "usage error" in err


def test_nagata_rejects_fewer_than_one_point(capsys):
    # the one check on --r: nagata_upper takes no point count
    err = assert_usage_error(capsys, "nagata", "--n", "9", "--r", "0")
    assert err == "usage error: --r must be at least 1\n"


def test_nagata_point_count_past_the_printable_digits(capsys):
    # n * r has 4301 digits, one more than str() prints
    err = assert_usage_error(capsys, "nagata", "--n", "9" * 4300, "--r", "2")
    assert err == "usage error: no bundled constant for more than 9 points; pass --eps or --conjecture\n"


# ------------------------------------------------------------------- misc

def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "usage error" in err


# past the 4300 digits int() and str() convert by default
_LONG = "7" * 5000
_LITERAL_MESSAGE = ("usage error: a number in the input is longer than the "
                    f"{sys.get_int_max_str_digits()} digits Python converts\n")


@pytest.mark.parametrize("argv", [
    ["cluster", "--curve", f"{_LONG}*x", "--n", "2"],
    ["cluster", "--curve", f"x^{_LONG}", "--n", "2"],
    ["cluster", "--curve", f"1 0 {_LONG}", "--n", "2"],
    ["nagata", "--n", "2", "--eps", _LONG],
    # the cube of the coefficient, in the basis, has 4500 digits
    ["witness", "--branch", f"y={'3' * 1500}*x", "--degree", "3", "--mult", "0",
     "--target", "4"],
])
def test_library_value_errors_are_usage_errors(capsys, argv):
    err = assert_usage_error(capsys, *argv)
    assert "4300 digits" in err and "set_int_max_str_digits" not in err


# one literal past the digit limit in each place the grammar reads a number
@pytest.mark.parametrize("argv", [
    ["cluster", f"--curve={_LONG}*x+y", "--n=2"],
    ["cluster", f"--curve=x^{_LONG}", "--n=2"],
    ["cluster", f"--curve=x+1/{_LONG}", "--n=2"],
    ["cluster", f"--curve={_LONG} 0 1", "--n=2"],
    ["cluster", f"--curve=0 {_LONG} 1", "--n=2"],
    ["cluster", f"--curve=1 0 -{_LONG}", "--n=2"],
    ["cluster", f"--curve=1 0 1/{_LONG}", "--n=2"],
    ["cluster", "--curve=y", f"--branch=y+{_LONG}*x^2", "--n=2"],
    ["witness", f"--branch=y={_LONG}*x", "--degree=2", "--mult=0", "--target=3"],
    ["nagata", "--n=2", f"--eps={_LONG}"],
    ["nagata", "--n=2", f"--eps=1/{_LONG}"],
    ["nagata", "--n=2", f"--eps=sqrt({_LONG})"],
])
def test_input_literal_past_the_digit_limit(capsys, argv):
    assert assert_usage_error(capsys, *argv) == _LITERAL_MESSAGE


def test_power_degree_past_the_printable_digits(capsys):
    # the exponent has 4300 digits, the total degree 2 * k one more
    curve = "(x^2)^" + "9" * 4300
    err = assert_usage_error(capsys, "cluster", "--curve", curve, "--n", "2")
    assert err.startswith("usage error: total degree at least 999") and "the limit 64" in err
    assert "set_int_max_str_digits" not in err


def test_monomial_line_degree_past_the_printable_digits(capsys):
    # two exponents of 4300 digits, whose sum has one more
    curve = "9" * 4300 + " " + "9" * 4300 + " 1"
    err = assert_usage_error(capsys, "cluster", "--curve", curve, "--n", "2")
    assert err.startswith("usage error: total degree at least 999") and "the limit 64" in err
    assert "set_int_max_str_digits" not in err


def test_zero_denominator_in_a_monomial_line_is_usage_error(capsys):
    err = assert_usage_error(capsys, "cluster", "--curve=1 0 1/0", "--n=2")
    assert err == "usage error: zero denominator in '1 0 1/0'\n"


def test_unreadable_curve_file_is_usage_error(tmp_path, capsys):
    not_utf8 = tmp_path / "curve.txt"
    not_utf8.write_bytes(b"\xff\xfe x\n")
    for path, message in ((not_utf8, "can't decode"), ("a\0b", "null byte"),
                          (tmp_path / "missing.txt", "cannot read curve file")):
        err = assert_usage_error(capsys, "cluster", "--curve-file", str(path), "--n", "2")
        assert message in err


@pytest.mark.parametrize("argv", [
    # solvable, but the basis holds the cube of a 1500-digit coefficient
    ["witness", "--branch", f"y={'3' * 1500}*x", "--degree", "3", "--mult", "0",
     "--target", "4"],
    # eps has the 4300 digits int() converts, and the bound 9 * eps one more
    ["nagata", "--n", "9", "--eps", "9" * 4300],
    ["nagata", "--n", "9", "--eps", "9" * 4300, "--format", "json"],
    # the echoed preset branch has the exponent 8 * b
    ["witness", "n8", "--b", "9" * 4300],
    # basis coefficients are powers of the 4300-digit one, up to the sixth
    ["witness", "--branch", f"y={'9' * 4300}*x", "--degree", "6", "--mult", "0",
     "--target", "32"],
], ids=["witness", "nagata", "nagata-json", "witness-n8", "witness-degree-6"])
def test_unprintable_result_is_usage_error(capsys, argv):
    err = assert_usage_error(capsys, *argv)
    assert err == ("usage error: a result has a number longer than the 4300 digits "
                   "a report can print\n")
    assert "set_int_max_str_digits" not in err


def test_curve_file_size_limit(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_bytes(b"x" + b" " * (MAX_CURVE_FILE_BYTES - 1))
    code, out, _ = run(capsys, "cluster", "--curve-file", str(path), "--n", "2")
    assert code == 0 and "mults\t1,0" in out
    path.write_bytes(b"x" + b" " * MAX_CURVE_FILE_BYTES)
    err = assert_usage_error(capsys, "cluster", "--curve-file", str(path), "--n", "2")
    assert f"longer than {MAX_CURVE_FILE_BYTES} bytes" in err


def test_curve_file_keeps_text_mode_newlines(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_bytes(b"1 0 1\r\n0 2 1\r\n")
    code, out, _ = run(capsys, "cluster", "--curve-file", str(path), "--n", "2")
    assert code == 0 and "# input.curve\t1 0 1; 0 2 1\n" in out


# every line break str.splitlines() knows; the grammar reads each as whitespace
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda brk: ascii(brk)[1:-1])
def test_tsv_keeps_one_record_per_line(capsys, brk):
    code, out, _ = run(capsys, "cluster", "--curve", f"x{brk}+y^2", "--n", "2")
    assert code == 0 and "# input.curve\tx; +y^2\n" in out
    assert len(out.splitlines()) == out.count("\n")


@pytest.mark.parametrize("degree, target", [(MAX_WITNESS_DEGREE + 1, 4),
                                            (3, MAX_WITNESS_TARGET + 1)])
def test_witness_size_limits(capsys, degree, target):
    err = assert_usage_error(capsys, "witness", "--branch", "y=x^2", "--degree", str(degree),
                             "--mult", "0", "--target", str(target))
    assert "must be at most" in err


def test_witness_target_limit_is_the_same_for_both_branch_forms(capsys):
    # without --precision an implicit branch is solved to the target, capped
    # at the precision limit, so the target limit is what gets reported
    target = str(MAX_WITNESS_TARGET + 1)
    errs = {assert_usage_error(capsys, "witness", "--branch", branch, "--degree", "2",
                               "--mult", "0", "--target", target)
            for branch in ("y=x^2", "y-x^2")}
    assert errs == {f"usage error: target order must be at most {MAX_WITNESS_TARGET}\n"}
    code, out, _ = run(capsys, "witness", "--branch", "y-x^2", "--degree", "2", "--mult", "0",
                       "--target", str(MAX_WITNESS_TARGET))
    assert code == 0 and f"# input.precision\t{MAX_WITNESS_TARGET}\n" in out


@pytest.mark.parametrize("precision", [0, -5, MAX_IMPLICIT_PRECISION + 1])
@pytest.mark.parametrize("branch", ["y=x", "y-x"], ids=["explicit", "implicit"])
@pytest.mark.parametrize("command", [["cluster", "--curve=y", "--n=2"],
                                     ["witness", "--degree=2", "--mult=0", "--target=3"]],
                         ids=["cluster", "witness"])
def test_precision_range_is_the_same_for_both_branch_forms(capsys, command, branch, precision):
    err = assert_usage_error(capsys, *command, f"--branch={branch}", f"--precision={precision}")
    assert err == f"usage error: precision must be between 1 and {MAX_IMPLICIT_PRECISION}\n"


def test_implicit_branch_precision_limit(capsys):
    code, out, _ = run(capsys, "cluster", "--curve=y", "--branch=y-x^2", "--n=2",
                       f"--precision={MAX_IMPLICIT_PRECISION}")
    assert code == 0 and "mults\t1,1" in out
    err = assert_usage_error(capsys, "cluster", "--curve=y", "--branch=y-x^2", "--n=2",
                             f"--precision={MAX_IMPLICIT_PRECISION + 1}")
    assert err == f"usage error: precision must be between 1 and {MAX_IMPLICIT_PRECISION}\n"


def assert_branch_solved_within(capsys, branch: str, seconds: float) -> None:
    """cluster solves the implicit branch at the precision limit within
    `seconds`, and f(x, g) vanishes to that precision."""
    with time_limit(seconds):
        code, out, _ = run(capsys, "cluster", "--curve=y", f"--branch={branch}", "--n=2",
                           f"--precision={MAX_IMPLICIT_PRECISION}")
    assert code == 0
    f = parse_poly_xy(branch)
    residual = f.substitute_y(parse_branch(branch, MAX_IMPLICIT_PRECISION).g)
    assert residual.is_zero and residual.precision >= MAX_IMPLICIT_PRECISION


def test_implicit_branch_at_the_precision_limit_is_fast(capsys):
    # one substitution per coefficient took about 37 s on a 2-vCPU Xeon VM;
    # Newton lifting needs 2 log2(256) = 16 substitutions
    assert_branch_solved_within(capsys, "y+y^2+x*y^3-x^2+x^3*y", 3.0)


def test_dense_implicit_branch_at_the_precision_limit_is_fast(capsys):
    # F has y-degree 32, so each substitution multiplies series of about
    # 250 terms with coefficients of about 900 bits; Fraction products term
    # by term took 8-10 s on a 2-vCPU Xeon VM, packed integer products 1.1 s
    assert_branch_solved_within(capsys, "y+(x+y)^2*(1+x-y)^30", 4.0)


# the jet sum of (-1)^k (k+1)/(k mod 6 + 1) x^k for k = 1..64: substituting
# the whole polynomial branch into a degree-8 curve expands g^8 to degree 512
_DENSE_JET = "y=" + "".join(f"{'-' if k % 2 else '+'}{k + 1}/{k % 6 + 1}*x^{k}"
                            for k in range(1, 65))


def _random_jet(rng: random.Random) -> str:
    """64 terms, each an integer in -9..9 (0 read as 1) over one in 1..9."""
    terms = []
    for k in range(1, 65):
        c = rng.randint(-9, 9) or 1
        terms.append(f"{'-' if c < 0 else '+'}{abs(c)}/{rng.randint(1, 9)}*x^{k}")
    return "y=" + "".join(terms)


_RANDOM_JET = _random_jet(random.Random(0))


def test_dense_witness_system_at_degree_12_is_fast(capsys):
    # 89 x 90 with kernel 1 at the Veronese edge: Bareiss elimination took
    # 15.7 s on a 2-vCPU Xeon VM, elimination mod p and lifting 0.7-0.9 s
    with time_limit(4.0):
        code, out, _ = run(capsys, "witness", f"--branch={_RANDOM_JET}", "--degree=12",
                           "--mult=1", "--target=90")
    assert code == 0
    assert "exists\ttrue\n" in out and "kernel_dim\t1\n" in out


def test_witness_recheck_on_dense_jet_is_fast(capsys, monkeypatch):
    # evaluating the basis curve along the jet took 0.16-0.26 s with
    # Fraction Horner on a 2-vCPU Xeon VM, 0.02 s with integer Horner
    spent = []
    recheck = witness._recheck

    def timed(verdict):
        started = time.perf_counter()
        recheck(verdict)
        spent.append(time.perf_counter() - started)

    monkeypatch.setattr(witness, "_recheck", timed)
    with time_limit(2.0):
        code, out, _ = run(capsys, "witness", f"--branch={_RANDOM_JET}", "--degree=12",
                           "--mult=1", "--target=90")
    assert code == 0 and "kernel_dim\t1\n" in out
    assert len(spent) == 1 and spent[0] < 0.1


def test_implicit_branch_with_many_long_denominators(capsys):
    # 40 terms over distinct 1000-digit denominators: their lcm has about
    # 133000 bits, so the series kernels keep Fractions for such operands
    rng = random.Random(23)
    terms = [(p, q) for p in range(1, 14) for q in range(3)][:40]
    branch = "y + " + " + ".join(f"1/{rng.randrange(10**999, 10**1000) | 1}*x^{p}*y^{q}"
                                 for p, q in terms)
    with time_limit(10.0):
        code, out, err = run(capsys, "cluster", "--curve=y^2-x^3", f"--branch={branch}",
                             "--n=3", "--precision=8")
    assert code == 0 and err == ""
    assert "mults\t2,0,0\n" in out


def test_witness_recheck_on_dense_jet_stays_at_target_order(capsys):
    with time_limit(2.0):
        code, out, _ = run(capsys, "witness", f"--branch={_DENSE_JET}", "--degree=8",
                           "--mult=0", "--target=20")
    assert code == 0
    assert "kernel_dim\t25\n" in out


# ------------------------------------------------------------- parse work

# Expressions of a few KB whose expansion takes 6 s to more than 8 minutes
# without a work limit: each ends within 2 s, in a report or in the limit.
@pytest.mark.parametrize("curve, accepted", [
    (f"({'9' * 1000}*x+{'7' * 1000}*y+{'3' * 1000})^64", False),
    (f"({'9' * 4300}*x+{'7' * 4300}*y+{'3' * 4300})^64", False),
    ("+".join(["(1+x+y)^64"] * 16), False),
    ("+".join(f"x^{t - q}*y^{q}" for t in range(65) for q in range(t + 1)), True),
], ids=["1000-digit-power", "4300-digit-power", "16-powers", "2145-monomials"])
def test_parse_work_is_bounded(capsys, curve, accepted):
    with time_limit(2.0):
        code, out, err = run(capsys, "cluster", f"--curve={curve}", "--n=2")
    if accepted:
        assert code == 0 and "mults\t0,0" in out
    else:
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("usage error: expanding the expression takes more than the parse "
                              "work limit") and '"p q coeff"' in err


# -------------------------------------------------------------------- fuzz

def _poly(max_q: int) -> st.SearchStrategy[str]:
    term = st.tuples(st.integers(-3, 3), st.integers(0, 4), st.integers(0, max_q))
    return st.lists(term.map(lambda t: "({})*x^{}*y^{}".format(*t)), min_size=1, max_size=4
                    ).map("+".join)


# digit runs on both sides of the 4300 digits int() and str() convert
_RUN = st.one_of(st.integers(1, 40), st.integers(1400, 6000)).map(lambda k: "9" * k)
_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="xy0123456789+-*^()/= ", max_size=8),
    st.tuples(st.sampled_from(["{}", "{}*x", "x^{}", "1 0 {}", "sqrt({})", "y={}*x"]), _RUN)
    .map(lambda form_run: form_run[0].format(form_run[1])),
)
# nesting on both sides of the parser's limit, and every line break
_SHAPED = st.one_of(
    st.integers(0, 2000).map(nested),
    st.integers(0, 2000).map(lambda depth: nested(depth, "y-x^2")),
    st.sampled_from(LINE_BREAKS).map("x{}+y".format),
)
_CURVE = st.one_of(_poly(4), _TEXT, _SHAPED)
_BRANCH = st.one_of(_poly(0).map("y={}".format), _poly(4).map("y+x*({})".format), _TEXT,
                    _SHAPED)
_NUMBER = st.one_of(st.integers(-3, 12).map(str), st.integers(-10**6, 10**13).map(str), _RUN)
# sizes past the witness and precision limits are rejected before any work
_DEGREE = st.one_of(st.integers(-2, 6), st.integers(1, 3).map(MAX_WITNESS_DEGREE.__add__)).map(str)
_TARGET = st.one_of(st.integers(-2, 32), st.integers(1, 3).map(MAX_WITNESS_TARGET.__add__)).map(str)
_PRECISION = st.one_of(st.integers(1, 32), st.sampled_from([64, 128]),
                       st.integers(1, 3).map(MAX_IMPLICIT_PRECISION.__add__)).map(str)
_FORMAT = st.sampled_from(["tsv", "json", "xml"])
# command -> (flags always given, flags given or not); None marks a bare word.
# --precision is always given, so every implicit branch is solved at a drawn
# precision: small ones, the 64 and 128 of real calls, or one past the limit.
_FLAGS = {
    "table": ({}, {"--dmax": _NUMBER, "--format": _FORMAT}),
    "bounds": ({"--n": _NUMBER}, {"--l2": _NUMBER, "--r": _NUMBER, "--format": _FORMAT}),
    "cluster": ({"--curve": _CURVE, "--n": _NUMBER, "--precision": _PRECISION},
                {"--branch": _BRANCH, "--format": _FORMAT}),
    "witness": ({"--branch": _BRANCH, "--degree": _DEGREE,
                 "--mult": _NUMBER, "--target": _TARGET, "--precision": _PRECISION},
                {"n8": st.none(), "--b": _NUMBER, "--format": _FORMAT}),
    "nagata": ({"--n": _NUMBER},
               {"--r": _NUMBER, "--eps": _TEXT, "--conjecture": st.none(), "--format": _FORMAT}),
}


def _argv(command: str) -> st.SearchStrategy[list[str]]:
    required, optional = _FLAGS[command]
    # flag=value keeps a value such as "-h" from reading as a flag
    return st.fixed_dictionaries(required, optional=optional).map(lambda flags: [command] + [
        flag if value is None else f"{flag}={value}" for flag, value in flags.items()])


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(_FLAGS)).flatmap(_argv))
def test_fuzz_main_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(2.0), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("usage error: ")
        assert "set_int_max_str_digits" not in err.getvalue()
    report = out.getvalue()
    if "--format=json" not in argv:  # TSV: one record per line
        assert len(report.splitlines()) == report.count("\n")


def test_json_reports_are_sorted_and_stable(capsys):
    _, out, _ = run(capsys, "nagata", "--n", "8", "--eps", "6/17", "--format", "json")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    _, again, _ = run(capsys, "nagata", "--n", "8", "--eps", "6/17", "--format", "json")
    assert out == again


# RatMatrix.kernel patched to return a vector outside the kernel: the
# independent re-check must reject the basis, also with asserts compiled out.
_BAD_KERNEL = """\
import sys
from seshadri import cli, exact
exact.RatMatrix.kernel = lambda self: [[{lead}] + [0] * (self.cols - 1)]
sys.exit(cli.main(["witness", "n8"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_witness_failed_recheck_is_verification_failure(flags):
    # the n8 columns start at x^2, which has the double point but meets the
    # branch only to order 2; the zero vector has no multiplicity at all
    for lead, failure in [(1, "x^2 fails the contact-order check"),
                          (0, "0 fails the multiplicity check")]:
        proc = run_python(*flags, "-c", _BAD_KERNEL.format(lead=lead))
        assert proc.returncode == 2
        assert proc.stderr == f"verification failure: basis curve {failure}\n"
        assert proc.stdout == ""


def test_module_entry_point_runs():
    proc = run_python("-m", "seshadri", "table")
    assert proc.returncode == 0
    assert "48/17" in proc.stdout


def test_closed_stdout_keeps_the_verdict_without_a_traceback():
    # the reading end is closed before the child writes its report
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "seshadri", "witness", "n8", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(repo / "src")}, cwd=repo)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_library_has_no_assert():
    # python -O strips asserts, so every check in the library is an explicit raise
    src = Path(__file__).resolve().parents[1] / "src" / "seshadri"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_library_has_no_floating_point():
    # the only float is the INF precision sentinel; decimal renders for display in cli.py
    src = Path(__file__).resolve().parents[1] / "src" / "seshadri"
    exact_math = {"gcd", "isqrt", "lcm", "comb"}
    sentinels = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # ast.walk visits an assignment before the call on its right-hand side
        sentinel = None
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Assign) and ast.unparse(node) == "INF = float('inf')":
                sentinel = node.value
                sentinels.append(path.name)
            elif isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                assert node is sentinel, where
            elif isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
                assert "math" not in modules and "decimal" not in modules, where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {alias.name for alias in node.names} <= exact_math, where
            elif isinstance(node, ast.ImportFrom) and node.module == "decimal":
                assert path.name == "cli.py", where
    assert sentinels == ["series.py"]


def test_acceptance_criteria_pass_without_asserts():
    # python -O compiles the library's asserts out, so no check the criteria
    # rest on may be an assert; each criterion prints one PASS or FAIL line
    proc = run_python("-O", "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                      "tests/test_acceptance.py")
    # each line follows the progress dot of the test before it
    assert proc.stdout.count("[PASS] criterion ") == 10, proc.stdout
    assert "[FAIL]" not in proc.stdout, proc.stdout
    assert proc.returncode == 0, proc.stdout
