"""Parsers for the small input grammar used by the command line.

Polynomial expressions use integer or num/den rational coefficients, the
variables x and y, ^ for powers, optional * (adjacency multiplies), + and -,
and parentheses:

    expr   = ["-"|"+"] term { ("+"|"-") term }
    term   = factor { ["*"] factor }
    factor = atom ["^" uint]
    atom   = uint ["/" uint] | "x" | "y" | "(" expr ")"

A product or power whose total degree would exceed MAX_DEGREE is rejected
before it is expanded, and so is an exponent above MAX_DEGREE. Parentheses
nested deeper than MAX_NESTING are rejected before the parser recurses.

Curves may also be given as a list of monomial lines "p q coeff" with coeff
an integer or num/den. Branches are either explicit graphs "y = poly(x)" or
an implicit polynomial F(x, y) solved for y at the requested precision.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cluster import BranchJet, branch_from_implicit
from .exact import SurdValue
from .series import BiSeries, XSeries

__all__ = [
    "ParseError",
    "parse_poly_xy",
    "parse_poly_x",
    "parse_terms",
    "parse_curve",
    "parse_branch",
    "parse_surd",
]


class ParseError(ValueError):
    """Input text does not match the documented grammar."""


_TOKEN_RE = re.compile(r"\s*(\d+|[xy*^+()/-])")

_ONE = BiSeries({(0, 0): 1})

# expanding a power costs about the cube of its degree
MAX_DEGREE = 64
# each level costs four stack frames, well inside the interpreter's 1000
MAX_NESTING = 64


def _degree(poly: BiSeries) -> int:
    return max((p + q for p, q in poly.coeffs), default=0)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.source!r}")
        self.pos += 1
        return tok

    def expr(self) -> BiSeries:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        result = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            result = result + self.term() * sign
        return result

    def check_degree(self, degree: int) -> None:
        if degree > MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds the limit {MAX_DEGREE} "
                             f"in {self.source!r}")

    def term(self) -> BiSeries:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
            elif tok is None or not (tok.isdigit() or tok in ("x", "y", "(")):
                return result
            # "*" or adjacency
            right = self.factor()
            self.check_degree(_degree(result) + _degree(right))
            result = result * right

    def factor(self) -> BiSeries:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a non-negative integer in {self.source!r}")
            k = int(tok)
            if k > MAX_DEGREE:  # before degree * k, which str() may not print
                what = "total degree at least" if _degree(base) else "exponent"
                raise ParseError(f"{what} {k} exceeds the limit {MAX_DEGREE} in {self.source!r}")
            self.check_degree(_degree(base) * k)
            return base ** k
        return base

    def atom(self) -> BiSeries:
        tok = self.take()
        if tok.isdigit():
            value = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ParseError(f"bad rational literal in {self.source!r}")
                value /= int(den)
            return _ONE * value
        if tok == "x":
            return BiSeries({(1, 0): 1})
        if tok == "y":
            return BiSeries({(0, 1): 1})
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} "
                                 f"in {self.source!r}")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.take() != ")":
                raise ParseError(f"missing closing parenthesis in {self.source!r}")
            return inner
        raise ParseError(f"unexpected token {tok!r} in {self.source!r}")


def parse_poly_xy(text: str) -> BiSeries:
    """Parse a polynomial in x and y; the result is exact (no truncation)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    parser = _Parser(tokens, text)
    result = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek()!r} in {text!r}")
    return result


def parse_poly_x(text: str) -> XSeries:
    """Parse a polynomial in x alone."""
    poly = parse_poly_xy(text)
    if any(q for _, q in poly.coeffs):
        raise ParseError(f"{text!r} must not involve y")
    return XSeries({p: c for (p, _), c in poly.coeffs.items()})


_TERM_LINE_RE = re.compile(r"^\s*(\d+)\s+(\d+)\s+(-?\d+(?:/\d+)?)\s*$")


def parse_terms(text: str) -> BiSeries:
    """Parse the monomial-list format: one "p q coeff" triple per line."""
    coeffs: dict[tuple[int, int], Fraction] = {}
    seen = False
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _TERM_LINE_RE.match(line)
        if m is None:
            raise ParseError(f"bad monomial line {line!r}")
        seen = True
        key = (int(m.group(1)), int(m.group(2)))
        if sum(key) > MAX_DEGREE:
            raise ParseError(f"total degree {sum(key)} exceeds the limit {MAX_DEGREE} "
                             f"in {line!r}")
        coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(m.group(3))
    if not seen:
        raise ParseError("no monomial lines found")
    return BiSeries(coeffs)


def parse_curve(text: str) -> BiSeries:
    """Parse a curve as either a polynomial expression or a monomial list."""
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and all(_TERM_LINE_RE.match(line) for line in lines):
        return parse_terms(text)
    return parse_poly_xy(text)


_EXPLICIT_BRANCH_RE = re.compile(r"^\s*y\s*=\s*(.*)$", re.DOTALL)


def parse_branch(text: str, precision: int) -> BranchJet:
    """Parse a branch as "y = poly(x)" (exact) or an implicit F(x, y).

    Implicit branches are solved to the requested precision; explicit graphs
    are polynomials and carry infinite precision.
    """
    m = _EXPLICIT_BRANCH_RE.match(text)
    if m is not None:
        g = parse_poly_x(m.group(1))
        if 0 in g.coeffs:
            raise ParseError("branch graph must satisfy g(0) = 0")
        return BranchJet(g)
    f = parse_poly_xy(text)
    try:
        return branch_from_implicit(f, precision)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_SURD_RE = re.compile(
    r"^\s*(?P<sign>-)?\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?\s*"
    r"(?:(?(num)\*\s*)?sqrt\(\s*(?P<rad>\d+)\s*\))?\s*$"
)


def parse_surd(text: str) -> SurdValue:
    """Parse "a/b", "sqrt(s)" or "a/b*sqrt(s)", with an optional leading minus."""
    m = _SURD_RE.match(text)
    if m is None or (m.group("num") is None and m.group("rad") is None):
        raise ParseError(f"cannot parse {text!r} as a rational or surd")
    coeff = Fraction(1)
    if m.group("num") is not None:
        den = m.group("den")
        if den is not None and int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        coeff = Fraction(int(m.group("num")), int(den) if den else 1)
    if m.group("sign"):
        coeff = -coeff
    radicand = int(m.group("rad")) if m.group("rad") is not None else 1
    return SurdValue(coeff, radicand)
