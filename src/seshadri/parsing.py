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
Products and powers are charged their estimated work before they run, up
to MAX_PARSE_WORK per expression; monomial lines take linear time, uncharged.

Curves may also be given as a list of monomial lines "p q coeff" with coeff
an integer or num/den. Branches are either explicit graphs "y = poly(x)" or
an implicit polynomial F(x, y) solved for y at the requested precision.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .cluster import MAX_IMPLICIT_PRECISION, BranchJet, branch_from_implicit
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

# expanding a power costs about the cube of its degree
MAX_DEGREE = 64
# each level costs four stack frames, well inside the interpreter's 1000
MAX_NESTING = 64
# Parse work, in bit products: a product costs _PRODUCT_WORK plus, per pair
# of terms, (a + _PAIR_BITS) * (b + _PAIR_BITS) for the operands' bits a, b
# from _size. Every expression family tried ran at under 2 ps per unit
# (2-vCPU Xeon VM), (1+x+y)^64 in 0.5-0.9 s.
MAX_PARSE_WORK = 650 * 10**9
_PRODUCT_WORK = 4 * 10**7
_PAIR_BITS = 2000


def _degree(poly: BiSeries) -> int:
    return max((p + q for p, q in poly.coeffs), default=0)


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number in the input is longer than the "
                         f"{sys.get_int_max_str_digits()} digits Python converts") from None


def _size(poly: BiSeries) -> tuple[int, int]:
    return len(poly.coeffs), max((c.numerator.bit_length() + c.denominator.bit_length()
                                  for c in poly.coeffs.values()), default=0)


def _product_work(terms_a: int, bits_a: int, terms_b: int, bits_b: int) -> int:
    return _PRODUCT_WORK + terms_a * terms_b * (bits_a + _PAIR_BITS) * (bits_b + _PAIR_BITS)


def _power_work(base: BiSeries, k: int) -> int:
    """An upper bound on the work of base^k, k products by base unless it is one
    term. With D the bits of the product of base's distinct denominators, base^i
    has at most terms^i terms, no more than the monomials of its degree, and
    coefficients of at most i * (bits(terms) + bits + 2D) bits."""
    terms, bits = _size(base)
    if terms <= 1:  # c^k, at most a square of half its bits
        return _product_work(1, bits * k // 2, 1, bits * k // 2)
    dens = sum((d - 1).bit_length() for d in {c.denominator for c in base.coeffs.values()})
    step, degree = terms.bit_length() + bits + 2 * dens, _degree(base)
    work, count = 0, 1
    for i in range(k):
        work += _product_work(count, i * step, terms, bits)
        count = min(count * terms, ((i + 1) * degree + 1) * ((i + 1) * degree + 2) // 2)
    return work


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
        self.work = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.source!r}")
        self.pos += 1
        return tok

    def expr(self) -> BiSeries:
        coeffs: dict[tuple[int, int], Fraction] = {}
        while True:  # a sign is optional before the first term only
            sign = -1 if self.peek() == "-" else 1
            if self.peek() in ("+", "-"):
                self.take()
            for key, c in self.term().coeffs.items():
                coeffs[key] = coeffs.get(key, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return BiSeries(coeffs)

    def admit(self, degree: int, work: int) -> None:
        if degree > MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds the limit {MAX_DEGREE} "
                             f"in {self.source!r}")
        self.work += work
        if self.work > MAX_PARSE_WORK:
            raise ParseError(f"expanding the expression takes more than the parse work limit "
                             f"{MAX_PARSE_WORK}; monomial lines \"p q coeff\" have no such limit")

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
            self.admit(_degree(result) + _degree(right),
                       _product_work(*_size(result), *_size(right)))
            result = result * right

    def factor(self) -> BiSeries:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a non-negative integer in {self.source!r}")
            k = _int(tok)
            if k > MAX_DEGREE:  # before degree * k, which str() may not print
                what = "total degree at least" if _degree(base) else "exponent"
                raise ParseError(f"{what} {k} exceeds the limit {MAX_DEGREE} in {self.source!r}")
            self.admit(_degree(base) * k, _power_work(base, k))
            return base ** k
        return base

    def atom(self) -> BiSeries:
        tok = self.take()
        if tok.isdigit():
            value = Fraction(_int(tok))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or _int(den) == 0:
                    raise ParseError(f"bad rational literal in {self.source!r}")
                value /= _int(den)
            return BiSeries({(0, 0): value})
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


_TERM_LINE_RE = re.compile(r"^\s*(\d+)\s+(\d+)\s+(-?\d+)(?:/(\d+))?\s*$")


def parse_terms(text: str) -> BiSeries:
    """Parse the monomial-list format: one "p q coeff" triple per line."""
    coeffs: dict[tuple[int, int], Fraction] = {}
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("no monomial lines found")
    for line in lines:
        m = _TERM_LINE_RE.match(line)
        if m is None:
            raise ParseError(f"bad monomial line {line!r}")
        p, q, num, den = map(_int, m.groups("1"))  # den 1 when absent
        if p + q > MAX_DEGREE:
            # the sum of two exponents may have more digits than str() prints
            shown = p + q if max(p, q) <= MAX_DEGREE else f"at least {max(p, q)}"
            raise ParseError(f"total degree {shown} exceeds the limit {MAX_DEGREE} in {line!r}")
        if den == 0:
            raise ParseError(f"zero denominator in {line!r}")
        coeffs[p, q] = coeffs.get((p, q), Fraction(0)) + Fraction(num, den)
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
    are polynomials and carry infinite precision. Either way the precision
    must lie in 1..MAX_IMPLICIT_PRECISION.
    """
    if not 1 <= precision <= MAX_IMPLICIT_PRECISION:
        raise ParseError(f"precision must be between 1 and {MAX_IMPLICIT_PRECISION}")
    m = _EXPLICIT_BRANCH_RE.match(text)
    poly = parse_poly_x(m.group(1)) if m is not None else parse_poly_xy(text)
    try:
        return BranchJet(poly) if m is not None else branch_from_implicit(poly, precision)
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
    num, den, rad = (_int(m.group(name) or "1") for name in ("num", "den", "rad"))
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return SurdValue(Fraction(-num if m.group("sign") else num, den), rad)
