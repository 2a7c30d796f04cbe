"""Exact scalar arithmetic: rationals, quadratic surds, and rational matrices
with kernel computation.

Everything in this module is exact. Rationals are arbitrary precision, two
surds c*sqrt(s) are ordered by the one rational key c*|c|*s, and linear
algebra eliminates mod a prime and lifts kernel vectors p-adically, each
checked exactly. No floating point is used anywhere in the library; decimal
renderings for display live in the command line layer only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable

__all__ = [
    "square_free_split",
    "SurdValue",
    "surd_compare",
    "RatMatrix",
]


# trial division runs up to sqrt(n): at most 5 * 10**5 divisors at the limit
MAX_RADICAND = 10**12


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * core with core square-free; return (outer, core).

    Requires 1 <= n <= MAX_RADICAND. Trial division; fine for the radicand
    sizes that occur in bound arithmetic (products of small covering
    invariants).
    """
    if n < 1:
        raise ValueError("square_free_split needs a positive integer")
    if n > MAX_RADICAND:
        raise ValueError(f"radicand exceeds the limit {MAX_RADICAND}")
    outer, core, d, m = 1, 1, 2, n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
        d += 1 if d == 2 else 2
    core *= m  # leftover factor is prime, exponent 1
    return outer, core


@dataclass(frozen=True)
class SurdValue:
    """Exact real number of the form coeff * sqrt(radicand).

    Normal form: radicand is square-free and >= 1, square factors are
    absorbed into coeff, and the value is rational exactly when radicand
    is 1 (a zero coefficient forces radicand 1 as well).
    """

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        coeff = Fraction(self.coeff)
        rad = self.radicand
        if rad < 0:
            raise ValueError("radicand must be non-negative")
        if coeff == 0 or rad == 0:
            coeff, rad = Fraction(0), 1
        else:
            outer, core = square_free_split(rad)
            coeff, rad = coeff * outer, core
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", rad)

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        root = f"sqrt({self.radicand})"
        if self.coeff == 1:
            return root
        if self.coeff == -1:
            return f"-{root}"
        if self.coeff.denominator == 1:
            return f"{self.coeff}*{root}"
        return f"({self.coeff})*{root}"

    def __repr__(self) -> str:
        return f"SurdValue({self.coeff!r}, {self.radicand})"


def surd_compare(a: SurdValue, b: SurdValue) -> int:
    """Exact ordering of two surd values: -1, 0 or 1.

    Compares the rationals c*|c|*s for c*sqrt(s): that is x*|x| at
    x = c*sqrt(s), and x -> x*|x| is strictly increasing.
    """
    ka = a.coeff * abs(a.coeff) * a.radicand
    kb = b.coeff * abs(b.coeff) * b.radicand
    return (ka > kb) - (ka < kb)


def _pack(ints: Iterable[tuple[int, int]], span: int, width: int) -> int:
    """sum n * 2^(8 * width * e) over (e, n) in ints, |n| < 2^(8 * width - 1):
    each slot biased to non-negative bytes, joined, the joined bias removed."""
    half = 1 << (8 * width - 1)
    bias = half.to_bytes(width, "little")
    slots = [bias] * span
    for e, n in ints:
        slots[e] = (n + half).to_bytes(width, "little")
    return int.from_bytes(b"".join(slots), "little") - int.from_bytes(bias * span, "little")


def _unpack(packed: int, span: int, width: int) -> list[int]:
    """_pack's inverse: the first span slots, lowest first, biased to bytes."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * span, "little")
    data = ((packed + bias) & ((1 << 8 * width * span) - 1)).to_bytes(width * span, "little")
    return [int.from_bytes(data[i:i + width], "little") - half for i in range(0, len(data), width)]


def _integer_row(row: list[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integer entries, same row space."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _primes(seed: int):
    """One-digit primes, below 2^30: 2^30 - 35, then hashed from seed, so no input fails a run."""
    yield (1 << 30) - 35
    while True:
        seed = hash((seed,))
        p = (1 << 30) - 37 - 2 * (seed % (1 << 28))
        while any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
            p -= 2
        yield p


def _eliminate(rows: list[list[int]], p: int, cols: int) -> tuple[list[int], list[list[int]]]:
    """Gauss-Jordan mod p, pivots among the first cols columns: the pivots and
    the pivot rows, in [0, p). A row is one int of _pack slots plus bias; only
    a pivot row is reduced, other slots take at most rank updates below p^2."""
    span = max(map(len, rows), default=0)
    width = (2 * p.bit_length() + span.bit_length() + 9) // 8
    shift, mask, half = 8 * width, (1 << 8 * width) - 1, 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * span, "little")
    packed = [_pack(enumerate(v % p for v in row), span, width) + bias for row in rows]
    pivots: list[int] = []
    for c in range(cols):
        column = [(((row >> c * shift) & mask) - half) % p for row in packed]
        i = next((i for i in range(len(pivots), len(packed)) if column[i]), None)
        if i is None:
            continue
        slots = _unpack(packed[i] - bias, span, width)
        inverse = pow(slots[c], -1, p)
        top = _pack(enumerate(v * inverse % p for v in slots), span, width)
        packed = [row - f * top if f else row for row, f in zip(packed, column)]
        packed[i], packed[len(pivots)] = packed[len(pivots)], top + bias
        pivots.append(c)
    return pivots, [[v % p for v in _unpack(row - bias, span, width)] for row in packed[:len(pivots)]]


def _lift(a: list[list[int]], cols: int, rows: list[list[int]], pivots: list[int],
          inverse: list[list[int]], frees: list[int], p: int) -> list[list[Fraction]] | None:
    """Per free column f the v with a * v = 0, v[f] = 1 and 0 off pivots and f, or
    None if one does not exist (p divides a minor over Q): Dixon lifting (Numer.
    Math. 40, 1982) on the pivot block `rows`, inverse mod p given, and rational
    reconstruction over one denominator (von zur Gathen & Gerhard, Modern Computer
    Algebra, 5.10) at doubling precision until the vectors solve the block, at the
    latest once n > 2 H^2 for the block's Hadamard bound H."""
    r, big = len(pivots), max((abs(v) for row in rows for v in row), default=0)
    # digits mod q = p^(2^k) of about bits(big) / r bits, the inverse lifted by Newton
    q, square = p, [[row[c] for c in pivots] for row in rows]
    while r * q.bit_length() < big.bit_length():
        q *= q
        t = [[sum(map(int.__mul__, row, col)) % q for col in zip(*inverse)] for row in square]
        inverse = [[(2 * x - sum(map(int.__mul__, xrow, col))) % q for x, col in zip(xrow, zip(*t))]
                   for xrow in inverse]
    # |b| < 2 r big, and |b - block * x| < r big (q + 1)
    bw = (r.bit_length() + big.bit_length() + q.bit_length() + 9) // 8
    cw = (2 * q.bit_length() + r.bit_length() + 9) // 8
    block = [_pack(enumerate(row[c] for row in rows), r, bw) for c in pivots]
    inv = [_pack(enumerate(row[s] for row in inverse), r, cw) for s in range(r)]
    bs = [_pack(enumerate(-row[f] for row in rows), r, bw) for f in frees]
    digits, n, goal = [[0] * r for _ in frees], 1, q
    while True:
        for i, b in enumerate(bs):
            y = sum(map(int.__mul__, (v % q for v in _unpack(b, r, bw)), inv))
            x = [v % q for v in _unpack(y, r, cw)]
            bs[i] = (b - sum(map(int.__mul__, x, block))) // q
            digits[i] = [s + v * n for s, v in zip(digits[i], x)]
        n *= q
        if n >= goal:
            # numerators and denominators up to bound are unique mod n > 2 bound^2
            bound, den = 1 << (n.bit_length() - 2) // 2, 1
            for s in (s for d in digits for s in d):
                if den > bound:
                    break
                r0, r1, t0, t1 = n, den * s % n, 0, 1
                while r1 > bound:
                    f = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - f * r1, t1, t0 - f * t1
                den *= abs(t1)
            found = [dict(zip(pivots + [f], [(den * s + n // 2) % n - n // 2 for s in d] + [den]))
                     for f, d in zip(frees, digits)]
            vs = [[e.get(c, 0) for c in range(cols)] for e in found]
            if den <= bound and not any(sum(map(int.__mul__, row, v)) for v in vs for row in rows):
                exact = not any(sum(map(int.__mul__, row, v)) for v in vs for row in a)
                return [[Fraction(e, den) for e in v] for v in vs] if exact else None
            goal = n * n


class RatMatrix:
    """Dense matrix of exact rationals.

    Sized for witness systems: a degree-12 system is about 90 x 91, and the
    witness degree limit of 16 allows 153 columns. No sparse machinery on
    purpose.
    """

    def __init__(self, entries: Iterable[Iterable[Fraction | int]], cols: int):
        rows = [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in entries]
        if any(len(row) != cols for row in rows):
            raise ValueError(f"every row needs {cols} entries")
        self.entries = rows
        self.rows = len(rows)
        self.cols = cols

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Rank mod a prime p is at most the rank over Q: full column rank mod p
        proves the identity form, and k exact kernel vectors, one per column free
        mod p, a kernel of dimension k. If a vector fails or is nonzero past its
        free column (other pivots), the next prime is tried."""
        a = [_integer_row(row) for row in self.entries]
        m, n = len(a), self.cols
        # columns divided by their contents: smaller entries, and v[j] * content[j] solves a
        content = [gcd(*(row[j] for row in a)) or 1 for j in range(n)]
        a = [[v // c for v, c in zip(row, content)] for row in a]
        for p in _primes(hash(tuple(map(tuple, a)))):
            frees, vectors = [], []
            if m < n or len(_eliminate(a, p, n)[0]) < n:
                # on [a | I] pivot rows end in the block's inverse, zero off its rows
                pivots, tops = _eliminate([row + [int(i == j) for j in range(m)]
                                           for i, row in enumerate(a)], p, n)
                support = [j for j in range(m) if any(t[n + j] for t in tops)]
                inverse = [[t[n + j] for j in support] for t in tops]
                frees = [c for c in range(n) if c not in pivots]
                vectors = _lift(a, n, [a[j] for j in support], pivots, inverse, frees, p)
            if vectors is not None and all(not any(v[f + 1:]) for f, v in zip(frees, vectors)):
                break
        pivots, fixed = [c for c in range(n) if c not in frees], dict(zip(frees, vectors))
        zero, one = Fraction(0), Fraction(1)
        reduced = [[-fixed[j][c] * content[j] / content[c] if j in fixed else one if j == c else zero
                    for j in range(n)] for c in pivots]
        return reduced + [[zero] * n for _ in range(m - len(pivots))], pivots

    def kernel(self) -> list[list[Fraction]]:
        """Basis of the right kernel; every vector satisfies self * v = 0 exactly."""
        reduced, pivots = self.rref()
        basis: list[list[Fraction]] = []
        for free in (c for c in range(self.cols) if c not in pivots):
            v = [Fraction(int(c == free)) for c in range(self.cols)]
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][free]
            basis.append(v)
        return basis

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"
