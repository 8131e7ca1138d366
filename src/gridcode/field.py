"""Exact arithmetic over prime fields F_p, row reduction over F_p and Q, and
the binomial machinery mod p.

Residues are plain ints in [0, p); ``FieldElement`` wraps a residue together
with its field so that cross-field arithmetic is rejected instead of silently
coerced.  Exact rational arithmetic (needed by the characteristic-0
experiments) is provided by ``fractions.Fraction``, re-exported here as
``ExactRational``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Arbitrary-precision rationals: always gcd-reduced with positive denominator.
ExactRational = Fraction

# Products of two residues must fit comfortably in 64-bit intermediates.
MAX_MODULUS = 1 << 31


def is_prime(p: int) -> bool:
    """Deterministic primality check by trial division (fine for p < 2^31)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_p for a prime modulus p, 2 <= p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (2 <= p < MAX_MODULUS):
            raise ValueError(f"modulus must be in [2, 2^31), got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1 % self.p, self)

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


class FieldElement:
    """A residue bound to its PrimeField.  Immutable."""

    __slots__ = ("residue", "field")

    def __init__(self, residue: int, field: PrimeField):
        if not 0 <= residue < field.p:
            residue %= field.p
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.p != self.field.p:
            raise ValueError(
                f"modulus mismatch: {self.field.p} vs {other.field.p}"
            )

    def __add__(self, other):
        self._check(other)
        return FieldElement((self.residue + other.residue) % self.field.p, self.field)

    def __sub__(self, other):
        self._check(other)
        return FieldElement((self.residue - other.residue) % self.field.p, self.field)

    def __mul__(self, other):
        self._check(other)
        return FieldElement((self.residue * other.residue) % self.field.p, self.field)

    def __neg__(self):
        return FieldElement((-self.residue) % self.field.p, self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.residue), self.field)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field.p == self.field.p
            and other.residue == self.residue
        )

    def __hash__(self):
        return hash((self.residue, self.field.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue} (mod {self.field.p})"


def row_reduce(rows: list[list[int]], cols: int,
               field: PrimeField | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of integer rows over F_p, or over Q with
    ``Fraction`` entries when ``field`` is None, pivoting on the first
    ``cols`` columns only.

    Each column in turn takes as pivot the first row at or below the rank
    so far with a nonzero entry there; that row is scaled to a leading 1 and
    the column is cleared in every other row.  Returns the reduced rows
    (residues or fractions) and the pivot columns, row r holding the pivot
    of the r-th.
    """
    def entries(row):
        return [Fraction(v) for v in row] if field is None else [v % field.p for v in row]

    rows = [entries(row) for row in rows]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        inverse = 1 / lead if field is None else field.inv(lead)
        rows[rank] = entries(v * inverse for v in rows[rank])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = entries(a - factor * b for a, b in zip(rows[r], rows[rank]))
        pivots.append(col)
    return rows, pivots


def _digit_binomial_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for single base-p digits a, b < p."""
    if b > a:
        return 0
    b = min(b, a - b)
    num = 1
    den = 1
    for i in range(b):
        num = num * ((a - i) % p) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p if b else 1


def lucas_binomial(a: int, b: int, p: int) -> int:
    """C(a, b) mod p, computed digit by digit in base p (Lucas' theorem)."""
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be non-negative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    result = 1
    while a or b:
        result = result * _digit_binomial_mod(a % p, b % p, p) % p
        if result == 0:
            return 0
        a //= p
        b //= p
    return result


def decoder_constant(d: int, p: int) -> tuple[int, FieldElement]:
    """Smallest power k of p with k > d, and the invertible constant C(d+k, k) mod p.

    The constant is nonzero because the base-p digits of k = p^e and d + k
    never borrow: C(d+k, k) has a single nontrivial digit factor C(1, 1).
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    field = PrimeField(p)
    k = 1
    while k <= d:
        k *= p
    c = lucas_binomial(d + k, k, p)
    return k, field.element(c)


def binomial_sum(n: int, d: int) -> int:
    """C(n, <=d): the number of subsets of [n] of size at most d."""
    return sum(math.comb(n, j) for j in range(0, min(n, d) + 1))
