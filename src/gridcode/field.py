"""Prime fields F_p, row reduction over F_p and Q, and binomial sums.

Values are plain residues, ints in [0, p); exact rationals (needed by the
characteristic-0 experiments) are ``fractions.Fraction``.  ``FieldElement``
is only a record of a residue and its field, returned by the local decoder.
Arrays of residues have the dtype ``residue_dtype(p)`` and add with
``add_mod``, which never widens them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


class FieldElement(NamedTuple):
    """A residue together with the field it lies in."""

    residue: int
    field: PrimeField


def residue_dtype(p: int) -> type:
    """The dtype of residue arrays over F_p: uint8 below 256, else int64."""
    return np.uint8 if p < 256 else np.int64


def add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a + b) mod p for residue arrays of one dtype, without widening."""
    if p == 2:
        return a ^ b
    s = a + b
    if s.dtype == np.uint8 and p <= 128:
        # s < 2p <= 256 does not wrap; s - p wraps above s exactly when s < p.
        return np.minimum(s, s - np.uint8(p), out=s)
    # Past p = 128 a uint8 sum may wrap, and s - p wraps back, so s - p is
    # exact wherever a + b >= p; int64 sums of residues below 2^31 never wrap.
    # Subtracting p where the mask is set ran 3-12x faster than np.where
    # (2^15 entries: ~17-21 against ~190-210 us in uint8, ~73 against ~214 us
    # in int64).
    s -= (a >= p - b) * s.dtype.type(p)
    return s


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


def binomial_sum(n: int, d: int) -> int:
    """C(n, <=d): the number of subsets of [n] of size at most d."""
    return sum(math.comb(n, j) for j in range(0, min(n, d) + 1))
