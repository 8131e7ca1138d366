"""Sparse multilinear polynomials over F_p on the Boolean cube.

Coefficients are keyed by monomial bitmask (bit i set means variable i+1 is
in the monomial); zero coefficients are never stored.  Conversion to and from
truth tables is by the subset Moebius transform, which is an exact inverse
pair over any field.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .cube import CubeFunction
from .field import PrimeField


def subsets_up_to(n: int, d: int, least: int = 0) -> list[int]:
    """All subset masks of [n] of size from ``least`` to d, ascending as
    integers; with ``least`` = d, every mask of n bits with d ones."""
    return sorted(sum(1 << i for i in positions) for size in range(least, min(n, d) + 1)
                  for positions in itertools.combinations(range(n), size))


# Bounded: an entry for large n and d holds every monomial of the code.
@functools.lru_cache(maxsize=32)
def _monomials(n: int, d: int) -> tuple[int, ...]:
    """``subsets_up_to(n, d)`` as a tuple, computed once per (n, d)."""
    return tuple(subsets_up_to(n, d))


class MultilinearPoly:
    """A multilinear polynomial as a sparse coefficient map."""

    __slots__ = ("n", "field", "coeffs")

    def __init__(self, n: int, field: PrimeField, coeffs):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[int, int] = {}
        p = field.p
        for mask, c in dict(coeffs).items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"monomial mask {mask} out of range for n={n}")
            c %= p
            if c:
                clean[mask] = c
        self.n = n
        self.field = field
        self.coeffs = clean

    def degree(self) -> int:
        """Largest monomial size with a nonzero coefficient (0 if none)."""
        if not self.coeffs:
            return 0
        return max(m.bit_count() for m in self.coeffs)

    def evaluate_residue(self, x_mask: int) -> int:
        """Value at the point with the given mask, as a raw residue."""
        total = 0
        for mask, c in self.coeffs.items():
            if mask & x_mask == mask:
                total += c
        return total % self.field.p

    def truth_table(self) -> CubeFunction:
        """Dense evaluation over the whole cube via the subset zeta transform.

        Direction i adds the half with bit i clear into the half with bit i
        set and reduces it mod p.  Both halves hold residues below p < 2^31,
        so every sum stays below 2^32 and int64 never overflows.
        """
        p = self.field.p
        values = np.zeros(1 << self.n, dtype=np.int64)
        values[list(self.coeffs)] = list(self.coeffs.values())
        for i in range(self.n):
            view = values.reshape(-1, 2, 1 << i)
            upper = view[:, 1, :]
            upper += view[:, 0, :]
            upper %= p
        return CubeFunction(self.n, self.field, values.tolist())

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearPoly)
            and other.n == self.n
            and other.field.p == self.field.p
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        terms = len(self.coeffs)
        return f"MultilinearPoly(n={self.n}, p={self.field.p}, terms={terms})"


class PolyPoints:
    """A polynomial evaluated point by point, with no table.

    Monomials with the same coefficient and the same variables below their
    highest one form a term (lower variables, coefficient, mask of highest
    variables), so a point costs one subset check and one popcount per term.
    Over F_2 a degree-1 polynomial is one term.  Bits of a mask above n are
    ignored, as no monomial contains them.
    """

    __slots__ = ("n", "field", "constant", "terms")

    def __init__(self, poly: MultilinearPoly):
        groups: dict[tuple[int, int], int] = {}
        for mask, c in poly.coeffs.items():
            if mask:
                top = 1 << (mask.bit_length() - 1)
                groups[mask ^ top, c] = groups.get((mask ^ top, c), 0) | top
        self.n = poly.n
        self.field = poly.field
        self.constant = poly.coeffs.get(0, 0)
        self.terms = tuple((rest, c, tops) for (rest, c), tops in groups.items())

    def values_at(self, masks) -> list[int]:
        """The residues at the given point masks, in order."""
        constant = self.constant
        terms = self.terms
        p = self.field.p
        out = []
        for x in masks:
            total = constant
            for rest, c, tops in terms:
                if rest & x == rest:
                    total += c * (x & tops).bit_count()
            out.append(total % p)
        return out


class CorruptedPoly:
    """A polynomial with sparse value offsets, read point by point.

    ``base`` answers the uncorrupted values: the polynomial's ``PolyPoints``
    or its truth table, whichever is cheaper for the reads to come.
    ``values_at(masks)`` answers (poly(x) + offsets.get(x, 0)) mod p at each
    mask.  With the offsets of ``cube.corruption_offsets(n, p, delta, rng)``
    it reads exactly as ``cube.corrupt(poly.truth_table(), delta, rng)``
    would from the same rng state, and leaves the rng in the same state,
    but builds no corrupted table.
    """

    __slots__ = ("n", "field", "base", "offsets")

    def __init__(self, base, offsets: dict[int, int]):
        self.n = base.n
        self.field = base.field
        self.base = base
        self.offsets = offsets

    def values_at(self, masks) -> list[int]:
        get = self.offsets.get
        p = self.field.p
        return [(v + get(x, 0)) % p for x, v in zip(masks, self.base.values_at(masks))]

    def __repr__(self):
        return f"CorruptedPoly(n={self.n}, p={self.field.p}, offsets={len(self.offsets)})"


def from_truth_table(f: CubeFunction) -> MultilinearPoly:
    """The unique multilinear polynomial agreeing with f on the whole cube.

    Moebius inversion: alpha_S = sum_{T subseteq S} (-1)^{|S|-|T|} f(1_T),
    computed in place one direction at a time, one subtraction mod p per
    pair of ``_moebius_pairs``.
    """
    p = f.field.p
    coeffs = list(f.values)
    for m, low in _moebius_pairs(f.n):
        coeffs[m] = (coeffs[m] - coeffs[low]) % p
    return MultilinearPoly(f.n, f.field, {m: c for m, c in enumerate(coeffs) if c})


# Largest cube, in points, whose Moebius pairs are cached: a table holds
# n 2^(n-1) pairs (24,576 at n = 12); larger cubes stream them.
_PAIR_TABLE_POINTS = 1 << 12
_PAIR_TABLES: dict[int, tuple[tuple[int, int], ...]] = {}


def _moebius_pairs(n: int):
    """The (m, m ^ bit) pairs of the Moebius pass on {0,1}^n: direction
    bit = 1 << i for i = 0..n-1 in turn, and within it every m holding bit in
    ascending order.  A tuple cached per n up to ``_PAIR_TABLE_POINTS``
    points, a generator beyond."""
    table = _PAIR_TABLES.get(n)
    if table is not None:
        return table
    pairs = ((low | bit, low) for bit in (1 << i for i in range(n))
             for low in range(1 << n) if not low & bit)
    if 1 << n > _PAIR_TABLE_POINTS:
        return pairs
    table = _PAIR_TABLES[n] = tuple(pairs)
    return table


def identify_variables(poly: MultilinearPoly, i: int, j: int, b: int) -> MultilinearPoly:
    """Substitute X_j := b xor X_i and renumber the surviving variables.

    b = 0 sets X_j to X_i; b = 1 sets X_j to 1 - X_i.  Squares collapse via
    X_i^2 = X_i, which is valid on {0,1} inputs.  Variables are 0-based and
    the survivors keep their relative order.
    """
    n = poly.n
    if i == j:
        raise ValueError("cannot identify a variable with itself")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("variable index out of range")
    if b not in (0, 1):
        raise ValueError("complement bit must be 0 or 1")
    p = poly.field.p
    bit_i, bit_j = 1 << i, 1 << j
    merged: dict[int, int] = {}

    def add(mask: int, c: int) -> None:
        c = (merged.get(mask, 0) + c) % p
        if c:
            merged[mask] = c
        else:
            merged.pop(mask, None)

    for mask, c in poly.coeffs.items():
        if not mask & bit_j:
            add(mask, c)
            continue
        base = mask ^ bit_j
        if b == 0:
            add(base | bit_i, c)
        else:
            # X_j = 1 - X_i: the term splits into base and -base*X_i.
            add(base, c)
            add(base | bit_i, -c)

    low = bit_j - 1
    compressed = {
        (mask & low) | ((mask >> 1) & ~low): c for mask, c in merged.items()
    }
    return MultilinearPoly(n - 1, poly.field, compressed)


def random_poly(n: int, d: int, field: PrimeField, rng) -> MultilinearPoly:
    """Uniform coefficients on every monomial of size at most d."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    coeffs = {}
    for mask in _monomials(n, d):
        c = rng.randrange(field.p)
        if c:
            coeffs[mask] = c
    return MultilinearPoly(n, field, coeffs)


def _mask_to_text(mask: int) -> str:
    if mask == 0:
        return "0"
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def write_poly(poly: MultilinearPoly, stream) -> None:
    """Text format: header "n p", then one "S:coeff" line per monomial.

    S lists 1-based variable indices separated by commas; the empty monomial
    is written as the zero mask "0".  Lines are emitted in ascending mask
    order so output is canonical.
    """
    stream.write(f"{poly.n} {poly.field.p}\n")
    for mask in sorted(poly.coeffs):
        stream.write(f"{_mask_to_text(mask)}:{poly.coeffs[mask]}\n")
