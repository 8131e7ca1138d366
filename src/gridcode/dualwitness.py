"""Dual witnesses: small well-separated sets supporting a nonzero vector
orthogonal to every monomial of size at most d.

Such a set T forbids any two degree-<=d polynomials from differing at exactly
one point of T: the difference would pair to a single nonzero product against
the witness, contradicting orthogonality.  T is built by a greedy Hamming
code of size C(k,<=d)+1 followed by a kernel computation for the homogeneous
system sum_{y in U} f(y) * prod_{i in A} y_i = 0 over all |A| <= d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError
from .field import PrimeField, binomial_sum, row_reduce
from .poly import subsets_up_to


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def default_window(k: int) -> tuple[int, int]:
    """Desk-scale distance window; wide enough to fit C(k,<=d)+1 points at
    small k, unlike the asymptotic [k/4, 3k/4] choice."""
    lo = max(1, math.ceil(k / 8))
    return lo, k - lo


def asymptotic_window(k: int) -> tuple[int, int]:
    """The asymptotic window [k/4, 3k/4]; needs k large enough to fill."""
    return math.ceil(k / 4), (3 * k) // 4


def greedy_code(k: int, lo: int, hi: int, target_size: int) -> list[int]:
    """First-fit scan of {0,1}^k in ascending mask order, keeping a point iff
    its distance to every kept point lies in [lo, hi].

    Raises CapacityError, naming the count found, if the cube is exhausted
    before ``target_size`` points are kept.
    """
    if not 0 < lo <= hi < k:
        raise ValueError(f"need 0 < lo <= hi < k, got lo={lo}, hi={hi}, k={k}")
    if target_size < 1:
        raise ValueError("target size must be positive")
    kept: list[int] = []
    for candidate in range(1 << k):
        if all(lo <= hamming(candidate, point) <= hi for point in kept):
            kept.append(candidate)
            if len(kept) == target_size:
                return kept
    raise CapacityError(
        f"greedy window [{lo}, {hi}] packed only {len(kept)} of {target_size} "
        f"points in {{0,1}}^{k}"
    )


def _evaluation_rows(k: int, d: int, points) -> list[list[int]]:
    """The value of each monomial of size at most d at each point, one row
    per monomial: row A, column y holds 1 iff A is a subset of y."""
    return [[1 if (y & mono) == mono else 0 for y in points] for mono in subsets_up_to(k, d)]


def _kernel_vector(rows: list[list[int]], field: PrimeField) -> list[int]:
    """A nonzero kernel vector of an under-determined system over F_p: 1 at
    the first free column of the reduced rows, 0 at the other free columns.

    With more columns than rows a free column always remains.
    """
    cols = len(rows[0]) if rows else 0
    reduced, pivots = row_reduce(rows, cols, field)
    free = next(c for c in range(cols) if c not in pivots)
    solution = [0] * cols
    solution[free] = 1
    for row, col in zip(reduced, pivots):
        solution[col] = -row[free] % field.p
    return solution


@dataclass(frozen=True)
class DualWitness:
    """Support points with nonzero weights orthogonal to the degree-d code."""

    k: int
    d: int
    field: PrimeField
    support: tuple[int, ...]
    weights: tuple[int, ...]
    window: tuple[int, int]


def build_witness(
    k: int,
    d: int,
    field: PrimeField,
    lo: int | None = None,
    hi: int | None = None,
) -> DualWitness:
    """Construct a dual witness supported on a greedy code of C(k,<=d)+1 points.

    The N homogeneous orthogonality constraints in N+1 unknowns always admit
    a nonzero solution; its nonzero entries form the support.
    """
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    d_lo, d_hi = default_window(k)
    lo, hi = d_lo if lo is None else lo, d_hi if hi is None else hi
    n_constraints = binomial_sum(k, d)
    universe = greedy_code(k, lo, hi, n_constraints + 1)
    solution = _kernel_vector(_evaluation_rows(k, d, universe), field)
    support, weights = zip(*[(y, w) for y, w in zip(universe, solution) if w])
    return DualWitness(k, d, field, support, weights, (lo, hi))


@dataclass(frozen=True)
class WitnessReport:
    orthogonality: bool
    window: bool
    size: bool
    one_point_separation: bool


def verify_witness(witness: DualWitness) -> WitnessReport:
    """Check the three defining properties of a dual witness.

    Two codewords differing at exactly one support point y differ by a
    codeword whose values on the support are a nonzero multiple of e_y, and
    those value vectors are the row space of the evaluation rows.  A unit
    vector lies in that space iff it is a row of the reduced echelon form
    (its coefficient on each reduced row is its entry at that row's pivot),
    so separation holds iff no reduced row has exactly one nonzero entry.
    """
    p = witness.field.p
    rows = _evaluation_rows(witness.k, witness.d, witness.support)
    orthogonality = all(
        sum(w for v, w in zip(row, witness.weights) if v) % p == 0 for row in rows
    )
    reduced, _ = row_reduce(rows, len(witness.support), witness.field)
    separation = not any(sum(1 for v in row if v) == 1 for row in reduced)

    lo, hi = witness.window
    window_ok = all(
        lo <= hamming(a, b) <= hi
        for idx, a in enumerate(witness.support)
        for b in witness.support[idx + 1:]
    )

    size_ok = 0 < len(witness.support) <= binomial_sum(witness.k, witness.d) + 1
    return WitnessReport(orthogonality, window_ok, size_ok, separation)
