"""Brute-force ground truth: exhaustive enumeration of the degree-d code.

Everything here is an exact oracle backing the Monte Carlo experiments: the
code F(k, d) is enumerated codeword by codeword (all p^C(k,<=d) coefficient
vectors in lexicographic order) and distances are exact fractions.  For
d = 1 over F_2, ``exact_delta_d`` reads every codeword's distance off a
Walsh-Hadamard transform instead, with the same result.  Budgets are hard
errors, never silent approximations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cube import CubeFunction
from .errors import BudgetExceededError
from .field import PrimeField, binomial_sum
from .poly import MultilinearPoly, subsets_up_to

# Full-cube value matrices up to this many bytes are cached per (k, d, p).
_CACHE_BYTE_LIMIT = 1 << 28
_matrix_cache: dict = {}

_BLOCK_ROWS = 1 << 13


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a + b) mod p for residue arrays of one dtype, without widening."""
    if p == 2:
        return a ^ b
    s = a + b
    if s.dtype == np.uint8 and p <= 128:
        # s < 2p <= 256 does not wrap; s - p wraps above s exactly when s < p.
        return np.minimum(s, s - np.uint8(p), out=s)
    return np.where(a >= p - b, s - p, s)


def _span_values(mono: np.ndarray, p: int) -> np.ndarray:
    """Values of every combination sum(c_j * mono[j]) mod p, one row each.

    Rows follow base-p order of (c_1, ..., c_r) with c_1 most significant,
    matching CodeEnumeration's index order over these monomials.
    """
    if len(mono) == 0:
        return np.zeros((1, mono.shape[1]), dtype=mono.dtype)
    steps = np.arange(p, dtype=mono.dtype)[None, :, None] * mono[:, None, :]
    values = steps[0]
    for step in steps[1:]:
        values = _add_mod(values[:, None, :], step, p).reshape(-1, mono.shape[1])
    return values


class CodeEnumeration:
    """All degree-<=d multilinear polynomials on k variables over F_p.

    Codeword index c encodes the coefficient vector as base-p digits with the
    lowest monomial mask as the most significant digit, so increasing index
    order is lexicographic order on coefficient vectors.  ``subsets_up_to``
    fixes the monomial order.
    """

    def __init__(self, k: int, d: int, field: PrimeField, budget: int = 10**7):
        if not 0 <= d <= k:
            raise ValueError(f"need 0 <= d <= k, got d={d}, k={k}")
        self.k = k
        self.d = d
        self.field = field
        self.monomials = subsets_up_to(k, d)
        self.dimension = binomial_sum(k, d)
        self.size = field.p ** self.dimension
        if self.size > budget:
            raise BudgetExceededError(
                f"code has {self.size} codewords (budget {budget})",
                required=self.size,
                budget=budget,
            )

    def coefficient_vector(self, index: int) -> tuple[int, ...]:
        """Base-p digits of the index, first monomial most significant."""
        p = self.field.p
        digits = []
        for _ in range(self.dimension):
            digits.append(index % p)
            index //= p
        return tuple(reversed(digits))

    def poly_at(self, index: int) -> MultilinearPoly:
        vec = self.coefficient_vector(index)
        coeffs = {m: c for m, c in zip(self.monomials, vec) if c}
        return MultilinearPoly(self.k, self.field, coeffs)

    def index_of(self, poly: MultilinearPoly) -> int:
        p = self.field.p
        index = 0
        for m in self.monomials:
            index = index * p + poly.coeffs.get(m, 0)
        return index

    def monomial_matrix(self, points) -> np.ndarray:
        """Rows: monomials, columns: evaluation points (0/1 entries)."""
        pts = np.asarray(list(points), dtype=np.int64)
        mono = np.asarray(self.monomials, dtype=np.int64)
        return ((pts[None, :] & mono[:, None]) == mono[:, None]).astype(np.int64)

    def iter_value_blocks(self, points, block_rows: int = _BLOCK_ROWS):
        """Yield (start_index, values) with values of shape (rows, len(points)).

        Scanning blocks in order visits coefficient vectors lexicographically
        while keeping memory bounded.  The code is linear, so the rows of
        one block are a fixed table over the ``low`` least significant digits
        plus the values of the block's high-digit prefix; blocks hold p^low
        rows with p^low <= block_rows.
        """
        points = list(points)
        p = self.field.p
        dtype = np.uint8 if p < 256 else np.int64
        mono = self.monomial_matrix(points).astype(dtype)
        low = 0
        while low < self.dimension and p ** (low + 1) <= block_rows:
            low += 1
        high = self.dimension - low
        suffix = _span_values(mono[high:], p)
        if high == 0:
            yield 0, suffix
            return
        for h, prefix in enumerate(_span_values(mono[:high], p)):
            yield h * len(suffix), _add_mod(suffix, prefix, p)

    def value_matrix(self, points) -> np.ndarray:
        """All codeword values on the given points, rows in index order."""
        points = list(points)
        matrix = None
        for start, block in self.iter_value_blocks(points):
            if matrix is None:
                matrix = np.empty((self.size, len(points)), dtype=block.dtype)
            matrix[start:start + len(block)] = block
        return matrix

    def cached_full_matrix(self) -> np.ndarray | None:
        """Value matrix over the entire cube, or None if it would be too big."""
        key = (self.k, self.d, self.field.p)
        hit = _matrix_cache.get(key)
        if hit is not None:
            return hit
        if self.size * (1 << self.k) > _CACHE_BYTE_LIMIT:
            return None
        matrix = self.value_matrix(range(1 << self.k))
        _matrix_cache[key] = matrix
        return matrix

    def __iter__(self):
        for index in range(self.size):
            yield self.poly_at(index)


def _weighted_counts(mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row sums of ``weights`` over the True entries of ``mask``, as int64.

    The product runs in float64, which numpy hands to BLAS (its int64 matmul
    is a plain loop).  It is exact: the weights are sample multiplicities,
    so every total is at most the sample length, far below 2^53.
    """
    return (mask.astype(np.float64) @ weights.astype(np.float64)).astype(np.int64)


def _min_disagreement(code: CodeEnumeration, points, table: np.ndarray,
                      weights: np.ndarray | None = None) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) over the code.

    First index attaining the minimum wins, which is the lexicographically
    smallest coefficient vector.
    """
    points = list(points)
    full = None
    if weights is None and points == list(range(1 << code.k)):
        full = code.cached_full_matrix()
    best_index = 0
    best_count = None
    if full is not None:
        counts = np.count_nonzero(full != table[None, :], axis=1)
        best_index = int(np.argmin(counts))
        best_count = int(counts[best_index])
        return best_index, best_count
    for start, block in code.iter_value_blocks(points):
        neq = block != table[None, :]
        if weights is None:
            counts = np.count_nonzero(neq, axis=1)
        else:
            counts = _weighted_counts(neq, weights)
        local = int(np.argmin(counts))
        count = int(counts[local])
        if best_count is None or count < best_count:
            best_count = count
            best_index = start + local
    return best_index, best_count


def _walsh_hadamard_nearest(table: np.ndarray, n: int) -> tuple[int, int]:
    """(best codeword index, disagreement count) for d = 1 over F_2.

    With S the Walsh-Hadamard transform of (-1)^f, the codeword c + a.x
    disagrees with f on (2^n - (-1)^c S[a]) / 2 points.  Its index is
    c 2^n + bitreverse_n(a), since a_1 (bit 0 of a) is the most significant
    linear digit; taking the first minimum in index order keeps the
    tie-break of ``_min_disagreement``.  O(n 2^n).
    """
    spectrum = 1 - 2 * table.astype(np.int64)
    for i in range(n):
        view = spectrum.reshape(-1, 2, 1 << i)
        a, b = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = a + b
        view[:, 1, :] = a - b
    by_index = spectrum.reshape((2,) * n).T.ravel()
    counts = np.concatenate(((1 << n) - by_index, (1 << n) + by_index)) // 2
    best = int(np.argmin(counts))
    return best, int(counts[best])


def exact_delta_d(f: CubeFunction, d: int, budget: int = 10**7):
    """Exact distance from f to the degree-d code, with the nearest codeword.

    Ties break to the lexicographically smallest coefficient vector.  Raises
    BudgetExceededError when p^C(n,<=d) exceeds the budget.
    """
    code = CodeEnumeration(f.n, d, f.field, budget=budget)
    dtype = np.uint8 if f.field.p < 256 else np.int64
    table = np.asarray(f.values, dtype=dtype)
    if d == 1 and f.field.p == 2:
        best, count = _walsh_hadamard_nearest(table, f.n)
    else:
        best, count = _min_disagreement(code, range(1 << f.n), table)
    return Fraction(count, 1 << f.n), code.poly_at(best)


def certify_far(f: CubeFunction, d: int, bound, budget: int = 10**7) -> bool:
    """True iff the exact distance to the degree-d code is at least ``bound``."""
    delta, _ = exact_delta_d(f, d, budget=budget)
    return delta >= Fraction(bound)
