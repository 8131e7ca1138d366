"""Exact ground truth: the nearest codeword of the degree-d code.

Everything here is an exact oracle backing the Monte Carlo experiments.
The code F(k, d) has p^C(k,<=d) codewords, indexed by their coefficient
vectors in lexicographic order; distances are exact fractions and ties
break to the smallest index.  ``nearest_codeword`` takes one of three
exact paths, all with that result:

* d = 1: over F_2 the Walsh-Hadamard transform of w (-1)^f, O(k 2^k); over
  odd p a residue histogram built one coordinate at a time, O(p^(k+1)).
* d = 2 over F_2: one Walsh-Hadamard transform per quadratic part, that is
  per coset of first-order Reed-Muller, O(2^C(k,2) k 2^k).
* everything else: the block scan ``_min_disagreement``, which compares the
  input with every codeword at every point, O(p^C(k,<=d) 2^k), one block of
  codewords at a time and with nothing cached between calls.  It is also the
  reference the transforms are tested against.

Budgets count p^C(k,<=d) codewords on every path and are hard errors, never
silent approximations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cube import CubeFunction
from .errors import BudgetExceededError
from .field import PrimeField, binomial_sum
from .poly import MultilinearPoly, subsets_up_to

# Default number of codewords p^C(k,<=d) an oracle call may enumerate.
CODEWORD_BUDGET = 10**7

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

    def __init__(self, k: int, d: int, field: PrimeField, budget: int = CODEWORD_BUDGET):
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
    best_index = 0
    best_count = None
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


def _histogram_nearest(code: CodeEnumeration, table: np.ndarray,
                       weights: np.ndarray) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) for d = 1, any p.

    ``table`` and ``weights`` cover all of {0,1}^k.  The histogram starts as
    hist[s, x] = w(x) [f(x) = s]; eliminating coordinate i replaces x_i by
    the coefficient a_i through
    hist'[s, a_i, ...] = hist[s, x_i = 0, ...] + hist[s + a_i mod p, x_i = 1, ...],
    so at the end hist[c, a] is the weight of {x : f(x) - a.x = c}, the
    agreement of f with the codeword c + a.x.  Coefficients come out with
    a_1 most significant and c is moved in front, which is index order, so
    the first maximum keeps the tie-break of ``_min_disagreement``.  Integer
    counts, O(p^(k+1)) work.
    """
    p, k = code.field.p, code.k
    hist = np.zeros((1, p, 1 << k), dtype=np.int64)
    hist[0, table, np.arange(1 << k)] = weights
    shift = (np.arange(p)[:, None] + np.arange(p)[None, :]) % p  # shift[a, s] = s + a
    for _ in range(k):
        halves = hist.reshape(len(hist), p, -1, 2)
        x0, x1 = halves[..., 0], halves[..., 1]
        hist = (x0[:, None] + x1[:, shift]).reshape(-1, p, x0.shape[2])
    agree = hist.reshape(-1, p).T.ravel()
    best = int(np.argmax(agree))
    return best, int(weights.sum()) - int(agree[best])


# Sylvester's Hadamard matrix H[a, x] = (-1)^|a & x| on 6 bits; its leading
# 2^c x 2^c block is the matrix on c bits.
_HADAMARD_BITS = 6
_HADAMARD = np.array([[-1.0 if (a & x).bit_count() & 1 else 1.0 for x in range(64)]
                      for a in range(64)])


def _walsh_hadamard(rows: np.ndarray, k: int) -> np.ndarray:
    """Walsh-Hadamard transform of each row of a (rows, 2^k) float64 array.

    H_(2^k) is the Kronecker product of Hadamard matrices on groups of at
    most 6 bits, so each group is one matrix product (BLAS) over the
    reshaped rows, the lowest group first.  That does more arithmetic than
    butterfly passes but is faster: on a 2-vCPU Xeon VM, 1,024 rows at
    k = 5 took ~0.06 ms against ~1 ms for in-place int64 butterflies.  Exact
    while every sum of absolute values stays below 2^53, as it does for
    integer weights.
    """
    done = min(k, _HADAMARD_BITS)
    rows = rows.reshape(-1, 1 << done) @ _HADAMARD[:1 << done, :1 << done]
    while done < k:
        bits = min(_HADAMARD_BITS, k - done)
        rows = _HADAMARD[:1 << bits, :1 << bits] @ rows.reshape(-1, 1 << bits, 1 << done)
        done += bits
    return rows.reshape(-1, 1 << k)


def _coset_nearest(code: CodeEnumeration, table: np.ndarray,
                   weights: np.ndarray) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) for d <= 2 over F_2.

    Every codeword is q + a.x + c with q one of the 2^C(k,2) quadratic parts
    (none for d = 1), so each q gives a coset of first-order Reed-Muller.
    With S_q the Walsh-Hadamard transform of w (-1)^(f+q), the codeword
    q + a.x + c disagrees with f on weight (W - (-1)^c S_q[a]) / 2, W the
    total weight.  The best count comes from the extreme S_q[a], and c = 0
    wins when both signs reach it, since c is the most significant digit.
    Only the tied (q, a) are mapped to indices, digit by digit, and the
    smallest wins, which is the tie-break of ``_min_disagreement``.
    O(2^C(k,2) k 2^k) work.
    """
    k = code.k
    x = np.arange(1 << k)
    quadratic = [m for m in code.monomials if m.bit_count() == 2]
    masks = np.asarray(quadratic, dtype=np.int64).reshape(-1, 1)
    parts = _span_values(((x & masks) == masks).astype(np.uint8), 2)
    signed = weights * (1.0 - 2.0 * table)
    spectrum = _walsh_hadamard((1.0 - 2.0 * parts) * signed, k).ravel()
    high, low = int(spectrum.max()), int(spectrum.min())
    plus = high >= -low
    top = high if plus else low
    digit = {m: 1 << (code.dimension - 1 - j) for j, m in enumerate(code.monomials)}
    linear = np.asarray([digit[1 << i] for i in range(k)], dtype=np.int64)
    # bit t of a row number is the t-th quadratic digit from the last
    quad = np.asarray([digit[m] for m in reversed(quadratic)], dtype=np.int64)
    tied = np.flatnonzero(spectrum == top)
    r, a = tied >> k, tied & ((1 << k) - 1)
    index = (((a[:, None] >> np.arange(k)) & 1) @ linear
             + ((r[:, None] >> np.arange(len(quad))) & 1) @ quad)
    return int(index.min()) + (0 if plus else digit[0]), (int(weights.sum()) - abs(top)) // 2


def nearest_codeword(code: CodeEnumeration, table: np.ndarray,
                     weights: np.ndarray | None = None, points=None) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) over the code.

    ``table`` holds f on {0,1}^k in mask order, or at the distinct
    ``points`` when given; ``weights`` are its multiplicities there (every
    point once when None).  The result, tie-break included, is that of the
    block scan ``_min_disagreement``.  d = 1 and d = 2 over F_2 use cosets
    of first-order Reed-Muller, d = 1 over odd p residue histograms; both
    spread the points over the whole cube with weight zero elsewhere.
    Everything else is the block scan.  ``code`` is built first, so its
    budget check precedes every path.
    """
    p, k = code.field.p, code.k
    if not (code.d == 1 or (code.d == 2 and p == 2)):
        if points is None:
            points = range(1 << k)
        return _min_disagreement(code, points, table, weights)
    if weights is None:
        weights = np.ones(len(table), dtype=np.int64)
    if points is not None:
        full_table = np.zeros(1 << k, dtype=table.dtype)
        full_weights = np.zeros(1 << k, dtype=np.int64)
        full_table[points] = table
        full_weights[points] = weights
        table, weights = full_table, full_weights
    transform = _coset_nearest if p == 2 else _histogram_nearest
    return transform(code, table, weights)


def exact_delta_d(f: CubeFunction, d: int, budget: int = CODEWORD_BUDGET):
    """Exact distance from f to the degree-d code, with the nearest codeword.

    Ties break to the lexicographically smallest coefficient vector.  Raises
    BudgetExceededError when p^C(n,<=d) exceeds the budget.
    """
    code = CodeEnumeration(f.n, d, f.field, budget=budget)
    dtype = np.uint8 if f.field.p < 256 else np.int64
    table = np.asarray(f.values, dtype=dtype)
    best, count = nearest_codeword(code, table)
    return Fraction(count, 1 << f.n), code.poly_at(best)


def certify_far(f: CubeFunction, d: int, bound, budget: int = CODEWORD_BUDGET) -> bool:
    """True iff the exact distance to the degree-d code is at least ``bound``."""
    delta, _ = exact_delta_d(f, d, budget=budget)
    return delta >= Fraction(bound)
