"""Exact ground truth: the nearest codeword of the degree-d code.

Everything here is an exact oracle backing the Monte Carlo experiments.
The code F(k, d) has p^C(k,<=d) codewords, indexed by their coefficient
vectors in lexicographic order; distances are exact fractions and ties
break to the smallest index.  ``nearest_codeword`` reads f as a table over
all of {0,1}^k with a weight per point (zero off a sample) and takes one of
three exact paths, all with that result:

* d >= 1 over F_2: every codeword is h + a.x + c with h its part of degree
  at least 2, so each h gives a coset of first-order Reed-Muller; the
  Walsh-Hadamard transform of every coset at once, as one matrix product,
  O(2^#high 4^k) with #high = C(k,<=d) - k - 1 (O(k 2^k) at d = 1).
* d = 1 over odd p: a residue histogram that eliminates a group of
  coordinates per float64 matrix product (BLAS), or one per gather from
  p = 11 on, O(p^(k+1)); exact, since every count is an integer below 2^53.
* everything else: the block scan ``_min_disagreement``, which compares the
  input with every codeword at every point, O(p^C(k,<=d) 2^k), one block of
  codewords at a time and with nothing cached between calls.  It is also the
  reference the transforms are tested against.

The transforms read a plan built once per code and kept in a bounded
``functools.lru_cache``, so that a repeated call does only the work that
depends on its input.  Every cached array is read-only.

* ``_coset_plan(k, d)``, d >= 1 over F_2: the +-1 characters of every
  part h of degree at least 2, float64, 8 * 2^(#high + k) bytes (128 KiB at
  k = 4, d = 3; 256 KiB at k = 5, d = 2; 16 MiB at k = 6, d = 2, the
  largest ``CODEWORD_BUDGET`` admits; none at d = 1), and the index digits
  of h and of the linear part, 8 * (2^#high + 2^k) bytes.
* ``_histogram_plan(k, p)``, d = 1 over odd p: the point numbers and the
  residue shift table, 8 * (2^k + p^2) bytes.
* ``_group_matrix(p, g)``, d = 1 over p = 3, 5, 7: the 0/1 matrix that
  eliminates g coordinates, float64, 8 * p^(g+2) 2^g bytes, at most
  8 * ``_GROUP_ENTRIES`` = 256 KiB (91 KiB at p = 3, g = 4; 195 KiB at
  p = 5, g = 3); a k uses at most two g.

Budgets count p^C(k,<=d) codewords on every path and are hard errors, never
silent approximations; the budget check precedes every plan.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cube import CubeFunction
from .errors import check_budget
from .field import PrimeField, add_mod, binomial_sum, residue_dtype
from .poly import MultilinearPoly, _monomials

# Default number of codewords p^C(k,<=d) an oracle call may enumerate.
CODEWORD_BUDGET = 10**7

_BLOCK_ROWS = 1 << 13


def code_fits(p: int, dimension: int) -> bool:
    """Whether p^dimension codewords fit ``CODEWORD_BUDGET``; p >= 2, so a
    dimension past the budget's bit length cannot fit and its power is never
    built."""
    return dimension < CODEWORD_BUDGET.bit_length() and p ** dimension <= CODEWORD_BUDGET


def monomial_values(monomials, points, dtype: type) -> np.ndarray:
    """The value [A subset of y] of each monomial mask A (row) at each point
    mask y (column), 0 or 1 as ``dtype``."""
    mono = np.asarray(monomials, dtype=np.int64).reshape(-1, 1)
    return ((np.asarray(points, dtype=np.int64) & mono) == mono).astype(dtype)


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
        values = add_mod(values[:, None, :], step, p).reshape(-1, mono.shape[1])
    return values


class CodeEnumeration:
    """All degree-<=d multilinear polynomials on k variables over F_p.

    Codeword index c encodes the coefficient vector as base-p digits with the
    lowest monomial mask as the most significant digit, so increasing index
    order is lexicographic order on coefficient vectors.  ``subsets_up_to``
    fixes the monomial order.
    """

    def __init__(self, k: int, d: int, field: PrimeField):
        if not 0 <= d <= k:
            raise ValueError(f"need 0 <= d <= k, got d={d}, k={k}")
        self.k = k
        self.d = d
        self.field = field
        self.dimension = binomial_sum(k, d)
        p = field.p
        if not code_fits(p, self.dimension):
            check_budget((p ** j for j in range(1, self.dimension + 1)), CODEWORD_BUDGET,
                         "code has {count} codewords", name=f"{p}^{self.dimension}")
        self.monomials = _monomials(k, d)
        self.size = p ** self.dimension

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
        """Index of a polynomial of the code; ValueError for any other."""
        if poly.n != self.k:
            raise ValueError(f"polynomial has n={poly.n}, code has k={self.k}")
        if poly.field != self.field:
            raise ValueError(f"polynomial is over F_{poly.field.p}, code is over F_{self.field.p}")
        for m in poly.coeffs:
            if m.bit_count() > self.d:
                raise ValueError(f"monomial {m:#b} has degree {m.bit_count()} > d={self.d}")
        p = self.field.p
        index = 0
        for m in self.monomials:
            index = index * p + poly.coeffs.get(m, 0)
        return index

    def iter_value_blocks(self, points):
        """Yield (start_index, values) with values of shape (rows, len(points)).

        Scanning blocks in order visits coefficient vectors lexicographically
        while keeping memory bounded.  The code is linear, so the rows of
        one block are a fixed table over the ``low`` least significant digits
        plus the values of the block's high-digit prefix; blocks hold p^low
        rows with p^low <= ``_BLOCK_ROWS``.
        """
        p = self.field.p
        mono = monomial_values(self.monomials, points, residue_dtype(p))
        low = 0
        while low < self.dimension and p ** (low + 1) <= _BLOCK_ROWS:
            low += 1
        high = self.dimension - low
        suffix = _span_values(mono[high:], p)
        if high == 0:
            yield 0, suffix
            return
        for h, prefix in enumerate(_span_values(mono[:high], p)):
            yield h * len(suffix), add_mod(suffix, prefix, p)


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only, for plans shared by every later call."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=32)
def _histogram_plan(k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, shift) for ``_histogram_nearest``: the point numbers 0..2^k-1
    and shift[a, s] = s + a mod p, both read-only; 8 (2^k + p^2) bytes."""
    shift = (np.arange(p)[:, None] + np.arange(p)[None, :]) % p
    return _read_only(np.arange(1 << k)), _read_only(shift)


# Most entries of one elimination matrix of ``_histogram_nearest`` (256 KiB).
_GROUP_ENTRIES = 1 << 15


@functools.cache
def _group_size(p: int) -> int:
    """Coordinates ``_histogram_nearest`` eliminates per product over F_p:
    the largest g whose matrix, p 2^g by p^(g+1), has at most
    ``_GROUP_ENTRIES`` entries, or 0 (no products) when that g is below 2;
    4 at p = 3, 3 at p = 5, 2 at p = 7 and 0 from p = 11 on."""
    g = 0
    while p ** (g + 3) << (g + 1) <= _GROUP_ENTRIES:
        g += 1
    return g if g >= 2 else 0


@functools.lru_cache(maxsize=32)
def _group_matrix(p: int, g: int) -> np.ndarray:
    """M[(s, x), (a, t)] = 1 if s = t + a.x mod p else 0, float64, read-only.

    x runs over g coordinates with the first one as bit 0, and a over their
    coefficients with the first one's digit most significant, so the rows
    are (s, x) and the columns (a, t) in index order.
    """
    x = np.arange(1 << g)[:, None]
    a = np.arange(p ** g)[None, :]
    dot = sum(((x >> j) & 1) * (a // p ** (g - 1 - j) % p) for j in range(g))
    s = (dot[:, :, None] + np.arange(p)) % p
    return _read_only((s == np.arange(p)[:, None, None, None]).astype(np.float64).reshape(p << g, -1))


def _histogram_nearest(code: CodeEnumeration, table: np.ndarray,
                       weights: np.ndarray | None) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) for d = 1, any p.

    ``table`` and ``weights`` cover all of {0,1}^k (every weight 1 when
    ``weights`` is None).  The histogram starts as
    hist[x, s] = w(x) [f(x) = s]; eliminating coordinate i replaces x_i by
    the coefficient a_i through
    hist'[a_i, ..., t] = hist[x_i = 0, ..., t] + hist[x_i = 1, ..., t + a_i mod p],
    so at the end hist[a, c] is the weight of {x : f(x) - a.x = c}, the
    agreement of f with the codeword c + a.x.  Coefficients come out with
    a_1 most significant, so that codeword's index is c p^k + a.  The
    maximum is found on hist as laid out, with no copy, and only when
    several entries reach it are they mapped to their indices; the smallest
    wins, the tie-break of ``_min_disagreement``.  O(p^(k+1)) work.

    Each step eliminates the lowest g coordinates left with one float64
    product against the cached ``_group_matrix(p, g)``, which BLAS runs;
    the new digits join the eliminated ones in front and the next group's
    points move next to the residues, one copy per step.  The first step
    takes the k mod ``_group_size(p)`` coordinates left over, every other
    step ``_group_size(p)``: the histogram grows by p^g / 2^g per step, so
    with the remainder first the arrays before the last step stay small
    (at p = 3, k = 9 the order 1, 4, 4 ran 1.56x faster than 4, 4, 1 on a
    2-vCPU Xeon VM).  The counts are exact: every entry is an integer sum
    of weights, at most the total weight, far below 2^53.  The matrix has
    density 1/p, so a product adds p times the terms a gather does and pays
    only by replacing several gathers: from p = 11 on, where at most one
    coordinate fits ``_GROUP_ENTRIES``, each step eliminates one coordinate
    with the int64 ``shift`` table instead (on the same VM one coordinate
    per product ran at 0.84-0.92x the gathers' speed at p = 23, k = 1 and
    0.64-0.86x at p = 31, k <= 3; a 2^16-entry matrix of two coordinates at
    p = 11 ran at 0.92-0.95x at k = 2).
    """
    p, k = code.field.p, code.k
    points, shift = _histogram_plan(k, p)
    top = _group_size(p)
    if top:
        hist = np.zeros((1 << k, p))
        hist[points, table] = 1 if weights is None else weights
        # hist[front, x, pending, s]: front the digits moved in front, x the
        # points left, pending the digits of the last group
        hist = hist.reshape(1, 1 << k, 1, p)
        for g in [k % top] * (k % top > 0) + [top] * (k // top):
            front, pending = hist.shape[0], hist.shape[2]
            parts = hist.reshape(front, -1, 1 << g, pending, p).transpose(0, 3, 1, 4, 2)
            hist = parts.reshape(-1, p << g) @ _group_matrix(p, g)
            hist = hist.reshape(front * pending, -1, p ** g, p)
    else:
        hist = np.zeros((p, 1 << k), dtype=np.int64)
        hist[table, points] = 1 if weights is None else weights
        for i in range(k):
            halves = hist.reshape(p ** i, p, -1, 2)
            hist = np.take(halves[..., 1], shift, axis=1)
            hist += halves[:, None, :, :, 0]
            hist = hist.reshape(p ** (i + 1), p, -1)
    agree = hist.reshape(-1)
    j = int(agree.argmax())
    tied = agree == agree[j]
    if np.count_nonzero(tied) > 1:
        # the tied entries in (a, c) order: the first with the smallest c
        # has the smallest index
        tied = np.flatnonzero(tied)
        j = int(tied[(tied % p).argmin()])
    total = 1 << k if weights is None else int(weights.sum())
    return j % p * p ** k + j // p, total - int(agree[j])


# Sylvester's Hadamard matrix H[a, x] = (-1)^|a & x| on 6 bits; its leading
# 2^c x 2^c block is the matrix on c bits.
_HADAMARD_BITS = 6
_HADAMARD = _read_only(np.array([[-1.0 if (a & x).bit_count() & 1 else 1.0 for x in range(64)]
                                 for a in range(64)]))


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


def _subset_sums(values) -> np.ndarray:
    """Sum of each subset of ``values``, at the row number whose bits select
    it, the first value as the most significant bit."""
    sums = np.zeros(1, dtype=np.int64)
    for value in values:
        sums = (sums[:, None] + np.array([0, value])).ravel()
    return sums


class _CosetPlan(NamedTuple):
    """What ``_coset_nearest`` needs of the code F(k, d), read-only."""

    signs: np.ndarray | None  # (-1)^h(x) per part h of degree >= 2 (row) and x; None at d = 1
    high_index: np.ndarray  # index digits of each row's part h
    linear_index: np.ndarray  # index digits of a.x, at a
    constant_index: int  # index digit of the constant 1


@functools.lru_cache(maxsize=16)
def _coset_plan(k: int, d: int) -> _CosetPlan:
    """The coset characters and index digits of F(k, d) over F_2, d >= 1.

    ``signs`` is float64 so that the per-call product runs in BLAS straight
    from the cache.  Stored as int8 it would take an eighth of the memory,
    but every call would convert it first: at k = 5 that is a second
    256 KiB temporary, and with both a call took ~0.23 ms against ~0.08 ms
    on a 2-vCPU Xeon VM, most of it in page faults.
    """
    monomials = _monomials(k, d)
    digit = {m: 1 << (len(monomials) - 1 - j) for j, m in enumerate(monomials)}
    high = [m for m in monomials if m.bit_count() >= 2]
    signs = None
    if high:
        parts = _span_values(monomial_values(high, np.arange(1 << k), np.uint8), 2)
        signs = _read_only(1.0 - 2.0 * parts)
    return _CosetPlan(
        signs,
        # rows follow _span_values: the first monomial of h is the top bit
        _read_only(_subset_sums(digit[m] for m in high)),
        # bit i of a is the coefficient of x_i
        _read_only(_subset_sums(digit[1 << i] for i in reversed(range(k)))),
        digit[0],
    )


def _coset_nearest(code: CodeEnumeration, table: np.ndarray,
                   weights: np.ndarray | None) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) for d >= 1 over F_2.

    Every codeword is h + a.x + c with h one of the 2^#high parts of degree
    at least 2 (only h = 0 for d = 1), so each h gives a coset of
    first-order Reed-Muller.  With S_h the Walsh-Hadamard transform of
    w (-1)^(f+h), the codeword h + a.x + c disagrees with f on weight
    (W - (-1)^c S_h[a]) / 2, W the total weight (every weight 1 when
    ``weights`` is None).  The transform is linear, so every S_h comes from
    one product of the cached characters (-1)^h with the transform of
    diag(w (-1)^f).  The best count comes from the extreme S_h[a], and
    c = 0 wins when both signs reach it, since c is the most significant
    digit.  Only the tied (h, a) are mapped to indices, through the cached
    digit tables, and the smallest wins, which is the tie-break of
    ``_min_disagreement``.  O(2^#high 4^k) work.
    """
    k = code.k
    plan = _coset_plan(k, code.d)
    signed = 1.0 - 2.0 * table
    if weights is not None:
        signed *= weights
    if plan.signs is None:
        spectrum = _walsh_hadamard(signed, k).ravel()
    else:
        spectrum = (plan.signs @ _walsh_hadamard(np.diag(signed), k)).ravel()
    high, low = spectrum.max(), spectrum.min()
    plus = high >= -low
    top = high if plus else low
    tied = np.flatnonzero(spectrum == top)
    index = plan.high_index[tied >> k] + plan.linear_index[tied & ((1 << k) - 1)]
    total = 1 << k if weights is None else int(weights.sum())
    return int(index.min()) + (0 if plus else plan.constant_index), (total - abs(int(top))) // 2


def nearest_codeword(code: CodeEnumeration, table: np.ndarray,
                     weights: np.ndarray | None = None) -> tuple[int, int]:
    """(best codeword index, weighted disagreement count) over the code.

    ``table`` holds f on {0,1}^k in mask order and ``weights`` the
    multiplicity of each point, zero off a sample (every point once when
    None).  The result, tie-break included, is that of the block scan
    ``_min_disagreement``.  Every d >= 1 over F_2 uses cosets of first-order
    Reed-Muller, d = 1 over odd p residue histograms, everything else the
    block scan.  ``code`` is built first, so its budget check precedes every
    path and every plan.  No path writes into ``table`` or ``weights``.
    """
    p, d = code.field.p, code.d
    if p == 2 and d >= 1:
        return _coset_nearest(code, table, weights)
    if d == 1:
        return _histogram_nearest(code, table, weights)
    return _min_disagreement(code, range(1 << code.k), table, weights)


def _nearest(f: CubeFunction, d: int) -> tuple[CodeEnumeration, int, int]:
    """(code, best codeword index, disagreement count) of f in the degree-d
    code; the code's budget check comes first."""
    code = CodeEnumeration(f.n, d, f.field)
    dtype = residue_dtype(f.field.p)
    if dtype is np.uint8:
        # bytearray() packs 2^10 residues in ~3.7 us, bytes() in ~14 us and
        # asarray in ~28 us; the array is writable, but no path writes into it
        table = np.frombuffer(bytearray(f.values), dtype)
    else:
        table = np.asarray(f.values, dtype)
    best, count = nearest_codeword(code, table)
    return code, best, count


def exact_delta_d(f: CubeFunction, d: int):
    """Exact distance from f to the degree-d code, with the nearest codeword.

    Ties break to the lexicographically smallest coefficient vector.  Raises
    BudgetExceededError when p^C(n,<=d) exceeds ``CODEWORD_BUDGET``.
    """
    code, best, count = _nearest(f, d)
    return Fraction(count, 1 << f.n), code.poly_at(best)


def certify_far(f: CubeFunction, d: int, bound) -> bool:
    """True iff the exact distance to the degree-d code is at least ``bound``;
    the code's budget is ``CODEWORD_BUDGET``."""
    _, _, count = _nearest(f, d)
    return Fraction(count, 1 << f.n) >= Fraction(bound)
