"""Impossibility machinery for decoding over large or zero characteristic.

Vectors of {-1,1}^n are stored as bitmasks with bit j set exactly when
coordinate j+1 is -1, so the mask of a point of {0,1}^n in ``cube`` maps to
its image under a -> 1-2a.  The core question: is the all-ones vector a linear
combination of at most t nearly balanced vectors?  Over Q a successful
combination carries a Cramer certificate (integers a_i, b with |a_i|, |b|
bounded by t!), and the hard erased-linear-function distribution turns the
negative answer into a concrete adversarial oracle for decoders.  Whether a
subset spans depends only on its set of coordinate patterns; solvability by
pattern set, and the scan's table of it, are cached for the process with
``functools.cache``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import check_budget
from .field import PrimeField, row_reduce

ALL_PLUS_ONES = 0  # mask of the +1^n vector

# Most subsets C(len(candidates), <=t) a span scan may check.
SPAN_BUDGET = 10**6


def coordinate_sum(mask: int, n: int) -> int:
    """Sum over Z of the +-1 coordinates encoded by the mask."""
    return n - 2 * mask.bit_count()


def span_exponent(s: float) -> int:
    """floor(ln s / ln ln s), the query-count scale tied to (t+1)! >= s."""
    if s <= math.e:
        return 1
    return int(math.log(s) / math.log(math.log(s)))


def sample_balanced_vectors(n: int, s: int, count: int, rng) -> list[int]:
    """Uniform vectors of {-1,1}^n with |coordinate sum| <= n/s, by rejection."""
    if s < 1 or n < 1:
        raise ValueError("need positive n and s")
    bound = n / s
    balanced = [abs(n - 2 * minus) <= bound for minus in range(n + 1)]
    if not any(balanced):
        raise ValueError(f"no vector of {{-1,1}}^{n} has |coordinate sum| <= {n}/{s}")
    out = []
    while len(out) < count:
        mask = rng.getrandbits(n)
        if balanced[mask.bit_count()]:
            out.append(mask)
    return out


def _int_det(matrix: list[list[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for col in range(size - 1):
        pivot_row = next((r for r in range(col, size) if m[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[-1][-1]


def _solve_pattern_system(rows: list[tuple[int, ...]], field: PrimeField | None):
    """Solve <c, row> = 1 for all rows, with 0 on the free columns: (True,
    coefficients, certificate), or (False, None, None) if unsolvable.  The
    certificate is None except over Q (field None) at full rank, where it is
    (numerators, denominator) by Cramer's rule.
    """
    u = len(rows[0])
    system = [list(row) + [1] for row in rows]
    reduced, pivots = row_reduce(system, u, field)
    if any(row[-1] for row in reduced[len(pivots):]):
        return False, None, None
    solution = [Fraction(0) if field is None else 0] * u
    for row, col in zip(reduced, pivots):
        solution[col] = row[-1]
    if field is not None or len(pivots) < u:
        return True, tuple(solution), None
    # the square system of the first u independent rows: the transpose's pivots
    _, independent = row_reduce(list(zip(*system))[:u], len(system))
    det = _int_det([system[i][:u] for i in independent])
    return True, tuple(solution), (tuple(int(det * c) for c in solution), det)


@dataclass(frozen=True)
class SpanResult:
    found: bool
    subset: tuple[int, ...] | None = None
    coefficients: tuple | None = None
    certificate: tuple | None = None  # ((a_1,...,a_u), b) over Q


def _rows_from_key(key: int, u: int) -> list[tuple[int, ...]]:
    """Decode a pattern-set bitmask back into +-1 rows (bit b of a pattern
    index set means element b of the subset has a -1 coordinate there)."""
    return [
        tuple(-1 if (pattern >> b) & 1 else 1 for b in range(u))
        for pattern in range(1 << u)
        if (key >> pattern) & 1
    ]


def _pattern_key(subset: tuple[int, ...], n: int) -> int:
    """Bitmask over 2^u pattern indices marking which patterns occur."""
    u = len(subset)
    full = (1 << n) - 1
    key = 0
    for pattern in range(1 << u):
        m = full
        for b, v in enumerate(subset):
            m &= v if (pattern >> b) & 1 else ~v & full
            if not m:
                break
        if m:
            key |= 1 << pattern
    return key


# Triples per block of the numpy span scan; bounds its mask buffer.
_SCAN_BLOCK = 1 << 16
# Pairs per block of the scan over pairs.  Its temporaries (the patterns of a
# block take 32 bytes per pair, 64 KB) stay below glibc's initial 128 KB mmap
# threshold, so they come from the heap and a trial faults in no fresh pages
# whatever the process freed before.
_PAIR_BLOCK = 1 << 11


@functools.cache
def _solvable(field: PrimeField | None, u: int, key: int) -> bool:
    """Whether the pattern system of size u and pattern set ``key`` is
    solvable; memoised for the process, at most 3 + 15 + 255 nonzero keys
    with u <= 3 per field."""
    return _solve_pattern_system(_rows_from_key(key, u), field)[0]


@functools.cache
def _solvable_table(field: PrimeField | None, u: int) -> np.ndarray:
    """Solvability of all 2^(2^u) keys, read-only and built once per process;
    key 0 (no pattern) reads False."""
    table = np.zeros(1 << (1 << u), dtype=bool)
    for key in range(1, len(table)):
        table[key] = _solvable(field, u, key)
    table.flags.writeable = False
    return table


def _scan_combinations(candidates, size, n, field):
    """First spanning subset in combination order, one subset at a time (the
    reference for the numpy scan, and the path for n > 64)."""
    for subset in itertools.combinations(candidates, size):
        if _solvable(field, size, _pattern_key(subset, n)):
            return subset
    return None


def _scan_blocks(candidates, size, n, field):
    """First spanning subset in combination order, by numpy (n <= 64, size <= 3).

    Pattern (b_1, ..., b_u) occurs in a subset iff some coordinate reads -1
    exactly in the members with b = 1: the AND of those members' masks and
    the other members' complements is nonzero.  Pairs come in combination
    order from ``_pair_indices``.  A triple is a first member plus a later
    pair, and the pairs after a first member are a suffix of the pair order,
    so the pair intersections are computed once and each first member ANDs a
    slice of them.  Keys are looked up in ``_solvable_table``, one block of
    at most ``_PAIR_BLOCK`` pairs or ``_SCAN_BLOCK`` triples at a time.
    """
    masks = np.asarray(candidates, dtype=np.uint64)
    full = np.uint64((1 << n) - 1)
    minus = masks & full
    table = _solvable_table(field, size)
    if size == 1:
        found = _first_hit(table, np.stack([minus != full, minus != 0]))
        return None if found is None else (candidates[found],)
    second, third = _pair_indices(len(masks))
    if size == 2:
        for lo in range(0, len(second), _PAIR_BLOCK):
            block = slice(lo, lo + _PAIR_BLOCK)
            pairs = _pair_patterns(minus[second[block]], minus[third[block]], full)
            found = _first_hit(table, pairs != 0)
            if found is not None:
                return candidates[second[lo + found]], candidates[third[lo + found]]
        return None
    pairs = _pair_patterns(minus[second], minus[third], full)
    flags = np.empty((8, min(_SCAN_BLOCK, math.comb(len(masks), 3))), dtype=bool)
    for block in _triple_blocks(len(masks)):
        filled = 0
        for first, lo, hi in block:
            # pattern b + 2q with q the pair's pattern: b = 1 where the first
            # member's -1 coordinates meet the pair's, b = 0 where they miss
            tail = pairs[:, lo:hi]
            meet = tail & minus[first]
            np.not_equal(meet, 0, out=flags[1::2, filled:filled + hi - lo])
            np.not_equal(meet, tail, out=flags[0::2, filled:filled + hi - lo])
            filled += hi - lo
        found = _first_hit(table, flags[:, :filled])
        if found is not None:
            for first, lo, hi in block:
                if found < hi - lo:
                    members = (first, second[lo + found], third[lo + found])
                    return tuple(candidates[i] for i in members)
                found -= hi - lo
    return None


@functools.lru_cache(maxsize=4)
def _pair_indices(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The two members of every pair of ``count`` candidates in combination
    order (``np.triu_indices``), read-only and cached per count."""
    pair = np.triu_indices(count, k=1)
    for members in pair:
        members.flags.writeable = False
    return pair


def _pair_patterns(a: np.ndarray, b: np.ndarray, full) -> np.ndarray:
    """Coordinates of each pattern of the pairs (a_i, b_i), given as -1 masks:
    row 0 reads (+,+), row 1 (-,+), row 2 (+,-) and row 3 (-,-)."""
    out = np.empty((4, len(a)), dtype=np.uint64)
    np.bitwise_and(a, b, out=out[3])
    np.bitwise_xor(a, out[3], out=out[1])
    np.bitwise_xor(b, out[3], out=out[2])
    np.bitwise_or(a, b, out=out[0])
    np.bitwise_xor(out[0], full, out=out[0])
    return out


# Bit r of a key, for row r of at most 8 flag rows.
_KEY_SHIFTS = np.arange(8, dtype=np.uint8).reshape(-1, 1)


def _first_hit(table: np.ndarray, flags: np.ndarray) -> int | None:
    """Column of the first solvable key, where row r of ``flags`` is bit r."""
    keys = np.bitwise_or.reduce(flags.view(np.uint8) << _KEY_SHIFTS[:len(flags)], axis=0)
    hits = table[keys]
    return int(hits.argmax()) if hits.any() else None


def _triple_blocks(count: int):
    """Cut the triples of ``count`` candidates, in combination order, into
    blocks of at most ``_SCAN_BLOCK``.

    Each block is a list of pieces (first, lo, hi): first member ``first``
    with the pairs lo..hi-1 of the pair order; the pairs after ``first`` are
    the last C(count - 1 - first, 2) of them.
    """
    pair_count = math.comb(count, 2)
    block, filled = [], 0
    for first in range(count - 2):
        lo = pair_count - math.comb(count - 1 - first, 2)
        while lo < pair_count:
            hi = min(pair_count, lo + _SCAN_BLOCK - filled)
            block.append((first, lo, hi))
            filled += hi - lo
            lo = hi
            if filled == _SCAN_BLOCK:
                yield block
                block, filled = [], 0
    if block:
        yield block


def _find_spanning_subset(candidates, size, n, field):
    """First subset of the given size (in combination order) spanning the
    target, or None.  Sizes up to 3 at n <= 64 use the numpy scan."""
    if size <= 3 and n <= 64:
        return _scan_blocks(candidates, size, n, field)
    return _scan_combinations(candidates, size, n, field)


def t_span_contains(
    target: int,
    candidates,
    t: int,
    n: int,
    field: PrimeField | None = None,
    budget: int = SPAN_BUDGET,
) -> SpanResult:
    """Is the target a linear combination of at most t of the candidates?

    Exact over Q (field None) or over F_p.  Subsets are scanned in increasing
    size; the number of subsets C(len(candidates), <=t) must not exceed the
    budget.  A subset spans the all-ones vector iff its set of distinct
    coordinate patterns admits a solution of <c, pattern> = 1, which makes
    the check cacheable by pattern set; over Q a positive answer includes an
    integer Cramer certificate (a_i, b) with coefficients a_i/b and
    |a_i|, |b| <= t!.
    """
    candidates = list(candidates)
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if t > len(candidates):
        raise ValueError("t cannot exceed the candidate count")
    check_budget(itertools.accumulate(math.comb(len(candidates), u) for u in range(1, t + 1)),
                 budget, "span scan needs {count} subsets")
    if target != ALL_PLUS_ONES:
        raise ValueError("only the all-plus-ones target is supported")

    for size in range(1, t + 1):
        subset = _find_spanning_subset(candidates, size, n, field)
        if subset is None:
            continue
        rows = sorted(_rows_from_key(_pattern_key(subset, n), size))
        ok, coefficients, certificate = _solve_pattern_system(rows, field)
        assert ok
        if field is None and certificate is not None:
            numerators, det = certificate
            bound = math.factorial(size)
            if abs(det) > bound or any(abs(a) > bound for a in numerators):
                raise AssertionError("Cramer certificate exceeds the factorial bound")
        return SpanResult(True, subset, coefficients, certificate)
    return SpanResult(False)


@dataclass(frozen=True)
class HardFunction:
    """A random linear function erased on imbalanced inputs.

    Off the erased set E = {x : |sum x_i| >= 2n/s} the value is
    l(x) = sum a_i x_i; on E it is 0.  Coefficients are uniform residues over
    F_p, or uniform integers in [-N, N] with N = n^ceil(ln s/ln ln s) over
    characteristic 0.  Decoding is proved hard over characteristic 0 or at
    least n^2.
    """

    n: int
    s: int
    field: PrimeField | None
    coefficients: tuple[int, ...]

    def linear_value(self, mask: int):
        """l at the point encoded by the mask (before erasure), mod p over F_p."""
        total = 0
        for j, a in enumerate(self.coefficients):
            total += -a if (mask >> j) & 1 else a
        return total if self.field is None else total % self.field.p

    def value(self, mask: int):
        """0 on the erased set, else l: residues over F_p, integers over Q."""
        if abs(coordinate_sum(mask, self.n)) >= 2 * self.n / self.s:
            return 0
        return self.linear_value(mask)

    @property
    def erased_count(self) -> int:
        """|E|: the points whose weight w has |n - 2w| >= 2n/s."""
        n = self.n
        return sum(math.comb(n, w) for w in range(n + 1) if abs(n - 2 * w) >= 2 * n / self.s)

    def erased_fraction(self) -> Fraction:
        return Fraction(self.erased_count, 1 << self.n)

    def distance_to_linear(self) -> Fraction:
        diff = sum(self.value(m) != self.linear_value(m) for m in range(1 << self.n))
        return Fraction(diff, 1 << self.n)


def erased_fraction_bound(n: int, s: int) -> float:
    """The tail bound 2 exp(-n / (2 s^2)) on the erased fraction."""
    return 2.0 * math.exp(-n / (2.0 * s * s))


def sample_hard_function(n: int, s: int, field: PrimeField | None, rng) -> HardFunction:
    """Draw coefficients; ``value`` erases every imbalanced input to 0."""
    if field is not None:
        coefficients = tuple(rng.randrange(field.p) for _ in range(n))
    else:
        if s > math.e:
            exponent = max(1, math.ceil(math.log(s) / math.log(math.log(s))))
        else:
            exponent = 1
        width = n ** exponent
        coefficients = tuple(rng.randint(-width, width) for _ in range(n))
    return HardFunction(n, s, field, coefficients)


@dataclass(frozen=True)
class StressReport:
    trials: int
    successes: int
    total_queries: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def queries_per_trial(self) -> float:
        return self.total_queries / self.trials


def decoder_stress(
    strategy, n: int, s: int, field: PrimeField | None, trials: int, rng
) -> StressReport:
    """Run a decoding strategy against fresh hard functions.

    ``strategy(oracle, n, rng) -> value`` receives a counting oracle over
    masks of {-1,1}^n and must output its guess for the linear value at the
    all-plus-ones point (mask 0).  Success means guessing l(1^n) exactly,
    erasure notwithstanding.
    """
    successes = 0
    total_queries = 0
    for _ in range(trials):
        hard = sample_hard_function(n, s, field, rng)
        counter = [0]

        def oracle(mask: int, _h=hard, _c=counter) -> int:
            _c[0] += 1
            return _h.value(mask)

        guess = strategy(oracle, n, rng)
        truth = hard.linear_value(ALL_PLUS_ONES)
        if guess == truth:
            successes += 1
        total_queries += counter[0]
    return StressReport(trials, successes, total_queries)
