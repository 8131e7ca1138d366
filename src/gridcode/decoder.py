"""Local decoding over small characteristic via balanced-weight queries.

With k the smallest power of the characteristic p exceeding the degree d,
summing a degree-<=d polynomial G on the balanced points of {0,1}^{2k} whose
last k-d coordinates are zero kills every nonconstant monomial mod p (the
binomial C(d+k-i, k-i) vanishes mod p exactly for 1 <= i <= d, by Lucas'
theorem) and leaves C(d+k, k) * G(0).  That constant is 1 mod p: with
k = p^e > d the base-p digits of d and k never overlap, so Lucas' theorem
gives C(d+k, k) = C(1, 1) * prod_i C(d_i, 0) = 1 and the sum is G(0)
itself.  The decoder maps the target point to the origin of a random
2k-variable restriction, queries the balanced points, and returns that sum.

The oracle f is read only through ``f.values_at(masks)`` (see ``cube``), so a
``CubeFunction`` table and a ``poly.CorruptedPoly`` oracle decode alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cube import CubeFunction
from .errors import check_budget
from .field import FieldElement, PrimeField
from .poly import subsets_up_to
from .restrict import uniform_buckets

FULL_BALANCED = "full_B"
ZERO_TAIL_ONLY = "B_prime_only"

# Most queries one ``local_decode`` call may make, and most bit positions its
# plan may scan, 2k a query: every full plan within QUERY_BUDGET (k <= 11) fits.
QUERY_BUDGET = 10**6
PLAN_WORK_BUDGET = 32 * QUERY_BUDGET


@dataclass(frozen=True)
class DecoderParams:
    """Decoding parameters for characteristic p and degree d; k is derived."""

    field: PrimeField
    d: int

    @classmethod
    def for_degree(cls, p: int, d: int) -> "DecoderParams":
        """The parameters over F_p for degree d, with k derived from both."""
        return cls(PrimeField(p), d)

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("degree must be non-negative")

    @functools.cached_property
    def k(self) -> int:
        """The smallest power of p above d, the only one in (d, pd] when d >= 1."""
        k = 1
        while k <= self.d:
            k *= self.field.p
        return k

    @property
    def query_budget(self) -> int:
        """Queries per decoding call in the full balanced mode."""
        return math.comb(2 * self.k, self.k)

    @property
    def tolerance(self) -> Fraction:
        """Corruption rate up to which decoding succeeds with probability 3/4."""
        return Fraction(1, 4 * self.query_budget)


def balanced_set(k: int) -> list[int]:
    """All points of {0,1}^{2k} of Hamming weight exactly k, ascending masks."""
    if k < 1:
        raise ValueError("k must be positive")
    return subsets_up_to(2 * k, k, least=k)


def zero_tail_balanced_set(k: int, d: int) -> list[int]:
    """Balanced points whose last k-d coordinates are zero, ascending: the
    C(k+d, k) masks with their k ones among the first k+d coordinates."""
    if not 0 <= d < k:
        raise ValueError(f"need 0 <= d < k, got d={d}, k={k}")
    return subsets_up_to(k + d, k, least=k)


def decode_from_ball(values: dict, params: DecoderParams) -> int:
    """Recover G(0^{2k}) as the sum of G over the zero-tail balanced set, mod p.

    ``values`` must map exactly that set of masks to residues.
    """
    expected = zero_tail_balanced_set(params.k, params.d)
    if set(values.keys()) != set(expected):
        raise ValueError("values must cover exactly the zero-tail balanced set")
    return sum(values.values()) % params.field.p


@dataclass(frozen=True)
class QueryLog:
    """Which oracle points one decoding call touched: a (y mask over the 2k
    variables, oracle mask) pair per query, in the ascending order of y."""

    queries: tuple[tuple[int, int], ...]

    @property
    def query_count(self) -> int:
        return len(self.queries)


@functools.cache
def query_plan(k: int, d: int, mode: str):
    """The queried balanced points of one mode in ascending order, the set-bit
    positions of each, and the indices of the zero-tail points among them.

    Past ``QUERY_BUDGET`` points or ``PLAN_WORK_BUDGET`` bits it raises
    BudgetExceededError before any is built: a call queries C(k+j, j) points,
    j = k in the full mode and d in the reduced one, counted through
    C(k+1, 1), ..., C(k+j, j), and the plan scans 2k bits of each.
    """
    j_max = k if mode == FULL_BALANCED else d
    check_budget((math.comb(k + j, j) for j in range(1, j_max + 1)), QUERY_BUDGET,
                 f"{mode} decoding needs {{count}} queries per call")
    check_budget([2 * k * math.comb(k + j_max, j_max)], PLAN_WORK_BUDGET,
                 f"{mode} decoding scans {{count}} bit positions to plan its queries")
    points = balanced_set(k) if mode == FULL_BALANCED else zero_tail_balanced_set(k, d)
    # the zero-tail points are the balanced points below 2^(k+d)
    needed = tuple(i for i, y in enumerate(points) if y >> (k + d) == 0)
    bits = tuple(tuple(j for j in range(2 * k) if (y >> j) & 1) for y in points)
    return tuple(points), bits, needed


def local_decode(
    f: CubeFunction,
    x: int,
    params: DecoderParams,
    rng,
    mode: str = FULL_BALANCED,
) -> tuple[FieldElement, QueryLog]:
    """Decode the value at x of the codeword near f.

    Each variable is assigned a uniform output in [2k]; the query for a
    balanced point y reads f at z with z_j = y_{h(j)} xor x_j, a uniform
    point of the cube.  The full mode queries every balanced point
    (C(2k,k) queries, of which only the zero-tail ones enter the sum); the
    reduced mode queries only the zero-tail set (C(k+d,k) queries).  The
    returned residue is ``decode_from_ball`` of the zero-tail answers.
    """
    if f.field.p != params.field.p:
        raise ValueError("oracle modulus does not match decoder parameters")
    if not 0 <= x < (1 << f.n):
        raise ValueError("target point out of range")
    if mode not in (FULL_BALANCED, ZERO_TAIL_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    points, bits, needed = query_plan(params.k, params.d, mode)
    # z(y) is x xored with the variables assigned to the set bits of y.
    buckets = uniform_buckets(f.n, 2 * params.k, rng)
    masks = []
    for outs in bits:
        z = x
        for out in outs:
            z ^= buckets[out]
        masks.append(z)
    answers = f.values_at(masks)
    value = FieldElement(sum(answers[i] for i in needed) % params.field.p, params.field)
    return value, QueryLog(tuple(zip(points, masks)))
