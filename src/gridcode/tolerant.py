"""Tolerant testing: estimate the distance to the code and threshold it.

Step 1 runs the amplified intolerant test to screen out functions far beyond
the tolerant regime.  Step 2 restricts through an i.i.d. uniform variable map
(not the bucket process; buckets may be empty here) and samples a query set S
from the small cube.  Step 3 reads f once at the query point of each
distinct point of S, in ascending order, writes those values into a table
over the whole small cube, and finds the exactly closest degree-d
polynomial on S (``oracle.nearest_codeword``, each point weighted by its
multiplicity in S, zero off S).  It accepts iff the distance mu on S is
below (delta_1 + delta_2) / 2.

The input f is read only through ``f.values_at(masks)`` (see ``cube``), so a
``CubeFunction`` table and a ``poly.CorruptedPoly`` oracle give the same
reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube import CubeFunction, restriction_query_masks
from .field import PrimeField, binomial_sum, residue_dtype
from .oracle import CodeEnumeration, _weighted_counts, code_fits, nearest_codeword
from .poly import MultilinearPoly
from .restrict import Restriction, uniform_buckets
from .tester import TesterParams, amplified_test


@dataclass(frozen=True)
class TolerantParams:
    """Distance thresholds and sampling sizes for the tolerant test.

    The asymptotic regime takes k on the order of d log(d/eps)/eps^4 and
    m of order 1/eps^2 + k^d; the desk profile replaces both with small
    explicit values (the guarantees then rest on measurement, not on the
    concentration constants).
    """

    d: int
    delta1: Fraction
    delta2: Fraction
    k: int
    m: int
    intolerant_reps: int = 1
    replacement: bool = True

    def __post_init__(self):
        if not 0 <= self.delta1 < self.delta2 < 1:
            raise ValueError("need 0 <= delta1 < delta2 < 1")
        if not 0 <= self.d < self.k:
            raise ValueError(f"need 0 <= d < k, got d={self.d}, k={self.k}")
        if self.m < 1:
            raise ValueError("need at least one sample point")
        if not self.replacement and (self.m - 1) >> self.k:  # m > 2^k, 2^k unbuilt
            raise ValueError(f"cannot draw {self.m} distinct points from {1 << self.k}")
        if self.intolerant_reps < 1:
            raise ValueError("need at least one intolerant repetition")

    @classmethod
    def desk(
        cls,
        d: int,
        delta1,
        delta2,
        k: int | None = None,
        m: int | None = None,
        intolerant_reps: int = 1,
        replacement: bool = True,
    ) -> "TolerantParams":
        """Small explicit k and m: k defaults to d + 5, the most ``desk_k``
        picks, and m to ceil(1/eps^2) + k^d with eps = (delta2 - delta1) / 2."""
        delta1 = Fraction(delta1)
        delta2 = Fraction(delta2)
        eps = (delta2 - delta1) / 2
        if eps <= 0:
            raise ValueError("delta2 must exceed delta1")
        if k is None:
            k = d + 5
        if m is None:
            m = math.ceil(1 / float(eps) ** 2) + k**d
        return cls(d, delta1, delta2, k, m, intolerant_reps, replacement)

    @functools.cached_property
    def intolerant(self) -> TesterParams:
        return TesterParams.desk(self.d)

    @property
    def threshold(self) -> Fraction:
        return (self.delta1 + self.delta2) / 2

    @property
    def max_queries(self) -> int:
        return self.intolerant_reps * self.intolerant.queries_per_run + self.m


def desk_k(d: int, p: int) -> int:
    """The default small-cube dimension over F_p: the largest k in
    (d, d + 5] whose p^C(k,<=d) codewords fit ``CODEWORD_BUDGET``, or d + 5
    when none does, so that the run raises the budget error."""
    for k in range(d + 5, d, -1):
        if code_fits(p, binomial_sum(k, d)):
            return k
    return d + 5


def sample_uniform_restriction(n: int, k: int, rng) -> Restriction:
    """phi(i) i.i.d. uniform on [k] plus a uniform complement mask.

    No surjectivity guarantee: outputs may have empty buckets.
    """
    if n < 1 or k < 1:
        raise ValueError("dimensions must be positive")
    return Restriction(n, uniform_buckets(n, k, rng), rng.getrandbits(n))


def sample_query_set(k: int, m: int, rng, replacement: bool = True) -> list[int]:
    """m points of {0,1}^k: i.i.d. uniform (default) or distinct."""
    if m < 1:
        raise ValueError("need at least one point")
    size = 1 << k
    if replacement:
        return [rng.randrange(size) for _ in range(m)]
    if m > size:
        raise ValueError(f"cannot draw {m} distinct points from {size}")
    return rng.sample(range(size), m)


def _closest_on_sample(code: CodeEnumeration, sample,
                       read) -> tuple[MultilinearPoly, Fraction, int]:
    """(closest codeword of ``code`` on a multiset of points of {0,1}^k, its
    multiset-weighted distance mu, the number of distinct points).

    ``read(points)`` answers the residues at the distinct points, given in
    ascending order, and is called once.  Ties break to the
    lexicographically smallest coefficient vector.
    """
    weights = np.bincount(sample, minlength=1 << code.k)
    points = np.flatnonzero(weights).tolist()
    table = np.zeros(1 << code.k, dtype=residue_dtype(code.field.p))
    table[points] = read(points)
    best, count = nearest_codeword(code, table, weights)
    return code.poly_at(best), Fraction(count, len(sample)), len(points)


def closest_poly_on_set(
    g: CubeFunction, sample: list[int], d: int
) -> tuple[MultilinearPoly, Fraction]:
    """Closest degree-d polynomial to g on a multiset of points, with its
    multiset-weighted distance mu; the code's budget is ``CODEWORD_BUDGET``."""
    code = CodeEnumeration(g.n, d, g.field)
    poly, mu, _ = _closest_on_sample(code, sample, g.values_at)
    return poly, mu


@dataclass(frozen=True)
class TolerantReport:
    accepted: bool
    intolerant_accepted: bool
    mu: Fraction | None
    queries_used: int
    interpolated: MultilinearPoly | None


def tolerant_test(f: CubeFunction, params: TolerantParams, rng) -> TolerantReport:
    """Run the three-step tolerant test; the verdict is a deterministic
    function of (f, rng state)."""
    if f.n <= params.k:
        raise ValueError(f"need n > k, got n={f.n}, k={params.k}")
    queries = params.intolerant_reps * params.intolerant.queries_per_run
    if not amplified_test(f, params.intolerant, params.intolerant_reps, rng):
        return TolerantReport(False, False, None, queries, None)

    # The budget check comes first: past it the default m can be too large to draw.
    code = CodeEnumeration(params.k, params.d, f.field)
    restriction = sample_uniform_restriction(f.n, params.k, rng)
    sample = sample_query_set(params.k, params.m, rng, params.replacement)
    masks = restriction_query_masks(restriction)
    interpolated, mu, read = _closest_on_sample(
        code, sample, lambda points: f.values_at([masks[pt] for pt in points]))
    queries += read
    assert queries <= params.max_queries
    accepted = mu < params.threshold
    return TolerantReport(accepted, True, mu, queries, interpolated)


def restricted_min_distance(k: int, d: int, field: PrimeField, sample) -> Fraction:
    """Minimum fractional weight on the sample over nonzero codewords.

    By linearity this equals the minimum distance of the degree-d code
    restricted to the sample (points weighted by multiplicity).
    """
    weights = np.bincount(sample, minlength=1 << k)
    points = np.flatnonzero(weights)
    code = CodeEnumeration(k, d, field)
    best = None
    for start, block in code.iter_value_blocks(points):
        nonzero = _weighted_counts(block != 0, weights[points])
        if start == 0:
            nonzero = nonzero[1:]  # skip the zero codeword
        local = int(nonzero.min()) if len(nonzero) else None
        if local is not None and (best is None or local < best):
            best = local
    return Fraction(best, len(sample))
