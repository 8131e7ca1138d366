"""Tolerant testing: estimate the distance to the code and threshold it.

Step 1 runs the amplified intolerant test to screen out functions far beyond
the tolerant regime.  Step 2 restricts through an i.i.d. uniform variable map
(not the bucket process; buckets may be empty here) and samples a query set S
from the small cube.  Step 3 finds the exactly closest degree-d polynomial on
S (``oracle.nearest_codeword``, weighted by multiplicity) and accepts iff its
distance mu on S is below (delta_1 + delta_2) / 2.

The input f is read only through ``f.values_at(masks)`` (see ``cube``), so a
``CubeFunction`` table and a ``poly.CorruptedPoly`` oracle give the same
reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube import CubeFunction, restriction_query_masks
from .field import PrimeField, binomial_sum
from .oracle import CODEWORD_BUDGET, CodeEnumeration, _weighted_counts, code_fits, nearest_codeword
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
    intolerant: TesterParams
    intolerant_reps: int = 1
    replacement: bool = True

    def __post_init__(self):
        if not 0 <= self.delta1 < self.delta2 < 1:
            raise ValueError("need 0 <= delta1 < delta2 < 1")
        if self.k <= self.d:
            raise ValueError("k must exceed d")
        if self.m < 1:
            raise ValueError("need at least one sample point")
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
        intolerant = TesterParams.desk(d)
        return cls(d, delta1, delta2, k, m, intolerant, intolerant_reps, replacement)

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
        if code_fits(p, binomial_sum(k, d), CODEWORD_BUDGET):
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


def _closest_on_points(
    values: dict[int, int],
    weights: dict[int, int],
    code: CodeEnumeration,
) -> tuple[MultilinearPoly, Fraction]:
    """Exact weighted nearest codeword of ``code`` on a set of points.

    Ties break to the lexicographically smallest coefficient vector (the
    enumeration order of CodeEnumeration).
    """
    points = sorted(values)
    dtype = np.uint8 if code.field.p < 256 else np.int64
    table = np.asarray([values[pt] for pt in points], dtype=dtype)
    weight_vec = np.asarray([weights[pt] for pt in points], dtype=np.int64)
    total = int(weight_vec.sum())
    best, count = nearest_codeword(code, table, weight_vec, points)
    return code.poly_at(best), Fraction(count, total)


def closest_poly_on_set(
    g: CubeFunction, sample: list[int], d: int, budget: int = CODEWORD_BUDGET
) -> tuple[MultilinearPoly, Fraction]:
    """Closest degree-d polynomial to g on a multiset of points, with its
    multiset-weighted distance mu."""
    weights = Counter(sample)
    values = dict(zip(weights, g.values_at(list(weights))))
    return _closest_on_points(values, weights, CodeEnumeration(g.n, d, g.field, budget=budget))


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
    points = restriction_query_masks(restriction)
    weights = Counter(sample)
    values = dict(zip(weights, f.values_at([points[pt] for pt in weights])))
    queries += len(weights)
    interpolated, mu = _closest_on_points(values, weights, code)
    assert queries <= params.max_queries
    accepted = mu < params.threshold
    return TolerantReport(accepted, True, mu, queries, interpolated)


def restricted_min_distance(k: int, d: int, field: PrimeField, sample) -> Fraction:
    """Minimum fractional weight on the sample over nonzero codewords.

    By linearity this equals the minimum distance of the degree-d code
    restricted to the sample (points weighted by multiplicity).
    """
    multiplicity = Counter(sample)
    points = sorted(multiplicity)
    weight_vec = np.asarray([multiplicity[pt] for pt in points], dtype=np.int64)
    total = int(weight_vec.sum())
    code = CodeEnumeration(k, d, field)
    best = None
    for start, block in code.iter_value_blocks(points):
        nonzero = _weighted_counts(block != 0, weight_vec)
        if start == 0:
            nonzero = nonzero[1:]  # skip the zero codeword
        local = int(nonzero.min()) if len(nonzero) else None
        if local is not None and (best is None or local < best):
            best = local
    return Fraction(best, total)
