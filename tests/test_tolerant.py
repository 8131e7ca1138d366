import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cube_util import constant_function, random_function
from gridcode.cube import (CubeFunction, apply_restriction, corrupt, query_mask,
                           restriction_query_masks)
from gridcode.errors import BudgetExceededError
from gridcode.field import PrimeField
from gridcode.oracle import CodeEnumeration, _min_disagreement, exact_delta_d
from gridcode.poly import from_truth_table, random_poly
from gridcode.tester import amplified_test
from gridcode.tolerant import (
    TolerantParams,
    _closest_on_sample,
    closest_poly_on_set,
    restricted_min_distance,
    sample_query_set,
    sample_uniform_restriction,
    tolerant_test,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_uniform_restriction_k1_maps_everything_to_y1():
    r = sample_uniform_restriction(12, 1, random.Random(0))
    assert r.buckets == (0xFFF,)


def test_uniform_restriction_deterministic():
    a = sample_uniform_restriction(20, 4, random.Random(1))
    b = sample_uniform_restriction(20, 4, random.Random(1))
    assert a == b


def test_uniform_restriction_marginals():
    # each variable's output choice is uniform over [k] within 3 sigma
    rng = random.Random(2)
    n, k, draws = 100, 4, 10**4
    counts = [[0] * k for _ in range(n)]
    for _ in range(draws):
        r = sample_uniform_restriction(n, k, rng)
        for j, bucket in enumerate(r.buckets):
            while bucket:
                low = bucket & -bucket
                counts[low.bit_length() - 1][j] += 1
                bucket ^= low
    sigma = (draws * (1 / k) * (1 - 1 / k)) ** 0.5
    for per_var in counts:
        for c in per_var:
            assert abs(c - draws / k) <= 3.5 * sigma


def test_sample_query_set_modes():
    rng = random.Random(3)
    assert len(sample_query_set(4, 1, rng)) == 1
    full = sample_query_set(3, 8, rng, replacement=False)
    assert sorted(full) == list(range(8))
    with pytest.raises(ValueError):
        sample_query_set(3, 9, rng, replacement=False)


def test_sample_query_set_frequencies_uniform():
    rng = random.Random(4)
    draws = 10**4
    counts = Counter(sample_query_set(3, draws, rng))
    sigma = (draws * (1 / 8) * (7 / 8)) ** 0.5
    for point in range(8):
        assert abs(counts[point] - draws / 8) <= 3.5 * sigma


def test_closest_poly_recovers_codeword():
    rng = random.Random(5)
    poly = random_poly(4, 1, F3, rng)
    g = poly.truth_table()
    sample = sample_query_set(4, 30, rng)
    h, mu = closest_poly_on_set(g, sample, 1)
    assert mu == 0
    assert h == poly


def test_closest_poly_and_example():
    # AND on the full 2-cube: the best affine approximation errs on exactly
    # one of four points.
    g = CubeFunction(2, F2, [0, 0, 0, 1])
    h, mu = closest_poly_on_set(g, [0, 1, 2, 3], 1)
    assert mu == Fraction(1, 4)
    assert h.degree() <= 1


def test_closest_poly_multiset_weighting():
    g = CubeFunction(2, F2, [0, 0, 0, 1])
    # loading the sample with copies of the disagreement point changes mu
    h, mu = closest_poly_on_set(g, [0, 1, 2, 3, 3, 3], 1)
    assert mu in (Fraction(1, 6), Fraction(2, 6))


def test_closest_poly_shrinking_sample_keeps_minimizer():
    rng = random.Random(6)
    poly = random_poly(4, 1, F2, rng)
    g = corrupt(poly.truth_table(), Fraction(1, 16), rng)
    big = list(range(16))
    h_big, mu_big = closest_poly_on_set(g, big, 1)
    small = [pt for pt in big if g.values[pt] == h_big.evaluate_residue(pt)]
    h_small, mu_small = closest_poly_on_set(g, small, 1)
    assert mu_small <= mu_big


def test_closest_poly_budget_guard():
    g = random_function(10, F3, random.Random(7))
    with pytest.raises(BudgetExceededError):
        closest_poly_on_set(g, [0, 1], 5)  # 3^C(10,<=5) codewords, past 10^7


def test_closest_poly_matches_oracle_on_full_cube():
    rng = random.Random(8)
    for _ in range(10):
        f = random_function(4, F2, rng)
        h, mu = closest_poly_on_set(f, list(range(16)), 1)
        delta, nearest = exact_delta_d(f, 1)
        assert mu == delta
        assert h == nearest


def test_tolerant_accepts_exact_codewords_every_seed():
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10), k=5, m=60)
    poly = random_poly(10, 1, F2, random.Random(9))
    f = poly.truth_table()
    for seed in range(20):
        report = tolerant_test(f, params, random.Random(seed))
        assert report.accepted
        assert report.intolerant_accepted
        assert report.mu == 0
        assert report.queries_used <= params.max_queries


def test_tolerant_verdict_deterministic():
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10), k=5, m=60)
    rng = random.Random(10)
    f = corrupt(random_poly(10, 1, F2, rng).truth_table(), Fraction(1, 10), rng)
    first = tolerant_test(f, params, random.Random(11))
    second = tolerant_test(f, params, random.Random(11))
    assert first.accepted == second.accepted and first.mu == second.mu


def test_tolerant_needs_room_to_restrict():
    params = TolerantParams.desk(1, Fraction(1, 100), Fraction(1, 10), k=6, m=30)
    f = constant_function(5, F2)
    with pytest.raises(ValueError):
        tolerant_test(f, params, random.Random(0))


def test_tolerant_params_validation():
    with pytest.raises(ValueError):
        TolerantParams.desk(1, Fraction(2, 10), Fraction(1, 10))
    with pytest.raises(ValueError):
        TolerantParams.desk(2, Fraction(1, 100), Fraction(1, 10), k=2, m=10)
    with pytest.raises(ValueError, match=r"need 0 <= d < k, got d=-1, k=4"):
        TolerantParams.desk(-1, Fraction(1, 100), Fraction(1, 10), k=4)
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10))
    assert params.m == 124 + 6  # ceil(1/eps^2) + k^d with eps = 9/100 and k = 6
    assert params.threshold == Fraction(11, 100)
    with pytest.raises(ValueError, match="cannot draw 130 distinct points from 64"):
        TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10), replacement=False)
    assert TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10), m=64,
                               replacement=False).m == 64


def test_restricted_min_distance_full_cube_is_2_to_minus_d():
    assert restricted_min_distance(4, 1, F2, range(16)) == Fraction(1, 2)
    assert restricted_min_distance(3, 2, F2, range(8)) == Fraction(1, 4)


def test_restricted_min_distance_single_point_vanishes():
    assert restricted_min_distance(3, 1, F2, [5]) == 0


def test_restricted_min_distance_random_sets_mostly_good():
    rng = random.Random(12)
    bad = 0
    for _ in range(100):
        sample = sample_query_set(6, 40, rng, replacement=False)
        if restricted_min_distance(6, 1, F2, sample) < Fraction(1, 4):
            bad += 1
    assert bad <= 2


def test_restricted_min_distance_matches_int64_product():
    rng = random.Random(33)
    for k, d, p in [(4, 1, 2), (5, 2, 2), (4, 1, 3), (3, 2, 5)]:
        field = PrimeField(p)
        code = CodeEnumeration(k, d, field)
        for m in (5, 17, 40):
            sample = [rng.randrange(1 << k) for _ in range(m)]
            points = sorted(set(sample))
            weights = np.asarray([sample.count(pt) for pt in points], dtype=np.int64)
            values = np.concatenate([block for _, block in code.iter_value_blocks(points)])
            counts = (values[1:] != 0).astype(np.int64) @ weights
            expected = Fraction(int(counts.min()), m)
            assert restricted_min_distance(k, d, field, sample) == expected


def test_distance_estimate_concentrates():
    # Restricting through a wide uniform map and sampling with replacement
    # estimates the true distance within 0.03 in at least 90% of trials.
    rng = random.Random(13)
    n, k, m = 14, 20, 1000
    delta = Fraction(819, 16384)
    eps = Fraction(3, 100)
    misses = 0
    trials = 200
    for _ in range(trials):
        poly = random_poly(n, 1, F2, rng)
        f = corrupt(poly.truth_table(), Fraction(5, 100), rng)
        r = sample_uniform_restriction(n, k, rng)
        sample = sample_query_set(k, m, rng)
        disagreements = 0
        for pt in sample:
            x = query_mask(r, pt)
            disagreements += f.values[x] != poly.evaluate_residue(x)
        estimate = Fraction(disagreements, m)
        if not delta - eps <= estimate <= delta + eps:
            misses += 1
    assert misses / trials <= 0.1


def test_interpolation_matches_global_closest_when_distance_allows():
    # Whenever the sampled points keep the code's distance above twice the
    # observed mu, the interpolated polynomial must equal the restriction of
    # the globally nearest codeword.
    rng = random.Random(14)
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10))
    checked = 0
    for _ in range(30):
        poly = random_poly(12, 1, F2, rng)
        f = corrupt(poly.truth_table(), Fraction(2, 100), rng)
        delta, nearest = exact_delta_d(f, 1)
        r = sample_uniform_restriction(12, params.k, rng)
        sample = sample_query_set(params.k, params.m, rng)
        g = apply_restriction(f, r)
        h, mu = closest_poly_on_set(g, sample, 1)
        support = sorted(set(sample))
        if restricted_min_distance(params.k, 1, F2, support) > 2 * mu:
            expected = from_truth_table(apply_restriction(nearest.truth_table(), r))
            assert h == expected
            checked += 1
    assert checked >= 10


def test_tolerant_report_matches_the_table_reference():
    # Replaying the tolerant test's random calls, restricting the whole table
    # with apply_restriction and taking closest_poly_on_set on the sample
    # gives the interpolant and mu that tolerant_test reads through the
    # restriction's query masks.
    rng = random.Random(15)
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10), k=5, m=60)
    checked = 0
    for _ in range(12):
        f = corrupt(random_poly(10, 1, F3, rng).truth_table(), Fraction(1, 50), rng)
        replay = random.Random()
        replay.setstate(rng.getstate())
        report = tolerant_test(f, params, rng)
        if amplified_test(f, params.intolerant, params.intolerant_reps, replay):
            r = sample_uniform_restriction(10, params.k, replay)
            sample = sample_query_set(params.k, params.m, replay, params.replacement)
            h, mu = closest_poly_on_set(apply_restriction(f, r), sample, params.d)
            assert (report.interpolated, report.mu) == (h, mu)
            checked += 1
        else:
            assert report.mu is None
        assert replay.getstate() == rng.getstate()
    assert checked >= 4


@pytest.mark.parametrize(
    "k, d, p", [(5, 2, 2), (6, 1, 2), (4, 1, 3), (3, 1, 5), (1, 1, 257), (3, 2, 3)]
)
def test_closest_on_points_matches_block_scan(k, d, p):
    # The weighted step of the tolerant test, on seeded multisets of the
    # sizes the desk profile samples, against the block scan over the
    # distinct points; the last case takes the scan itself.
    field = PrimeField(p)
    code = CodeEnumeration(k, d, field)
    rng = random.Random(90 + k + d + p)
    for trial in range(6):
        sample = sample_query_set(k, rng.choice((5, 40, 149)), rng)
        weights = Counter(sample)
        if trial % 2:
            f = random_poly(k, d, field, rng).truth_table()
            values = {pt: f.values[pt] for pt in weights}
            for pt in rng.sample(sorted(weights), len(weights) // 4):
                values[pt] = rng.randrange(p)
        else:
            values = {pt: rng.randrange(p) for pt in weights}
        points = sorted(weights)
        table = np.asarray([values[pt] for pt in points], dtype=np.uint8 if p < 256 else np.int64)
        weight_vec = np.asarray([weights[pt] for pt in points], dtype=np.int64)
        best, count = _min_disagreement(code, points, table, weight_vec)
        poly, mu, read = _closest_on_sample(code, sample, lambda pts: [values[pt] for pt in pts])
        assert (code.index_of(poly), mu) == (best, Fraction(count, len(sample)))
        assert read == len(points)


class _RecordingReads:
    """f read through ``values_at``, with every call's masks recorded."""

    def __init__(self, f):
        self.n, self.field, self.f, self.calls = f.n, f.field, f, []

    def values_at(self, masks):
        self.calls.append(list(masks))
        return self.f.values_at(masks)


@pytest.mark.parametrize("d, p, replacement", [(1, 2, True), (2, 2, True), (1, 3, False)])
def test_tolerant_reads_each_distinct_sampled_point_once(d, p, replacement):
    # Past the screen, step 3 reads f in one call: once at the query mask of
    # each distinct sampled point, in ascending order of the points, and the
    # report counts the screen's queries plus those reads.
    field = PrimeField(p)
    params = TolerantParams.desk(d, Fraction(2, 100), Fraction(2, 10), k=d + 4, m=20,
                                 replacement=replacement)
    screen = params.intolerant_reps * params.intolerant.queries_per_run
    rng = random.Random(16 + d + p)
    repeats = 0
    for _ in range(6):
        f = _RecordingReads(random_poly(10, d, field, rng).truth_table())
        replay = random.Random()
        replay.setstate(rng.getstate())
        report = tolerant_test(f, params, rng)
        assert report.intolerant_accepted
        assert amplified_test(f.f, params.intolerant, params.intolerant_reps, replay)
        masks = restriction_query_masks(sample_uniform_restriction(10, params.k, replay))
        sample = sample_query_set(params.k, params.m, replay, params.replacement)
        distinct = sorted(set(sample))
        assert f.calls[-1] == [masks[pt] for pt in distinct]
        assert sum(map(len, f.calls[:-1])) == screen
        assert report.queries_used == screen + len(distinct) == sum(map(len, f.calls))
        repeats += len(distinct) < len(sample)
    assert repeats > 0 or not replacement
