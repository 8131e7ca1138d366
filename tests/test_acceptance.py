"""Acceptance suite: one test per headline guarantee, at pinned parameters
and tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
line per criterion.

Monte Carlo criteria use fixed seeds; statistical thresholds leave at least
three standard errors of headroom at the pinned sample sizes.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from cube_util import distance, random_function
from gridcode.cube import corrupt
from gridcode.decoder import (
    DecoderParams,
    decode_from_ball,
    local_decode,
    zero_tail_balanced_set,
)
from gridcode.dualwitness import build_witness, verify_witness
from gridcode.field import PrimeField
from gridcode.lowerbound import (
    ALL_PLUS_ONES,
    sample_balanced_vectors,
    span_exponent,
    t_span_contains,
)
from gridcode.oracle import exact_delta_d
from gridcode.poly import MultilinearPoly, random_poly
from gridcode.rand import derive_rng
from gridcode.restrict import (
    enumerate_cycle_buckets,
    exact_bucket_distribution,
    sample_buckets_direct_sizes,
    sample_restriction_recursive,
)
from gridcode.tester import TesterParams, estimate_rejection_probability, run_test_once
from gridcode.tolerant import (
    TolerantParams,
    restricted_min_distance,
    sample_query_set,
    tolerant_test,
)
from stats_util import binomial_lower_bound, chi_square_homogeneity

F2 = PrimeField(2)
F3 = PrimeField(3)


def _report(name: str) -> None:
    print(f"acceptance {name}: PASS")


def test_a01_completeness_zero_rejections():
    # p=2, n=10, d in {1,2}, k=d+2: 1000 random degree-d polynomials, 10
    # seeds each, not a single rejection.
    for d in (1, 2):
        params = TesterParams.desk(d, d + 2)
        poly_rng = derive_rng(101, d)
        for _ in range(1000):
            f = random_poly(10, d, F2, poly_rng).truth_table()
            for seed in range(10):
                transcript = run_test_once(f, params, derive_rng(202 + d, seed))
                assert transcript.accepted
    _report("01 completeness (0 rejections over 2x10^4 runs)")


def test_a02_query_complexity_exact():
    rng = random.Random(103)
    for d, k in ((1, 3), (2, 4)):
        params = TesterParams.desk(d, k)
        for _ in range(200):
            f = random_function(9, F2, rng)
            transcript = run_test_once(f, params, rng)
            assert transcript.query_count == 1 << k
            assert len(set(transcript.query_masks)) == 1 << k
    decoder_params = DecoderParams.for_degree(2, 1)
    assert decoder_params.query_budget == 6
    f = random_poly(10, 1, F2, rng).truth_table()
    for _ in range(200):
        _, log = local_decode(f, rng.randrange(1 << 10), decoder_params, rng)
        assert log.query_count == 6
    _report("02 query complexity (2^k per test, C(2k,k) per decode)")


def test_a03_tester_descriptions_equivalent():
    # Exact rational equality of sorted bucket-size distributions at small
    # sizes, chi-square agreement at (n,k) = (12,4) with 10^5 samples.
    for n, k in ((5, 2), (6, 3)):
        parent = exact_bucket_distribution(n, k)
        assert exact_bucket_distribution(n, k, "recursive") == parent
        assert exact_bucket_distribution(n, k, "cycle") == parent

    rng = random.Random(104)
    samples = 10**5
    recursive_counts = Counter()
    for _ in range(samples):
        recursive_counts[sample_restriction_recursive(12, 4, rng).bucket_sizes()] += 1
    direct_counts = Counter()
    for _ in range(samples):
        direct_counts[sample_buckets_direct_sizes(12, 4, rng)] += 1
    p_value = chi_square_homogeneity(recursive_counts, direct_counts)
    assert p_value > 0.01, p_value
    _report(f"03 process equivalence (exact + chi-square p={p_value:.3f})")


def test_a04_cycle_sampler_matches_parent_process():
    for r, k in ((5, 2), (6, 3)):
        assert exact_bucket_distribution(r, k, "cycle") == exact_bucket_distribution(r, k)
    # k=2 marginal at r=5: the first bucket size is uniform on 1..4.
    marginal = Counter()
    for sizes, weight in enumerate_cycle_buckets(5, 2):
        marginal[sizes[0]] += weight
    assert marginal == {s: Fraction(1, 4) for s in (1, 2, 3, 4)}
    _report("04 cycle sampler (exact equality + uniform k=2 marginal)")


def test_a05_balanced_sums_determine_origin():
    # p=2, d=1, k=2: all 32 degree-<=1 polynomials on 4 variables.
    params = DecoderParams.for_degree(2, 1)
    points = zero_tail_balanced_set(params.k, params.d)
    monomials = [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]
    for bits in itertools.product(range(2), repeat=5):
        g = MultilinearPoly(4, F2, dict(zip(monomials, bits)))
        values = {y: g.evaluate_residue(y) for y in points}
        assert decode_from_ball(values, params) == g.evaluate_residue(0)

    # p=3, d=2, k=3: 1000 random degree-<=2 polynomials on 6 variables.
    params3 = DecoderParams.for_degree(3, 2)
    points3 = zero_tail_balanced_set(params3.k, params3.d)
    rng = random.Random(105)
    for _ in range(1000):
        g = random_poly(6, 2, F3, rng)
        values = {y: g.evaluate_residue(y) for y in points3}
        assert decode_from_ball(values, params3) == g.evaluate_residue(0)

    # binomial vanishing pattern behind the construction
    for p in (2, 3, 5):
        for d in range(11):
            k = 1
            while k <= d:
                k *= p
            assert math.comb(d + k, k) % p == 1
            for i in range(1, d + 1):
                assert math.comb(d + k - i, k - i) % p == 0
    _report("05 balanced-sum decoding identity (exhaustive + 10^3 random)")


def test_a06_decoder_success_rate():
    # p=2, d=1, n=16, corruption exactly at tolerance 1/24: the success
    # frequency over 10^4 trials clears 0.75 at one-sided 99% confidence.
    params = DecoderParams.for_degree(2, 1)
    rng = random.Random(106)
    poly = random_poly(16, 1, F2, rng)
    clean = poly.truth_table()
    noisy = corrupt(clean, params.tolerance, rng)
    assert distance(clean, noisy) <= params.tolerance

    successes = 0
    trials = 10**4
    for i in range(trials):
        trial_rng = derive_rng(107, i)
        x = trial_rng.randrange(1 << 16)
        value, _ = local_decode(noisy, x, params, trial_rng)
        successes += value.residue == poly.evaluate_residue(x)
    lower = binomial_lower_bound(successes, trials, confidence=0.99)
    assert lower >= 0.75, (successes, lower)

    clean_successes = 0
    for i in range(1000):
        trial_rng = derive_rng(108, i)
        x = trial_rng.randrange(1 << 16)
        value, _ = local_decode(clean, x, params, trial_rng)
        clean_successes += value.residue == poly.evaluate_residue(x)
    assert clean_successes == 1000
    _report(f"06 decoder success ({successes}/{trials} corrupted, 1000/1000 clean)")


def test_a07_dual_witness_construction():
    for k, d in ((4, 1), (6, 2)):
        witness = build_witness(k, d, F2)
        report = verify_witness(witness)
        assert report.orthogonality and report.window and report.size
        assert report.one_point_separation

    # independent literal pair scan at (4,1,2)
    witness = build_witness(4, 1, F2)
    monomials = [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]
    polys = [
        MultilinearPoly(4, F2, dict(zip(monomials, bits)))
        for bits in itertools.product(range(2), repeat=5)
    ]
    for a, b in itertools.combinations(polys, 2):
        differing = sum(
            a.evaluate_residue(y) != b.evaluate_residue(y) for y in witness.support
        )
        assert differing != 1
    _report("07 dual witness (orthogonal, windowed, no one-point pair)")


def test_a08_balanced_span_impossibility():
    # Positive control: a spanning triple produces a Cramer certificate
    # within the factorial bound (asserted inside t_span_contains as well).
    n = 36
    triple = []
    for pattern in ((1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        mask = 0
        for j in range(n):
            if pattern[j % 3] < 0:
                mask |= 1 << j
        triple.append(mask)
    result = t_span_contains(ALL_PLUS_ONES, triple, 3, n)
    assert result.found
    numerators, denominator = result.certificate
    assert abs(denominator) <= math.factorial(3)
    assert all(abs(a) <= math.factorial(3) for a in numerators)

    # Main claim: 200 random balanced vectors never span the all-ones
    # vector with t = floor(ln s / ln ln s) terms; 20 trials per size.
    for size in (36, 64):
        s = math.isqrt(size)
        t = span_exponent(s)
        for trial in range(20):
            rng = derive_rng(109 + size, trial)
            vectors = sample_balanced_vectors(size, s, 200, rng)
            outcome = t_span_contains(
                ALL_PLUS_ONES, vectors, t, size, budget=2 * 10**6
            )
            assert not outcome.found, (size, trial)
    _report("08 balanced spans (certificates bounded, 40/40 trials unspanned)")


def test_a09_restricted_code_distance():
    # k=6, d=1, p=2, |S| = 40 distinct points: the restricted code keeps
    # distance >= 1/4 in all but at most 1% + 3 sigma of 1000 draws.
    rng = random.Random(110)
    threshold = Fraction(1, 4)
    failures = 0
    draws = 1000
    for _ in range(draws):
        sample = sample_query_set(6, 40, rng, replacement=False)
        if restricted_min_distance(6, 1, F2, sample) < threshold:
            failures += 1
    sigma = math.sqrt(0.01 * 0.99 / draws)
    assert failures / draws <= 0.01 + 3 * sigma, failures
    _report(f"09 restricted distance ({failures}/{draws} degenerate draws)")


def test_a10_tolerant_tester_rates():
    # n=12, d=1, p=2, thresholds 0.02 / 0.2, desk-scale (k, m).  Fresh inputs
    # each trial, each certified by the exhaustive oracle before testing.
    params = TolerantParams.desk(1, Fraction(2, 100), Fraction(2, 10))
    trials = 400

    accepts = 0
    for i in range(trials):
        rng = derive_rng(111, i)
        poly = random_poly(12, 1, F2, rng)
        f = corrupt(poly.truth_table(), Fraction(1, 100), rng)
        delta, _ = exact_delta_d(f, 1)
        assert delta <= Fraction(2, 100)
        accepts += tolerant_test(f, params, rng).accepted
    assert accepts / trials >= 0.75, accepts

    rejects = 0
    for i in range(trials):
        rng = derive_rng(112, i)
        poly = random_poly(12, 1, F2, rng)
        f = corrupt(poly.truth_table(), Fraction(25, 100), rng)
        delta, _ = exact_delta_d(f, 1)
        assert delta >= Fraction(2, 10)
        rejects += not tolerant_test(f, params, rng).accepted
    assert rejects / trials >= 0.75, rejects
    _report(f"10 tolerant tester (accept {accepts}/400, reject {rejects}/400)")


def test_a11_rejection_rate_grows_with_distance():
    # n=12, d=1, k=4: rejection estimates at certified distances 1/2^12,
    # ~0.05 and ~0.15 must increase by at least 3 combined standard errors,
    # 10^5 trials per point.
    params = TesterParams.desk(1, 4)
    rng = random.Random(113)
    poly = random_poly(12, 1, F2, rng)
    clean = poly.truth_table()

    estimates = []
    for corruption, certified_floor in (
        (Fraction(1, 4096), Fraction(1, 4096)),
        (Fraction(5, 100), Fraction(4, 100)),
        (Fraction(15, 100), Fraction(13, 100)),
    ):
        f = corrupt(clean, corruption, rng)
        delta, _ = exact_delta_d(f, 1)
        assert delta >= certified_floor
        estimates.append(estimate_rejection_probability(f, params, 10**5, rng))

    for low, high in zip(estimates, estimates[1:]):
        gap = high.rate - low.rate
        assert gap >= 3 * math.hypot(low.stderr, high.stderr), (low, high)
    rates = ", ".join(f"{e.rate:.4f}" for e in estimates)
    _report(f"11 soundness trend (rates {rates})")
