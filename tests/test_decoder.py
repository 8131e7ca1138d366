import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cube_util import constant_function, distance
from gridcode.cube import corrupt
from gridcode.decoder import (
    FULL_BALANCED,
    QUERY_BUDGET,
    ZERO_TAIL_ONLY,
    DecoderParams,
    balanced_set,
    decode_from_ball,
    local_decode,
    PLAN_WORK_BUDGET,
    query_plan,
    zero_tail_balanced_set,
)
from gridcode.errors import BudgetExceededError
from gridcode.field import PrimeField
from gridcode.poly import MultilinearPoly, random_poly
from stats_util import stderr

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_params_p2_d1():
    params = DecoderParams.for_degree(2, 1)
    assert params == DecoderParams(F2, 1)
    assert params.k == 2
    assert params.query_budget == 6
    assert params.tolerance == Fraction(1, 24)


def test_params_k_is_power_of_p_and_bounded():
    for p in (2, 3, 5):
        for d in range(1, 9):
            params = DecoderParams.for_degree(p, d)
            assert params.k > d
            assert params.k <= p * d
            k = params.k
            while k % p == 0:
                k //= p
            assert k == 1


def test_decoder_constant_vanishing_pattern():
    # For every power k of p above d, C(d+k, k) = 1 mod p, so the balanced
    # sum is G(0) itself, and the shifted binomials vanish mod p.  At d >= 1
    # exactly one such power lies in (d, pd], and it is the derived k.
    for p in (2, 3, 5, 7):
        for d in range(11):
            powers = [p**e for e in range(8) if p**e > d]
            for k in powers:
                assert math.comb(d + k, k) % p == 1
                for i in range(1, d + 1):
                    assert math.comb(d + k - i, k - i) % p == 0
            k = DecoderParams.for_degree(p, d).k
            assert k == powers[0]
            if d >= 1:
                assert [q for q in powers if q <= p * d] == [k]


def test_decoder_params_rejects_negative_degree():
    with pytest.raises(ValueError, match="non-negative"):
        DecoderParams(PrimeField(2), -1)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_for_degree_rejects_bad_modulus(p):
    with pytest.raises(ValueError, match="modulus"):
        DecoderParams.for_degree(p, 2)


def test_balanced_set_small():
    assert balanced_set(1) == [0b01, 0b10]
    assert len(balanced_set(2)) == 6
    assert all(bin(m).count("1") == 2 for m in balanced_set(2))
    assert len(balanced_set(3)) == 20
    assert balanced_set(2) == sorted(balanced_set(2))


def test_zero_tail_set_counts():
    # last k-d coordinates zero leaves C(k+d, k) balanced points
    for k, d in ((2, 1), (3, 2), (4, 1), (4, 3)):
        points = zero_tail_balanced_set(k, d)
        assert len(points) == math.comb(k + d, k)
        assert all(m < (1 << (k + d)) for m in points)
        assert all(bin(m).count("1") == k for m in points)
    assert zero_tail_balanced_set(3, 0) == [0b111]
    assert len(zero_tail_balanced_set(4, 3)) == math.comb(7, 4)


def test_zero_tail_example_p2_d1():
    assert zero_tail_balanced_set(2, 1) == [0b0011, 0b0101, 0b0110]


def test_decode_constant_function():
    for p, d in ((2, 1), (3, 2), (5, 1)):
        params = DecoderParams.for_degree(p, d)
        c0 = 1 % p if p > 2 else 1
        values = {y: c0 for y in zero_tail_balanced_set(params.k, d)}
        assert decode_from_ball(values, params) == c0


def test_decode_linear_example_p2():
    # G = Y1 over F_2 with d=1, k=2: values on the zero-tail set sum to 0.
    params = DecoderParams.for_degree(2, 1)
    g = MultilinearPoly(4, F2, {0b0001: 1})
    values = {y: g.evaluate_residue(y) for y in zero_tail_balanced_set(2, 1)}
    assert [values[y] for y in sorted(values)] == [1, 1, 0]
    assert decode_from_ball(values, params) == 0 == g.evaluate_residue(0)


def test_decode_recovers_origin_exhaustive_f2():
    # All 32 polynomials of degree <= 1 on 4 variables over F_2.
    params = DecoderParams.for_degree(2, 1)
    points = zero_tail_balanced_set(2, 1)
    for bits in itertools.product(range(2), repeat=5):
        coeffs = dict(zip([0b0000, 0b0001, 0b0010, 0b0100, 0b1000], bits))
        g = MultilinearPoly(4, F2, coeffs)
        values = {y: g.evaluate_residue(y) for y in points}
        assert decode_from_ball(values, params) == g.evaluate_residue(0)


def test_decode_recovers_origin_random_f3():
    params = DecoderParams.for_degree(3, 2)
    points = zero_tail_balanced_set(params.k, 2)
    rng = random.Random(30)
    for _ in range(300):
        g = random_poly(2 * params.k, 2, F3, rng)
        values = {y: g.evaluate_residue(y) for y in points}
        assert decode_from_ball(values, params) == g.evaluate_residue(0)


def test_decode_from_ball_is_linear():
    params = DecoderParams.for_degree(3, 2)
    points = zero_tail_balanced_set(params.k, 2)
    rng = random.Random(31)
    u = {y: rng.randrange(3) for y in points}
    v = {y: rng.randrange(3) for y in points}
    for a in range(3):
        combo = {y: (a * u[y] + v[y]) % 3 for y in points}
        expect = (a * decode_from_ball(u, params)
                  + decode_from_ball(v, params)) % 3
        assert decode_from_ball(combo, params) == expect


def test_decode_from_ball_key_validation():
    params = DecoderParams.for_degree(2, 1)
    points = zero_tail_balanced_set(2, 1)
    with pytest.raises(ValueError):
        decode_from_ball({y: 0 for y in points[:-1]}, params)
    extra = {y: 0 for y in points}
    extra[0b1001] = 0
    with pytest.raises(ValueError):
        decode_from_ball(extra, params)


def test_local_decode_clean_oracle_always_correct():
    rng = random.Random(32)
    for p, d, n in ((2, 1, 10), (3, 2, 8), (2, 3, 9)):
        field = PrimeField(p)
        params = DecoderParams.for_degree(p, d)
        poly = random_poly(n, d, field, rng)
        f = poly.truth_table()
        for _ in range(40):
            x = rng.randrange(1 << n)
            value, log = local_decode(f, x, params, rng)
            assert value.residue == poly.evaluate_residue(x)
            assert log.query_count == params.query_budget


def test_local_decode_query_counts_by_mode():
    rng = random.Random(33)
    params = DecoderParams.for_degree(2, 1)
    f = random_poly(8, 1, F2, rng).truth_table()
    _, log_full = local_decode(f, 3, params, rng, mode=FULL_BALANCED)
    assert log_full.query_count == math.comb(4, 2)
    _, log_small = local_decode(f, 3, params, rng, mode=ZERO_TAIL_ONLY)
    assert log_small.query_count == math.comb(3, 2)


def test_local_decode_draws_assignment_as_randrange():
    # The assignment must come from the calls of randrange(2k) per variable:
    # the query for y reads the target xored with every variable whose
    # output is a set bit of y.
    for p, d in ((2, 1), (3, 2), (2, 3)):
        params = DecoderParams.for_degree(p, d)
        f = random_poly(9, d, PrimeField(p), random.Random(p * d)).truth_table()
        for seed in range(50):
            ours, reference = random.Random(seed), random.Random(seed)
            _, log = local_decode(f, seed, params, ours)
            assignment = [reference.randrange(2 * params.k) for _ in range(9)]
            expected = tuple(
                (y, seed ^ sum(1 << j for j, out in enumerate(assignment) if y >> out & 1))
                for y in balanced_set(params.k))
            assert log.queries == expected
            assert ours.getstate() == reference.getstate()


def test_each_query_uniform_exhaustive():
    # d=0, p=2 gives k=1: enumerate all assignments h and all balanced
    # points; each oracle position must be hit equally often.
    params = DecoderParams.for_degree(2, 0)
    assert params.k == 1
    n = 3
    counts = Counter()
    for assignment in itertools.product(range(2), repeat=n):
        for y in balanced_set(1):
            z = 0
            for j, out in enumerate(assignment):
                if (y >> out) & 1:
                    z |= 1 << j
            counts[z] += 1
    total = (2**n) * len(balanced_set(1))
    assert set(counts.values()) == {total // (1 << n)}


def test_local_decode_under_corruption_meets_rate():
    rng = random.Random(34)
    params = DecoderParams.for_degree(2, 1)
    poly = random_poly(12, 1, F2, rng)
    tt = poly.truth_table()
    f = corrupt(tt, params.tolerance, rng)
    assert distance(tt, f) <= params.tolerance
    successes = 0
    trials = 2000
    for i in range(trials):
        x = rng.randrange(1 << 12)
        value, _ = local_decode(f, x, params, rng)
        successes += value.residue == poly.evaluate_residue(x)
    assert successes / trials >= 0.75


def test_degradation_is_monotone_within_noise():
    rng = random.Random(35)
    params = DecoderParams.for_degree(2, 1)
    poly = random_poly(12, 1, F2, rng)
    tt = poly.truth_table()
    rates = []
    for mult in (1, 2):
        f = corrupt(tt, mult * params.tolerance, rng)
        successes = 0
        trials = 3000
        for _ in range(trials):
            x = rng.randrange(1 << 12)
            value, _ = local_decode(f, x, params, rng)
            successes += value.residue == poly.evaluate_residue(x)
        rates.append(successes / trials)
    slack = 3 * (stderr(rates[0], 3000) ** 2 + stderr(rates[1], 3000) ** 2) ** 0.5
    assert rates[1] <= rates[0] + slack


def test_local_decode_validation():
    params = DecoderParams.for_degree(2, 1)
    f = constant_function(5, F3)
    with pytest.raises(ValueError):
        local_decode(f, 0, params, random.Random(0))
    f2 = constant_function(5, F2)
    with pytest.raises(ValueError):
        local_decode(f2, 1 << 5, params, random.Random(0))
    with pytest.raises(ValueError):
        local_decode(f2, 0, params, random.Random(0), mode="bogus")


def test_query_plan_checks_the_mode_query_count_before_building():
    # C(2k, k) points in the full mode, C(k+d, k) in the reduced one
    with pytest.raises(BudgetExceededError) as caught:
        query_plan(31, 1, FULL_BALANCED)
    assert caught.value.required == math.comb(62, 31)
    assert caught.value.budget == QUERY_BUDGET
    assert str(caught.value) == (
        f"full_B decoding needs {math.comb(62, 31)} queries per call (budget {QUERY_BUDGET})")
    points, _, needed = query_plan(31, 1, ZERO_TAIL_ONLY)
    assert len(points) == len(needed) == 32
    # C(24, 12) is the smallest full count past the budget, C(22, 11) fits
    assert math.comb(22, 11) <= QUERY_BUDGET
    with pytest.raises(BudgetExceededError) as caught:
        query_plan(12, 1, FULL_BALANCED)
    assert caught.value.required == math.comb(24, 12)
    # at k = 2^31 - 1 the full count passes 10^100 after a few factors
    with pytest.raises(BudgetExceededError, match=r"needs more than 10\^100 queries"):
        query_plan(2**31 - 1, 1, FULL_BALANCED)
    with pytest.raises(BudgetExceededError) as caught:
        query_plan(2**31 - 1, 1, ZERO_TAIL_ONLY)
    assert caught.value.required == 2**31


def test_query_plan_checks_its_bit_scan_before_building():
    # C(k+1, 1) = 499,980 reduced points fit QUERY_BUDGET, but each has
    # k = 499,979 ones among 2k bits: the plan is refused before any is built
    assert 499980 <= QUERY_BUDGET
    with pytest.raises(BudgetExceededError) as caught:
        query_plan(499979, 1, ZERO_TAIL_ONLY)
    assert caught.value.required == 2 * 499979 * 499980
    assert caught.value.budget == PLAN_WORK_BUDGET
    assert str(caught.value) == (f"B_prime_only decoding scans {2 * 499979 * 499980} bit "
                                 f"positions to plan its queries (budget {PLAN_WORK_BUDGET})")
    # the largest full plan within QUERY_BUDGET, k = 11, fits the scan bound
    assert math.comb(24, 12) > QUERY_BUDGET >= math.comb(22, 11)
    assert 2 * 11 * math.comb(22, 11) <= PLAN_WORK_BUDGET
