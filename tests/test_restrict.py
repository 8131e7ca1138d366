import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gridcode.cube import corrupt
from gridcode.errors import BudgetExceededError
from gridcode.field import PrimeField
from gridcode.poly import random_poly
from gridcode.restrict import (
    BUCKET_PROCESSES,
    Restriction,
    direct_restriction,
    enumerate_cycle_buckets,
    exact_bucket_distribution,
    min_bucket_tail,
    sample_buckets_direct_sizes,
    sample_restriction_direct,
    sample_restriction_recursive,
    _sample_cycle,
    uniform_buckets,
)
from gridcode.tester import TesterParams, run_test_once
from reference_sampler import (
    reference_cycle,
    reference_recursive,
    reference_uniform_buckets,
    restriction_from_phi,
)
from stats_util import chi_square_goodness_of_fit, chi_square_homogeneity


def test_restriction_allows_empty_buckets():
    r = Restriction(3, [0b111, 0], 0b101)
    assert (r.k, r.bucket_sizes()) == (2, (0, 3))
    assert r == restriction_from_phi(3, 2, [0, 0, 0], 0b101)


@pytest.mark.parametrize("buckets", [[0b011, 0b110], [0b111, 0b001], [0b111, 0b111, 0]])
def test_restriction_rejects_overlapping_masks(buckets):
    with pytest.raises(ValueError, match="disjoint and cover"):
        Restriction(3, buckets, 0)


@pytest.mark.parametrize("buckets", [[0b001, 0b010], [0b0111, 0b1000], [0b111, -1], [], [0]])
def test_restriction_rejects_masks_that_do_not_cover_the_variables(buckets):
    with pytest.raises(ValueError, match="disjoint and cover|positive"):
        Restriction(3, buckets, 0)


@pytest.mark.parametrize("shift", [-1, 0b1000])
def test_restriction_rejects_a_shift_out_of_range(shift):
    with pytest.raises(ValueError, match="shift mask out of range"):
        Restriction(3, [0b011, 0b100], shift)


def test_uniform_buckets_are_the_randrange_map():
    # the same masks, and the same generator state after, as one
    # randrange(k) per variable in order
    for k in range(1, 41):
        for seed in range(5):
            ours, reference = random.Random(seed), random.Random(seed)
            phi = [reference.randrange(k) for _ in range(30)]
            assert uniform_buckets(30, k, ours) == list(restriction_from_phi(30, k, phi, 0).buckets)
            assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("k", range(1, 10))
def test_direct_draws_make_the_calls_of_random(k):
    # uniform_buckets and the cycle draw against random's own randrange and
    # shuffle: the same output and the same generator state after
    for seed in range(200):
        size = k + seed % (41 - k)
        ours, reference = random.Random(seed), random.Random(seed)
        assert uniform_buckets(size, k, ours) == reference_uniform_buckets(size, k, reference)
        assert ours.getstate() == reference.getstate()
        assert _sample_cycle(size, k, ours) == reference_cycle(size, k, reference)
        assert ours.getstate() == reference.getstate()


def test_recursive_needs_strict_reduction():
    with pytest.raises(ValueError):
        sample_restriction_recursive(3, 3, random.Random(0))


def test_recursive_single_round():
    r = sample_restriction_recursive(3, 2, random.Random(1))
    assert r.bucket_sizes() == (1, 2)


def test_recursive_deterministic_and_valid():
    for seed in range(20):
        a = sample_restriction_recursive(8, 3, random.Random(seed))
        b = sample_restriction_recursive(8, 3, random.Random(seed))
        assert a == b
        assert all(a.buckets)  # every output variable has a preimage


def test_direct_single_round_shape():
    counts = Counter()
    for seed in range(200):
        r = sample_restriction_direct(4, 3, random.Random(seed))
        counts[r.bucket_sizes()] += 1
    assert set(counts) == {(1, 1, 2)}


def test_direct_deterministic():
    for seed in range(20):
        a = sample_restriction_direct(9, 4, random.Random(seed))
        b = sample_restriction_direct(9, 4, random.Random(seed))
        assert a == b
        assert all(a.buckets)  # every output variable has a preimage


def test_direct_restriction_explicit_choices():
    # Two variables, position 1 terminal at output 0 after one substitution.
    r = direct_restriction(2, 1, [1, 1], [0, 1], [0, 0])
    assert r.buckets == (0b11,)
    # variable 0 (position 0): shift a_0 = 1; variable 1 (position 1):
    # a_1 xor a_0 = 0.
    assert r.shift_mask == 0b01


def test_direct_restriction_has_the_sizes_of_the_sizes_sampler():
    # The full parent-process restriction draws its shift bits and variable
    # order first and then the parents that sample_buckets_direct_sizes
    # draws, so from one seed both give the same sorted bucket sizes.
    for seed in range(50):
        rng = random.Random(seed)
        r = sample_restriction_direct(9, 4, rng)
        sizes_rng = random.Random(seed)
        for _ in range(9):
            sizes_rng.getrandbits(1)
        sizes_rng.shuffle(list(range(9)))
        assert r.bucket_sizes() == sample_buckets_direct_sizes(9, 4, sizes_rng)
        assert rng.getstate() == sizes_rng.getstate()


def test_exact_distribution_examples():
    assert exact_bucket_distribution(2, 2) == {(1, 1): Fraction(1)}
    assert exact_bucket_distribution(3, 2) == {(1, 2): Fraction(1)}
    dist = exact_bucket_distribution(5, 2)
    assert dist == {(1, 4): Fraction(1, 2), (2, 3): Fraction(1, 2)}


def test_exact_distribution_budget():
    with pytest.raises(BudgetExceededError):
        exact_bucket_distribution(40, 2)


@pytest.mark.parametrize("process", sorted(BUCKET_PROCESSES))
def test_exact_distribution_budget_names_a_count_past_10_to_100(process):
    # every process has more than 10^100 outcomes at r = 2000, a count that
    # Python would not print in full
    with pytest.raises(BudgetExceededError, match=r"needs more than 10\^100 cases "
                                                  r"\(budget 10000000\)$") as caught:
        exact_bucket_distribution(2000, 2, process)
    assert caught.value.required is None and caught.value.budget == 10**7
    # a count of at most 100 digits is given exactly: 2 * 3 * ... * 39 parent maps
    with pytest.raises(BudgetExceededError) as caught:
        exact_bucket_distribution(40, 2)
    assert caught.value.required == math.factorial(39)
    assert str(caught.value) == (
        f"parent enumeration needs {math.factorial(39)} cases (budget 10000000)")


def test_three_processes_agree_exactly():
    # The recursive, parent and cycle descriptions induce identical
    # sorted-bucket-size distributions, as exact rationals.
    for n, k in ((5, 2), (6, 3)):
        parent = exact_bucket_distribution(n, k)
        cycle = exact_bucket_distribution(n, k, "cycle")
        recursive = exact_bucket_distribution(n, k, "recursive")
        assert parent == cycle == recursive
        assert sum(parent.values()) == 1


def test_processes_agree_statistically():
    rng = random.Random(77)
    n, k, samples = 8, 3, 20000
    rec = Counter()
    for _ in range(samples):
        r = sample_restriction_recursive(n, k, rng)
        rec[r.bucket_sizes()] += 1
    dire = Counter()
    for _ in range(samples):
        dire[sample_buckets_direct_sizes(n, k, rng)] += 1
    assert chi_square_homogeneity(rec, dire) > 0.01


@pytest.mark.parametrize("process", sorted(BUCKET_PROCESSES))
def test_every_process_gives_singletons_when_r_equals_k(process):
    sample_sizes = BUCKET_PROCESSES[process][0]
    for k in (1, 2, 4):
        assert exact_bucket_distribution(k, k, process) == {(1,) * k: Fraction(1)}
        assert sample_sizes(k, k, random.Random(k)) == (1,) * k


@pytest.mark.parametrize("process", sorted(BUCKET_PROCESSES))
def test_sizes_sampler_fits_exact_distribution(process):
    sample_sizes = BUCKET_PROCESSES[process][0]
    rng = random.Random(63)
    counts = Counter(sample_sizes(6, 3, rng) for _ in range(20000))
    assert sum(counts.values()) == 20000
    exact = exact_bucket_distribution(6, 3, process)
    assert chi_square_goodness_of_fit(counts, exact) > 0.01


def test_cycle_k2_first_bucket_uniform():
    # With two buckets the first bucket size is uniform on 1..r-1: exact
    # labelled enumeration at r = 5.
    marginal = Counter()
    for sizes, weight in enumerate_cycle_buckets(5, 2):
        marginal[sizes[0]] += weight
    assert marginal == {1: Fraction(1, 4), 2: Fraction(1, 4),
                        3: Fraction(1, 4), 4: Fraction(1, 4)}


def test_cycle_matches_parent_exactly():
    for r, k in ((5, 2), (6, 3)):
        assert exact_bucket_distribution(r, k, "cycle") == exact_bucket_distribution(r, k)


def test_min_bucket_tail_trivial_region():
    assert min_bucket_tail(8, 2, 10, random.Random(5)) == (1.0, 0.0)


def test_min_bucket_tail_positive_and_stable():
    est1, err1 = min_bucket_tail(64, 2, 20000, random.Random(6))
    est2, err2 = min_bucket_tail(64, 2, 20000, random.Random(7))
    assert est1 > 0 and est2 > 0
    assert abs(est1 - est2) <= 3 * (err1**2 + err2**2) ** 0.5
    est3, err3 = min_bucket_tail(200, 4, 20000, random.Random(8))
    est4, err4 = min_bucket_tail(200, 4, 20000, random.Random(9))
    assert est3 > 0 and est4 > 0
    assert abs(est3 - est4) <= 3 * (err3**2 + err4**2) ** 0.5


def test_direct_query_point_uniform_exhaustive():
    # For a fixed balanced point y, the parent-process restriction maps it to
    # a uniform query: exhaustive over every (shift, order, parent) choice at
    # n = 4, k = 2.
    from gridcode.cube import query_mask

    n, k, y = 4, 2, 0b01
    counts = Counter()
    total = 0
    for shift_bits in itertools.product((0, 1), repeat=n):
        for perm in itertools.permutations(range(n)):
            for parents_tail in itertools.product(range(2), range(3)):
                parents = [0, 0, parents_tail[0], parents_tail[1]]
                r = direct_restriction(n, k, list(shift_bits), list(perm), parents)
                counts[query_mask(r, y)] += 1
                total += 1
    assert set(counts.values()) == {total // (1 << n)}


@pytest.mark.parametrize("process", sorted(BUCKET_PROCESSES))
@pytest.mark.parametrize("r, k", [(3, 4), (0, 0), (5, 0), (2, -1)])
def test_sizes_only_samplers_reject_bad_arguments(process, r, k):
    with pytest.raises(ValueError, match="need r >= k >= 1"):
        BUCKET_PROCESSES[process][0](r, k, random.Random(0))
    with pytest.raises(ValueError, match="need r >= k >= 1"):
        exact_bucket_distribution(r, k, process)
    with pytest.raises(ValueError, match="need r >= k >= 1"):
        min_bucket_tail(r, k, 10, random.Random(0))


# --- the recursive sampler against its alias-chasing reference -------------

def test_first_pair_makes_the_calls_of_sample():
    # With k = m - 1 the sampler draws one pair from range(m): both branches
    # of CPython's Random.sample, the pool up to 21 elements and redraws above.
    for m in range(2, 41):
        for seed in range(500):
            ours, reference = random.Random(seed), random.Random(seed)
            restriction = sample_restriction_recursive(m, m - 1, ours)
            assert restriction == reference_recursive(m, m - 1, reference)[0]
            assert ours.getstate() == reference.getstate()


def test_recursive_sampler_matches_reference():
    for n in range(3, 41):
        for k in sorted({1, 2, 4, n // 2, n - 1} - {0}):
            if k >= n:
                continue
            for seed in range(8):
                ours, reference = random.Random(seed), random.Random(seed)
                restriction = sample_restriction_recursive(n, k, ours)
                assert restriction == reference_recursive(n, k, reference)[0]
                assert ours.getstate() == reference.getstate()
                assert all(restriction.buckets)


@pytest.mark.parametrize("k", (4, 6))
def test_run_test_once_transcripts_match_reference_sampler(k, monkeypatch):
    rng = random.Random(16)
    f = corrupt(random_poly(16, 1, PrimeField(2), rng).truth_table(), Fraction(1, 50), rng)
    params = TesterParams(1, k)

    def runs():
        for seed in range(2000):
            rng = random.Random(seed)
            yield run_test_once(f, params, rng), hash(rng.getstate())

    ours = list(runs())
    assert 0 < sum(t.accepted for t, _ in ours) < len(ours)
    monkeypatch.setattr("gridcode.tester.sample_restriction_recursive",
                        lambda n, k, rng: reference_recursive(n, k, rng)[0])
    assert ours == list(runs())
