import itertools
import math
import random
from fractions import Fraction

import pytest

from cube_util import constant_function, random_function
from gridcode.cube import apply_restriction, corrupt
from gridcode.field import PrimeField
from gridcode.poly import from_truth_table, random_poly
from gridcode.restrict import sample_restriction_recursive
from gridcode.tester import (
    TesterParams,
    amplified_test,
    entropy,
    estimate_rejection_probability,
    run_test_once,
)
from reference_sampler import reference_recursive, restriction_from_phi

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_entropy_half():
    assert entropy(0.5) == 1.0


def test_entropy_symmetry():
    for x in (0.1, 0.25, 0.33, 0.49):
        assert entropy(x) == pytest.approx(entropy(1 - x), abs=1e-12)


def test_entropy_quarter():
    assert entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            entropy(bad)


def test_desk_params_require_k_above_d():
    with pytest.raises(ValueError):
        TesterParams.desk(2, 2)
    assert TesterParams.desk(2).k == 4


def test_faithful_params_constraints():
    params = TesterParams.faithful(1, 10**6)
    assert params.k == 10**6
    assert entropy(1 / params.M) < 1 / 20
    assert params.ell == math.ceil(math.log2(2 / params.eps1))
    assert params.k >= 100 * math.log2(2 / params.eps1)
    assert params.eps0 == pytest.approx(params.eps1 / (100 * params.ell))
    with pytest.raises(ValueError):
        TesterParams.faithful(1, 30)  # H(1/30) is far above 1/20
    with pytest.raises(ValueError):
        TesterParams.faithful(1, 1000)  # k < 100 log2(2/eps1)


def test_completeness_random_inputs():
    rng = random.Random(20)
    params = TesterParams.desk(2, 4)
    for _ in range(50):
        f = random_poly(9, 2, F3, rng).truth_table()
        transcript = run_test_once(f, params, rng)
        assert transcript.accepted


def test_completeness_exhaustive_tiny():
    # n=5, d=1, k=2, p=2: every degree-<=1 polynomial passes under every
    # reachable restriction.  The verdict depends only on the final (phi,
    # shift) pair, and the recursive process always produces onto maps, so
    # enumerating onto maps with all shifts covers every transcript.
    params = TesterParams.desk(1, 2)
    polys = []
    for bits in itertools.product(range(2), repeat=6):
        coeffs = {mask: bit for mask, bit in zip([0, 1, 2, 4, 8, 16], bits)}
        from gridcode.poly import MultilinearPoly

        polys.append(MultilinearPoly(5, F2, coeffs))
    onto_maps = [
        phi for phi in itertools.product(range(2), repeat=5) if set(phi) == {0, 1}
    ]
    for poly in polys:
        f = poly.truth_table()
        for phi in onto_maps:
            for shift in range(32):
                g = apply_restriction(f, restriction_from_phi(5, 2, phi, shift))
                assert from_truth_table(g).degree() <= params.d


def test_query_complexity_exact():
    rng = random.Random(21)
    params = TesterParams.desk(1, 3)
    for _ in range(30):
        f = random_function(8, F2, rng)
        transcript = run_test_once(f, params, rng)
        assert transcript.query_count == 8 == params.queries_per_run
        assert len(set(transcript.query_masks)) == 8
        assert all(0 <= m < 256 for m in transcript.query_masks)


def test_rejects_far_function_frequently():
    params = TesterParams.desk(1, 3)
    rng = random.Random(22)
    f = corrupt(random_poly(8, 1, F2, rng).truth_table(), Fraction(1, 4), rng)
    rejections = sum(
        not run_test_once(f, params, rng).accepted for _ in range(200)
    )
    assert rejections > 100


def test_restricted_function_matches_polynomial_restriction():
    rng = random.Random(23)
    params = TesterParams.desk(2, 4)
    poly = random_poly(9, 2, F3, rng)
    f = poly.truth_table()
    state = rng.getstate()
    transcript = run_test_once(f, params, rng)
    rng.setstate(state)
    restriction = sample_restriction_recursive(9, params.k, rng)
    expected = apply_restriction(f, restriction)
    assert [f.values[m] for m in transcript.query_masks] == expected.values
    assert transcript.accepted == (from_truth_table(expected).degree() <= params.d)
    # the masks carry the restriction: the shift mask, then one bucket per bit
    masks = transcript.query_masks
    assert masks[0] == restriction.shift_mask
    assert [masks[1 << j] ^ masks[0] for j in range(params.k)] == list(restriction.buckets)


def test_identification_chain_agrees_with_table_restriction():
    # Replaying the reference sampler's merge steps on the polynomial
    # (variable by variable, through identify_variables) must land on the
    # values that run_test_once reads from the truth table, seed for seed.
    from gridcode.poly import identify_variables

    rng = random.Random(230)
    params = TesterParams.desk(2, 3)
    for seed in range(15):
        poly = random_poly(7, 2, F3, rng)
        f = poly.truth_table()
        transcript = run_test_once(f, params, random.Random(seed))
        _, steps, bijection, final_shift = reference_recursive(7, params.k, random.Random(seed))

        alive = list(range(7))
        reduced = poly
        for kept, removed, flip in steps:
            reduced = identify_variables(reduced, alive.index(kept), alive.index(removed), flip)
            alive.remove(removed)

        # final relabel: survivor at position pos feeds output
        # bijection[var], complemented by its final shift bit
        restricted_values = []
        for y in range(1 << params.k):
            x = 0
            for pos, var in enumerate(alive):
                bit = (y >> bijection[var]) & 1
                if bit ^ final_shift[var]:
                    x |= 1 << pos
            restricted_values.append(reduced.evaluate_residue(x))
        assert restricted_values == f.values_at(transcript.query_masks)


def test_amplified_accepts_codewords():
    rng = random.Random(24)
    params = TesterParams.desk(1, 3)
    f = random_poly(8, 1, F2, rng).truth_table()
    for t in (1, 2, 5):
        assert amplified_test(f, params, t, rng)


def test_amplified_rejection_dominates_single_run():
    # With a shared seed, the first amplified iteration replays the single
    # run, so a single-run rejection forces an amplified rejection.
    params = TesterParams.desk(1, 3)
    f = corrupt(random_poly(9, 1, F2, random.Random(25)).truth_table(),
                Fraction(1, 4), random.Random(26))
    single_rejects = amplified_rejects = 0
    for seed in range(300):
        single = run_test_once(f, params, random.Random(seed)).accepted
        amplified = amplified_test(f, params, 3, random.Random(seed))
        if not single:
            single_rejects += 1
            assert not amplified
        if not amplified:
            amplified_rejects += 1
    assert amplified_rejects >= single_rejects > 0


def test_estimate_zero_on_codewords():
    rng = random.Random(27)
    params = TesterParams.desk(1, 3)
    f = random_poly(9, 1, F3, rng).truth_table()
    est = estimate_rejection_probability(f, params, 300, rng)
    assert est.rejections == 0 and est.rate == 0.0 and est.stderr == 0.0


def test_estimate_positive_on_single_flip():
    rng = random.Random(28)
    params = TesterParams.desk(1, 3)
    f = corrupt(random_poly(8, 1, F2, rng).truth_table(), Fraction(1, 256), rng)
    est = estimate_rejection_probability(f, params, 10**4, rng)
    assert est.rejections > 0


def test_estimates_grow_with_corruption():
    rng = random.Random(29)
    params = TesterParams.desk(1, 4)
    rates = []
    for delta in (Fraction(1, 100), Fraction(5, 100), Fraction(10, 100)):
        poly = random_poly(12, 1, F2, rng)
        f = corrupt(poly.truth_table(), delta, rng)
        est = estimate_rejection_probability(f, params, 4000, rng)
        rates.append((est.rate, est.stderr))
    for (lo, lo_err), (hi, hi_err) in zip(rates, rates[1:]):
        assert hi - lo >= 3 * (lo_err**2 + hi_err**2) ** 0.5


def test_run_requires_enough_variables():
    params = TesterParams.desk(1, 4)
    f = constant_function(4, F2)
    with pytest.raises(ValueError):
        run_test_once(f, params, random.Random(0))
