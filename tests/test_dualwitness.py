import itertools
import random

import pytest

from gridcode.dualwitness import (
    CapacityError,
    DualWitness,
    build_witness,
    default_window,
    greedy_code,
    hamming,
    asymptotic_window,
    verify_witness,
)
from gridcode.field import PrimeField, binomial_sum
from gridcode.oracle import CodeEnumeration
from gridcode.poly import MultilinearPoly, subsets_up_to

F2 = PrimeField(2)
F3 = PrimeField(3)


def _window_holds(points, lo, hi):
    return all(
        lo <= hamming(a, b) <= hi
        for i, a in enumerate(points)
        for b in points[i + 1:]
    )


def test_greedy_small_window():
    points = greedy_code(4, 1, 3, 3)
    assert len(points) == 3
    assert _window_holds(points, 1, 3)


def test_greedy_single_point():
    assert greedy_code(5, 2, 3, 1) == [0]


def test_greedy_k10_quarter_window():
    points = greedy_code(10, 3, 7, binomial_sum(10, 1) + 1)
    assert len(points) == 12
    assert _window_holds(points, 3, 7)


def test_greedy_capacity_error_reports_found():
    with pytest.raises(CapacityError, match=r"packed only 4 of 10 points"):
        greedy_code(4, 2, 2, 10)


def test_greedy_validates_window():
    with pytest.raises(ValueError):
        greedy_code(4, 0, 3, 2)
    with pytest.raises(ValueError):
        greedy_code(4, 3, 2, 2)
    with pytest.raises(ValueError):
        greedy_code(4, 1, 4, 2)


def test_greedy_capacity_meets_ball_bound():
    # First-fit packing with window [lo, k-lo] reaches at least
    # 2^k / (2 C(k,<=lo)) points: asking for the bound, rounded up, does not
    # exhaust the cube.
    for k in (8, 10, 12):
        lo, hi = asymptotic_window(k)
        bound = -(-(1 << k) // (2 * binomial_sum(k, lo)))
        assert len(greedy_code(k, lo, hi, bound)) == bound


def test_build_witness_d0():
    w = build_witness(3, 0, F2)
    assert len(w.support) == 2
    assert w.weights == (1, 1)
    report = verify_witness(w)
    assert report.orthogonality and report.window and report.size
    assert report.one_point_separation


@pytest.mark.parametrize("d", [-1, -3])
def test_build_witness_rejects_negative_degree(d):
    with pytest.raises(ValueError, match="d must be non-negative"):
        build_witness(4, d, F2)


def test_build_witness_small_cases():
    for k, d, field in ((4, 1, F3), (4, 1, F2), (6, 2, F2), (5, 1, F3)):
        w = build_witness(k, d, field)
        assert len(w.support) <= binomial_sum(k, d) + 1
        assert len(w.support) >= d + 2
        report = verify_witness(w)
        assert report.orthogonality and report.window and report.size, (k, d, field.p, report)
        assert report.one_point_separation, (k, d, field.p, report)


def _scan_separates(support, k, d, field):
    """One-point separation by scanning every codeword: no codeword has
    exactly one nonzero value on the support."""
    code = CodeEnumeration(k, d, field)
    return not any(bool(((block != 0).sum(axis=1) == 1).any())
                   for _, block in code.iter_value_blocks(support))


def test_rank_test_matches_the_codeword_scan():
    rng = random.Random(24)
    outcomes = set()
    for p, k in ((2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (5, 3)):
        field = PrimeField(p)
        for d in range(k + 1):
            if p ** binomial_sum(k, d) > 10**5:
                continue
            for _ in range(20):
                support = tuple(rng.sample(range(1 << k), rng.randint(1, min(1 << k, 12))))
                witness = DualWitness(k, d, field, support, (1,) * len(support), (1, k - 1))
                separated = verify_witness(witness).one_point_separation
                assert separated == _scan_separates(support, k, d, field), (p, k, d, support)
                outcomes.add(separated)
    assert outcomes == {True, False}


def test_separation_does_not_depend_on_the_weights():
    # Separation is a property of the support alone: a tampered weight breaks
    # orthogonality but leaves every one-point pair as it was, also past the
    # 3^13 codewords of a k = 12, d = 1 code over F_3.
    w = build_witness(12, 1, F3)
    weights = list(w.weights)
    weights[0] = weights[0] * 2 % 3
    report = verify_witness(DualWitness(w.k, w.d, w.field, w.support, tuple(weights), w.window))
    assert not report.orthogonality
    assert report.one_point_separation


def test_witness_scaling_invariance():
    w = build_witness(4, 1, F3)
    for scale in (1, 2):
        scaled = DualWitness(
            w.k, w.d, w.field, w.support,
            tuple(weight * scale % 3 for weight in w.weights),
            w.window,
        )
        assert verify_witness(scaled).orthogonality


def test_tampered_weight_breaks_orthogonality():
    w = build_witness(4, 1, F3)
    weights = list(w.weights)
    weights[0] = (weights[0] + 1) % 3
    tampered = DualWitness(w.k, w.d, w.field, w.support, tuple(weights), w.window)
    assert not verify_witness(tampered).orthogonality


def test_window_check_reads_both_ends_of_the_recorded_window():
    # Distance 3 lies above the recorded [1, 2], though min(3, 4 - 3) = 1
    # does not lie below it; distance 2 lies inside.
    outside = DualWitness(4, 0, F2, (0b0000, 0b0111), (1, 1), (1, 2))
    inside = DualWitness(4, 0, F2, (0b0000, 0b0011), (1, 1), (1, 2))
    assert not verify_witness(outside).window
    assert verify_witness(inside).window


def test_orthogonality_is_exact():
    w = build_witness(6, 2, F3)
    for mono in subsets_up_to(6, 2):
        total = sum(
            weight
            for point, weight in zip(w.support, w.weights)
            if point & mono == mono
        )
        assert total % 3 == 0


def test_one_point_separation_literal_pairs_4_1_2():
    # Brute force over all C(32, 2) pairs of degree-<=1 polynomials on 4
    # variables over F_2, independently of the verifier's codeword scan.
    w = build_witness(4, 1, F2)
    monomials = [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]
    polys = [
        MultilinearPoly(4, F2, dict(zip(monomials, bits)))
        for bits in itertools.product(range(2), repeat=5)
    ]
    assert len(polys) == 32
    violations = 0
    for a, b in itertools.combinations(polys, 2):
        differing = [
            y for y in w.support
            if a.evaluate_residue(y) != b.evaluate_residue(y)
        ]
        if len(differing) == 1:
            violations += 1
    assert violations == 0


def test_default_window_fits_inside_cube():
    for k in (3, 4, 8, 16):
        lo, hi = default_window(k)
        assert 0 < lo <= hi < k
