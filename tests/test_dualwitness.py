import itertools
import math

import pytest

from gridcode.dualwitness import (
    CapacityError,
    SEPARATION_BUDGET,
    DualWitness,
    build_witness,
    default_window,
    greedy_code,
    hamming,
    asymptotic_window,
    verify_witness,
)
from gridcode.field import PrimeField, binomial_sum
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
    with pytest.raises(CapacityError) as info:
        greedy_code(4, 2, 2, 10)
    assert 0 < info.value.found < 10


def test_greedy_validates_window():
    with pytest.raises(ValueError):
        greedy_code(4, 0, 3, 2)
    with pytest.raises(ValueError):
        greedy_code(4, 3, 2, 2)
    with pytest.raises(ValueError):
        greedy_code(4, 1, 4, 2)


def test_greedy_capacity_meets_ball_bound():
    # First-fit packing with window [lo, k-lo] reaches at least
    # 2^k / (2 C(k,<=lo)) points.
    for k in (8, 10, 12):
        lo, hi = asymptotic_window(k)
        try:
            found = len(greedy_code(k, lo, hi, 1 << k))
        except CapacityError as exc:
            found = exc.found
        bound = (1 << k) / (2 * binomial_sum(k, lo))
        assert found >= bound


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


def test_verify_separation_modes():
    assert verify_witness(build_witness(4, 1, F2)).separation_mode == "exhaustive"
    assert verify_witness(build_witness(6, 2, F2)).separation_mode == "implied"


@pytest.mark.parametrize("p", [2, 3])
def test_separation_mode_follows_the_code_budget(p):
    # the d = 1 codes of the last k that fits SEPARATION_BUDGET and of the
    # next k: the scan is exhaustive exactly when the p^(k+1) codewords fit
    last = {2: 18, 3: 11}[p]
    for k in (last, last + 1):
        fits = p ** binomial_sum(k, 1) <= SEPARATION_BUDGET
        assert fits == (k == last)
        report = verify_witness(build_witness(k, 1, PrimeField(p)))
        assert report.separation_mode == ("exhaustive" if fits else "implied")
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
