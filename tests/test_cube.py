import io
import itertools
import random
from fractions import Fraction

import pytest

from cube_util import constant_function, distance, random_function
from gridcode.cube import (
    CubeFunction,
    apply_restriction,
    corrupt,
    query_mask,
    read_truth_table,
    restriction_query_masks,
)
from gridcode.field import PrimeField
from gridcode.poly import random_poly
from reference_sampler import restriction_from_phi

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_distance_identity():
    f = random_function(4, F3, random.Random(0))
    assert distance(f, f) == 0


def test_distance_single_point():
    f = constant_function(3, F2, 0)
    g = CubeFunction(3, F2, [1, 0, 0, 0, 0, 0, 0, 0])
    assert distance(f, g) == Fraction(1, 8)


def test_distance_between_codewords_at_least_2_to_minus_d():
    # Distinct multilinear polynomials of degree <= d disagree on at least a
    # 2^-d fraction of the cube.
    rng = random.Random(1)
    for _ in range(30):
        a = random_poly(5, 2, F3, rng)
        b = random_poly(5, 2, F3, rng)
        if a == b:
            continue
        assert distance(a.truth_table(), b.truth_table()) >= Fraction(1, 4)


def test_distance_shape_mismatch():
    with pytest.raises(ValueError):
        distance(constant_function(2, F2), constant_function(3, F2))
    with pytest.raises(ValueError):
        distance(constant_function(2, F2), constant_function(2, F3))


def test_distance_is_a_metric_small():
    rng = random.Random(2)
    fs = [random_function(3, F3, rng) for _ in range(6)]
    for f in fs:
        for g in fs:
            d_fg = distance(f, g)
            assert d_fg == distance(g, f)
            assert (d_fg == 0) == (f == g)
            for h in fs:
                assert d_fg <= distance(f, h) + distance(h, g)


def test_corrupt_zero_is_identity():
    f = random_function(5, F3, random.Random(3))
    assert corrupt(f, 0, random.Random(4)) == f


def test_corrupt_single_flip():
    f = random_function(5, F2, random.Random(5))
    g = corrupt(f, Fraction(1, 32), random.Random(6))
    assert distance(f, g) == Fraction(1, 32)


def test_corrupt_exact_flip_count():
    f = random_function(10, F3, random.Random(7))
    g = corrupt(f, Fraction(5, 100), random.Random(8))
    assert distance(f, g) == Fraction(51, 1024)  # floor(0.05 * 1024) = 51


def test_corrupt_changes_to_different_value():
    f = constant_function(6, F3, 1)
    g = corrupt(f, 1, random.Random(9))
    assert all(v != 1 for v in g.values)


def test_apply_identity_restriction():
    f = random_function(4, F3, random.Random(10))
    assert apply_restriction(f, restriction_from_phi(4, 4, range(4), 0)) == f


def test_apply_restriction_and_examples():
    f_and = CubeFunction(2, F2, [0, 0, 0, 1])
    # x1 = x2 = y: g(0) = AND(0,0) = 0, g(1) = AND(1,1) = 1
    r = restriction_from_phi(2, 1, [0, 0], 0b00)
    g = apply_restriction(f_and, r)
    assert g.values == [0, 1]
    # with both inputs complemented the table flips
    r = restriction_from_phi(2, 1, [0, 0], 0b11)
    g = apply_restriction(f_and, r)
    assert g.values == [1, 0]


def test_apply_restriction_dimension_mismatch():
    f = constant_function(3, F2)
    with pytest.raises(ValueError):
        apply_restriction(f, restriction_from_phi(2, 1, [0, 0], 0))


def test_restriction_query_masks_match_pointwise():
    rng = random.Random(12)
    r = restriction_from_phi(6, 3, [rng.randrange(3) for _ in range(6)], rng.getrandbits(6))
    masks = restriction_query_masks(r)
    for y in range(8):
        assert masks[y] == query_mask(r, y)


def test_query_point_uniform_for_random_shift():
    # With phi drawn i.i.d. and the shift uniform, the query x(y) is uniform:
    # exhaustive over all (phi, shift) at n=4, k=2 for a weight-1 point y.
    n, k, y = 4, 2, 0b01
    counts = {m: 0 for m in range(1 << n)}
    for phi in itertools.product(range(k), repeat=n):
        for shift in range(1 << n):
            r = restriction_from_phi(n, k, phi, shift)
            counts[query_mask(r, y)] += 1
    total = (k**n) * (1 << n)
    assert set(counts.values()) == {total // (1 << n)}


def test_truth_table_round_trip():
    f = random_function(4, F3, random.Random(13))
    text = "4 3\n" + " ".join(map(str, f.values)) + "\n"
    assert read_truth_table(io.StringIO(text)) == f


def test_truth_table_format_shape():
    assert read_truth_table(io.StringIO("1 2\n1 0\n")) == CubeFunction(1, F2, [1, 0])


def test_cube_function_validation():
    with pytest.raises(ValueError):
        CubeFunction(2, F2, [0, 1, 0])  # wrong length
    with pytest.raises(ValueError):
        CubeFunction(0, F2, [])
    with pytest.raises(ValueError):
        CubeFunction(31, F2, [])


def test_apply_restriction_consults_2k_points():
    rng = random.Random(14)
    f = random_function(7, F2, rng)
    r = restriction_from_phi(7, 3, [0, 1, 2, 0, 1, 2, 0], rng.getrandbits(7))
    masks = restriction_query_masks(r)
    assert len(masks) == 8 and len(set(masks)) == 8


@pytest.mark.parametrize("body", ["0 1 3 1", "0 1 -1 1", "0 1 9 1"])
def test_read_truth_table_rejects_out_of_range_residues(body):
    with pytest.raises(ValueError, match="residue"):
        read_truth_table(io.StringIO("2 3\n" + body + "\n"))
    # The library constructor keeps reducing raw values mod p.
    assert CubeFunction(2, F3, [int(v) for v in body.split()]).values[2] in range(3)


def test_values_normalised_to_residues():
    mixed = CubeFunction(2, F5, [2, 7, -1, 4]).values
    assert mixed == [2, 2, 4, 4] and all(type(v) is int for v in mixed)
    assert CubeFunction(2, F5, [-6, 5, 12, 4]).values == [4, 0, 2, 4]
    assert CubeFunction(2, F5, [0, 1, 2, 3]).values == [0, 1, 2, 3]


@pytest.mark.parametrize("p", [2, 5, 127, 131, 251, 257])
def test_values_reduce_mod_p_around_every_check_edge(p):
    # the byte pack fails outside [0, 256) and the byte filter at p, so every
    # value near 0, p and 256 takes the reduction
    edges = sorted({e + s for e in (0, p - 1, p, 255, 256, -p, -256) for s in (-1, 0, 1)})
    values = edges + [0] * (64 - len(edges))
    assert CubeFunction(6, PrimeField(p), list(values)).values == [v % p for v in values]
    for v in edges:
        single = [0] * 7 + [v]
        reduced = CubeFunction(3, PrimeField(p), single).values
        assert reduced == [0] * 7 + [v % p] and type(reduced[7]) is int


@pytest.mark.parametrize("p, bad", [(2, 2), (3, 3), (131, 131), (251, 251), (251, 256),
                                    (257, 257), (257, 10**30)])
def test_read_truth_table_rejects_every_residue_from_p_on(p, bad):
    with pytest.raises(ValueError, match=rf"^residue {bad} is outside \[0, {p}\)$"):
        read_truth_table(io.StringIO(f"1 {p}\n{p - 1} {bad}\n"))
    assert read_truth_table(io.StringIO(f"1 {p}\n{p - 1} 0\n")).values == [p - 1, 0]


@pytest.mark.parametrize(
    "text, token",
    [
        ("1 13\n1_1 3\n", "1_1"),
        ("1 13\n3 \uff13\n", "\uff13"),
        ("1 13\n+1 3\n", "+1"),
        ("1 13\n-0 3\n", "-0"),
        ("1 13\n1 0x1\n", "0x1"),
        ("1 13\n1 \u00b2\n", "\u00b2"),
        ("1 1_3\n1 3\n", "1_3"),
        ("\uff11 13\n1 3\n", "\uff11"),
        ("+1 13\n1 3\n", "+1"),
    ],
)
def test_read_truth_table_accepts_only_ascii_decimal_tokens(text, token):
    with pytest.raises(ValueError, match="not an ASCII decimal") as info:
        read_truth_table(io.StringIO(text))
    assert repr(token) in str(info.value)


def test_read_truth_table_keeps_leading_zeros():
    f = read_truth_table(io.StringIO("01 013\n00 12\n"))
    assert (f.n, f.field.p, f.values) == (1, 13, [0, 12])
