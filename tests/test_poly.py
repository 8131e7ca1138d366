import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_util import constant_function
from gridcode import poly as poly_module
from gridcode.cube import CubeFunction
from gridcode.field import PrimeField
from gridcode.poly import (
    MultilinearPoly,
    from_truth_table,
    identify_variables,
    random_poly,
    subsets_up_to,
    write_poly,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_evaluate_zero_poly():
    z = MultilinearPoly(3, F5, {})
    for x in range(8):
        assert z.evaluate_residue(x) == 0


def test_evaluate_monomial():
    p = MultilinearPoly(2, F2, {0b11: 1})  # X1 * X2
    assert p.evaluate_residue(0b11) == 1
    assert p.evaluate_residue(0b01) == 0


def test_evaluate_affine_mod_5():
    p = MultilinearPoly(1, F5, {0: 1, 1: 2})  # 1 + 2 X1
    assert p.evaluate_residue(0b1) == 3


def test_from_truth_table_constant():
    f = constant_function(3, F5, 4)
    p = from_truth_table(f)
    assert p.coeffs == {0: 4}
    assert p.degree() == 0


def test_from_truth_table_and():
    f = CubeFunction(2, F2, [0, 0, 0, 1])
    assert from_truth_table(f).coeffs == {0b11: 1}


def test_from_truth_table_or_mod_3():
    f = CubeFunction(2, F3, [0, 1, 1, 1])
    # X1 + X2 - X1 X2
    assert from_truth_table(f).coeffs == {0b01: 1, 0b10: 1, 0b11: 2}


def test_degree_examples():
    assert MultilinearPoly(4, F2, {}).degree() == 0
    assert MultilinearPoly(2, F2, {0b11: 1}).degree() == 2


def test_random_poly_degree_bounded_and_deterministic():
    for seed in range(10):
        a = random_poly(8, 3, F3, random.Random(seed))
        b = random_poly(8, 3, F3, random.Random(seed))
        assert a == b
        assert a.degree() <= 3
    assert random_poly(6, 0, F5, random.Random(1)).degree() == 0


def test_random_poly_coefficients_uniform():
    # 10^4 draws at n=8, d=2, p=2: each coefficient is a fair coin; all
    # frequencies must sit within 3 sigma of 5000.
    rng = random.Random(424)
    n_samples = 10**4
    monomials = subsets_up_to(8, 2)
    counts = dict.fromkeys(monomials, 0)
    for _ in range(n_samples):
        p = random_poly(8, 2, F2, rng)
        for mask in p.coeffs:
            counts[mask] += 1
    sigma = (n_samples * 0.25) ** 0.5
    for mask, count in counts.items():
        assert abs(count - n_samples / 2) <= 3 * sigma, (mask, count)


def test_round_trip_exhaustive_tiny():
    # Every function on a small cube corresponds to exactly one multilinear
    # polynomial; both directions are verified by full enumeration.
    for field, n in ((F2, 3), (F3, 2)):
        for values in itertools.product(range(field.p), repeat=1 << n):
            f = CubeFunction(n, field, list(values))
            p = from_truth_table(f)
            assert p.truth_table() == f


def test_round_trip_random_larger():
    rng = random.Random(15)
    for _ in range(100):
        p = random_poly(12, 3, F3, rng)
        assert from_truth_table(p.truth_table()) == p


def test_schwartz_zippel_small_exhaustive():
    # Every nonzero codeword of degree <= d has at least 2^{n-d} nonzero
    # values; by linearity distinct codewords are 2^-d apart.
    from gridcode.oracle import CodeEnumeration

    for field, n, d in ((F2, 4, 2), (F3, 3, 2), (F2, 4, 1), (F3, 4, 1)):
        code = CodeEnumeration(n, d, field)
        for _, block in code.iter_value_blocks(range(1 << n)):
            weights = (block != 0).sum(axis=1)
            nonzero_rows = weights[weights > 0]
            assert (nonzero_rows >= (1 << (n - d))).all()


def test_identify_variables_noop_when_var_absent():
    p = MultilinearPoly(3, F3, {0b001: 2})  # 2 X1, no X3
    q = identify_variables(p, 0, 2, 0)
    assert q.n == 2 and q.coeffs == {0b01: 2}


def test_identify_variables_examples():
    # X1 + X2 with X2 := X1 collapses to 2 X1 = 0 over F_2
    p = MultilinearPoly(2, F2, {0b01: 1, 0b10: 1})
    assert identify_variables(p, 0, 1, 0).coeffs == {}
    # X1 X2 with X2 := 1 - X1 gives X1 - X1^2 = 0 over F_3
    p = MultilinearPoly(2, F3, {0b11: 1})
    assert identify_variables(p, 0, 1, 1).coeffs == {}


def _point_with_identified_bit(y: int, i: int, j: int, b: int) -> int:
    # Insert coordinate j into the shrunken point y, with x_j = b xor x_i.
    low = (1 << j) - 1
    x = (y & low) | ((y & ~low) << 1)
    survivors = [t for t in range(64) if t != j]
    i_new = survivors.index(i) if i > j else i
    bit_i = (y >> i_new) & 1
    if bit_i ^ b:
        x |= 1 << j
    return x


def test_identify_variables_commutes_with_evaluation():
    rng = random.Random(16)
    for n in (3, 4, 5):
        for _ in range(15):
            p = random_poly(n, n, F3, rng)
            i, j = rng.sample(range(n), 2)
            b = rng.getrandbits(1)
            q = identify_variables(p, i, j, b)
            assert q.degree() <= p.degree()
            for y in range(1 << (n - 1)):
                x = _point_with_identified_bit(y, i, j, b)
                assert q.evaluate_residue(y) == p.evaluate_residue(x)


def test_identify_variables_rejects_bad_indices():
    p = MultilinearPoly(3, F2, {0b1: 1})
    with pytest.raises(ValueError):
        identify_variables(p, 1, 1, 0)
    with pytest.raises(ValueError):
        identify_variables(p, 0, 3, 0)


def test_coefficients_validated():
    with pytest.raises(ValueError):
        MultilinearPoly(2, F2, {0b100: 1})  # monomial outside the cube
    p = MultilinearPoly(2, F5, {0b01: 10})  # reduced mod p, zero dropped
    assert p.coeffs == {}


@given(st.integers(0, 2**8 - 1), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_truth_table(table_bits, x):
    values = [(table_bits >> i) & 1 for i in range(8)]
    f = CubeFunction(3, F2, values)
    p = from_truth_table(f)
    assert p.evaluate_residue(x) == f.values[x]


def test_poly_file_format():
    p = MultilinearPoly(3, F3, {0: 2, 0b101: 1})
    buffer = io.StringIO()
    write_poly(p, buffer)
    assert buffer.getvalue() == "3 3\n0:2\n1,3:1\n"


def test_subsets_up_to():
    assert subsets_up_to(3, 1) == [0b000, 0b001, 0b010, 0b100]
    assert len(subsets_up_to(6, 2)) == 22
    # with a least size: the masks of fixed weight, in ascending order
    assert subsets_up_to(4, 2, least=2) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert subsets_up_to(6, 3, least=2) == [m for m in subsets_up_to(6, 3) if m.bit_count() >= 2]


def _reference_zeta(poly):
    """The scalar subset zeta transform: one pass per direction, mod p."""
    p = poly.field.p
    values = [0] * (1 << poly.n)
    for mask, c in poly.coeffs.items():
        values[mask] = c
    for i in range(poly.n):
        bit = 1 << i
        for m in range(1 << poly.n):
            if m & bit:
                values[m] = (values[m] + values[m ^ bit]) % p
    return values


TABLE_PRIMES = [2, 3, 5, 131, 257, 2**31 - 1]


def reference_moebius(values, n, p):
    """The scalar subset Moebius transform: one pass per direction, mod p."""
    coeffs = list(values)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                coeffs[m] = (coeffs[m] - coeffs[m ^ bit]) % p
    return coeffs


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_from_truth_table_matches_reference_moebius(p):
    field = PrimeField(p)
    rng = random.Random(p)
    # n = 13 is past the largest cached pair table
    for n in [*range(1, 10), 13]:
        for values in ([rng.randrange(p) for _ in range(1 << n)], [p - 1] * (1 << n)):
            coeffs = reference_moebius(values, n, p)
            expected = {m: c for m, c in enumerate(coeffs) if c}
            assert from_truth_table(CubeFunction(n, field, values)).coeffs == expected
    assert all(1 << n <= poly_module._PAIR_TABLE_POINTS for n in poly_module._PAIR_TABLES)


def _check_truth_table(poly, points):
    values = poly.truth_table().values
    assert values == _reference_zeta(poly)
    assert all(type(v) is int for v in values)
    for x in points:
        assert values[x] == poly.evaluate_residue(x)


@pytest.mark.parametrize("p", TABLE_PRIMES)
def test_truth_table_matches_reference_zeta(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for n in range(1, 11):
        _check_truth_table(MultilinearPoly(n, field, {}), range(1 << n))
        for d in range(n + 1):
            _check_truth_table(random_poly(n, d, field, rng), range(1 << n))
        # Every coefficient p - 1: the largest intermediate sums.
        full = MultilinearPoly(n, field, {m: p - 1 for m in range(1 << n)})
        _check_truth_table(full, range(1 << n))


@pytest.mark.parametrize("p", TABLE_PRIMES)
def test_truth_table_matches_reference_zeta_n16(p):
    field = PrimeField(p)
    rng = random.Random(1000 + p)
    for d in (1, 2):
        poly = random_poly(16, d, field, rng)
        _check_truth_table(poly, rng.sample(range(1 << 16), 256))
