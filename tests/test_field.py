import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcode.field import (
    ExactRational,
    FieldElement,
    PrimeField,
    binomial_sum,
    decoder_constant,
    is_prime,
    lucas_binomial,
)


def test_add_example_mod_5():
    f = PrimeField(5)
    assert (f.element(3) + f.element(4)).residue == 2


def test_inverse_example_mod_5():
    f = PrimeField(5)
    assert f.element(2).inverse().residue == 3


def test_inverse_times_self_is_one_mod_7():
    f = PrimeField(7)
    for x in range(1, 7):
        e = f.element(x)
        assert (e * e.inverse()) == f.one


def test_modulus_mismatch_rejected():
    a = PrimeField(5).element(1)
    b = PrimeField(7).element(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_inverse_of_zero_rejected():
    f = PrimeField(11)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_non_prime_moduli_rejected():
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # Mersenne prime below the cap


def test_field_axioms_exhaustive_small_primes():
    for p in (2, 3, 5, 7, 11):
        f = PrimeField(p)
        elems = [f.element(v) for v in range(p)]
        for a in elems:
            assert a + f.zero == a
            assert a * f.one == a
            assert a + (-a) == f.zero
            if a.residue:
                assert a * a.inverse() == f.one
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 30000), st.integers(0, 30000))
@settings(max_examples=60, deadline=None)
def test_lucas_matches_direct_binomial(a, b):
    for p in (2, 3, 7):
        assert lucas_binomial(a, b, p) == math.comb(a, b) % p


def test_lucas_examples():
    assert lucas_binomial(3, 2, 2) == 1  # C(3,2) = 3
    assert lucas_binomial(2, 1, 2) == 0  # C(2,1) = 2
    for a in (0, 1, 5, 100, 10**9):
        for p in (2, 3, 5):
            assert lucas_binomial(a, 0, p) == 1


def test_lucas_full_range_small():
    for p in (2, 3, 5, 7):
        for a in range(61):
            for b in range(a + 1):
                assert lucas_binomial(a, b, p) == math.comb(a, b) % p


def test_lucas_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lucas_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        lucas_binomial(3, 2, 4)


def test_decoder_constant_examples():
    k, c = decoder_constant(1, 2)
    assert (k, c.residue) == (2, 1)  # C(3,2) = 3 = 1 mod 2
    k, c = decoder_constant(2, 3)
    assert (k, c.residue) == (3, 1)  # C(5,3) = 10 = 1 mod 3
    k, c = decoder_constant(1, 5)
    assert (k, c.residue) == (5, 1)  # C(6,5) = 6 = 1 mod 5


def test_decoder_constant_vanishing_pattern():
    # c != 0 always, and the shifted binomials vanish mod p for 1 <= i <= d.
    for p in (2, 3, 5):
        for d in range(11):
            k, c = decoder_constant(d, p)
            assert k > d and c.residue != 0
            assert math.comb(d + k, k) % p == c.residue
            for i in range(1, d + 1):
                assert math.comb(d + k - i, k - i) % p == 0


def test_exact_rational_is_reduced():
    q = ExactRational(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)
    assert ExactRational(0, 5).denominator == 1


def test_binomial_sum():
    assert binomial_sum(4, 1) == 5
    assert binomial_sum(6, 2) == 22
    assert binomial_sum(5, 5) == 32
    assert binomial_sum(5, 9) == 32


def test_element_immutable_and_hashable():
    f = PrimeField(5)
    e = f.element(2)
    with pytest.raises(AttributeError):
        e.residue = 3
    assert len({f.element(1), f.element(1), f.element(2)}) == 2


def test_is_prime_basics():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
