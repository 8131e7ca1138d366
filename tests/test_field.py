import math

import pytest

from gridcode.decoder import DecoderParams
from gridcode.field import FieldElement, PrimeField, binomial_sum, is_prime


def test_inverse_example_mod_5():
    assert PrimeField(5).inv(2) == 3


def test_inverse_times_self_is_one_mod_7():
    f = PrimeField(7)
    for x in range(1, 7):
        assert x * f.inv(x) % 7 == 1


def test_inverse_of_zero_rejected():
    f = PrimeField(11)
    for zero in (0, 11, -22):
        with pytest.raises(ZeroDivisionError):
            f.inv(zero)


def test_non_prime_moduli_rejected():
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # Mersenne prime below the cap


def test_decoder_constant_examples():
    # k is the smallest power of p above d, and C(d+k, k) is 1 mod p.
    for p, d, k, binomial in ((2, 1, 2, 3), (3, 2, 3, 10), (5, 1, 5, 6)):
        assert DecoderParams.for_degree(p, d).k == k
        assert math.comb(d + k, k) == binomial and binomial % p == 1


def test_binomial_sum():
    assert binomial_sum(4, 1) == 5
    assert binomial_sum(6, 2) == 22
    assert binomial_sum(5, 5) == 32
    assert binomial_sum(5, 9) == 32


def test_element_immutable_and_hashable():
    f = PrimeField(5)
    e = FieldElement(2, f)
    with pytest.raises(AttributeError):
        e.residue = 3
    assert len({FieldElement(1, f), FieldElement(1, f), FieldElement(2, f)}) == 2


def test_is_prime_basics():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
