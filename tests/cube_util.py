"""Truth-table helpers shared by the test suite: constant and uniformly
random ``CubeFunction`` tables, and the exact distance between two tables."""

from __future__ import annotations

from fractions import Fraction

from gridcode.cube import CubeFunction
from gridcode.field import PrimeField


def constant_function(n: int, field: PrimeField, value: int = 0) -> CubeFunction:
    return CubeFunction(n, field, [value % field.p] * (1 << n))


def random_function(n: int, field: PrimeField, rng) -> CubeFunction:
    """One ``rng.randrange(p)`` per point, in mask order."""
    return CubeFunction(n, field, [rng.randrange(field.p) for _ in range(1 << n)])


def distance(f: CubeFunction, g: CubeFunction) -> Fraction:
    """Fraction of points where f and g disagree, exact."""
    if f.n != g.n or f.field.p != g.field.p:
        raise ValueError("distance requires matching dimension and modulus")
    diff = sum(a != b for a, b in zip(f.values, g.values))
    return Fraction(diff, 1 << f.n)
