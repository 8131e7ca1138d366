"""Truth tables of functions {0,1}^n -> F_p, indexed by bitmask.

Convention used throughout the package: the point x in {0,1}^n is the mask m
with bit i of m equal to x_{i+1}, i.e. coordinate 1 is the least significant
bit.  Values are stored as raw residues (ints in [0, p)) for speed.

The tester, the decoder and the tolerant tester read a function only through
``values_at(masks)``, the residues at a sequence of point masks.  ``CubeFunction``
answers it from its table; ``poly.CorruptedPoly`` answers it from a
polynomial and the sparse offsets of ``corruption_offsets``, without a table
of the corrupted function.
"""

from __future__ import annotations

from fractions import Fraction

from .field import PrimeField
from .restrict import Restriction

MAX_VARIABLES = 30


def _to_residues(values: list, p: int) -> list:
    """Reduce a non-empty list of ints to residues in [0, p), in place.

    A list already in range is returned after one C-speed min/max check.
    """
    if 0 <= min(values) and max(values) < p:
        return values
    for i, v in enumerate(values):
        if not 0 <= v < p:
            values[i] = v % p
    return values


class CubeFunction:
    """Dense truth table of a function on the Boolean cube."""

    __slots__ = ("n", "field", "values")

    def __init__(self, n: int, field: PrimeField, values):
        if not 1 <= n <= MAX_VARIABLES:
            raise ValueError(f"n must be in [1, {MAX_VARIABLES}], got {n}")
        values = list(values)
        if len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(values)}")
        self.n = n
        self.field = field
        self.values = _to_residues(values, field.p)

    def values_at(self, masks) -> list[int]:
        """The residues at the given point masks, in order."""
        values = self.values
        return [values[m] for m in masks]

    def __eq__(self, other):
        return (
            isinstance(other, CubeFunction)
            and other.n == self.n
            and other.field.p == self.field.p
            and other.values == self.values
        )

    def __repr__(self):
        return f"CubeFunction(n={self.n}, p={self.field.p})"


def corruption_offsets(n: int, p: int, delta, rng) -> dict[int, int]:
    """Draw floor(delta * 2^n) distinct uniform positions of {0,1}^n, each
    with a uniform nonzero offset in [1, p).

    The random calls are one ``rng.sample`` of the positions, then one
    ``rng._randbelow(p - 1)`` per position in sampled order, the call that
    ``randrange(1, p)`` makes; neither reads a table.
    """
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"n must be in [1, {MAX_VARIABLES}], got {n}")
    if not 0 <= delta <= 1:
        raise ValueError("corruption rate must be in [0, 1]")
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    size = 1 << n
    flips = int(Fraction(delta) * size)
    randbelow = rng._randbelow
    return {pos: 1 + randbelow(p - 1) for pos in rng.sample(range(size), flips)}


def corrupt(f: CubeFunction, delta, rng) -> CubeFunction:
    """Change f at exactly floor(delta * 2^n) distinct uniform positions.

    Each changed position receives a uniform value different from the old
    one, so the distance to f is exactly the flip count over 2^n.
    """
    p = f.field.p
    values = list(f.values)
    for pos, offset in corruption_offsets(f.n, p, delta, rng).items():
        values[pos] = (values[pos] + offset) % p
    return CubeFunction(f.n, f.field, values)


def query_mask(r: Restriction, y: int) -> int:
    """The query point x(y) with x_i(y) = y_{phi(i)} xor a_i, as a mask."""
    x = r.shift_mask
    for j, bucket in enumerate(r.buckets):
        if (y >> j) & 1:
            x ^= bucket
    return x


def restriction_query_masks(r: Restriction) -> list[int]:
    """The query point x(y) for every y in {0,1}^k, as masks indexed by y.

    x_i(y) = y_{phi(i)} xor a_i.  Buckets are disjoint, so x(y) is the shift
    mask xored with the union of the bucket masks of the set bits of y.  The
    list doubles once per bucket j: its second half, the points with bit j
    of y set, is its first half xored with bucket j.
    """
    out = [r.shift_mask]
    for bucket in r.buckets:
        out += [x ^ bucket for x in out]
    return out


def apply_restriction(f: CubeFunction, r: Restriction) -> CubeFunction:
    """Restrict f to k variables: g(y) = f(x(y)).

    Consults exactly 2^k evaluations of f (distinct whenever every output
    variable has a preimage).
    """
    if r.n != f.n:
        raise ValueError(f"restriction expects {r.n} variables, function has {f.n}")
    return CubeFunction(r.k, f.field, f.values_at(restriction_query_masks(r)))


def _decimal(token: str, what: str) -> int:
    """A token of ASCII decimal digits as an int; any other token (a sign,
    an underscore, a non-ASCII digit) is a ValueError naming it."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"truth table {what} {token!r} is not an ASCII decimal number")
    return int(token)


def read_truth_table(stream) -> CubeFunction:
    """Read the text format: first line "n p", then the 2^n residues in mask
    order.  Every token must be ASCII decimal digits and every residue must
    lie in [0, p)."""
    header = stream.readline().split()
    if len(header) != 2:
        raise ValueError("truth table header must be 'n p'")
    n, p = (_decimal(t, "header token") for t in header)
    tokens = stream.read().split()
    field = PrimeField(p)
    values = [_decimal(t, "residue") for t in tokens]
    for v in values:
        if not 0 <= v < p:
            raise ValueError(f"residue {v} is outside [0, {p})")
    return CubeFunction(n, field, values)
