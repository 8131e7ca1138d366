"""Digests of exact results on fixed inputs.

Each digest covers a computation whose code is shared with another one: the
row reduction behind dual witnesses and span coefficients over F_p and Q
(Cramer certificates included), the pattern
rows of a spanning subset, the value table of a hard function, and the block
scan that answers full-cube ``exact_delta_d`` outside the transform cases.
The digests were recorded before those paths were merged, so they show that
every result, tie-breaks and certificates included, is unchanged.
"""

import hashlib
import random

import numpy as np

from gridcode.cube import CubeFunction
from gridcode.dualwitness import build_witness
from gridcode.errors import CapacityError
from gridcode.field import PrimeField
from gridcode.lowerbound import (
    _rows_from_key,
    _solve_pattern_system,
    sample_balanced_vectors,
    sample_hard_function,
    t_span_contains,
)
from gridcode.oracle import CodeEnumeration, exact_delta_d

F3 = PrimeField(3)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_dual_witnesses_pinned():
    lines = []
    for k in range(3, 8):
        for d in range(3):
            for p in (2, 3, 5):
                try:
                    w = build_witness(k, d, PrimeField(p))
                except CapacityError:
                    continue
                lines.append(f"{k} {d} {p} {w.support} {w.weights}")
    assert len(lines) == 33
    assert _digest(lines) == "1b6e78173eff2d95bcd4815c218bb4e9d3afe3a3dcd90576e9649bdf5b4d9a41"


def test_pattern_systems_mod_p_pinned():
    lines = []
    for p in (2, 3, 5):
        for affine in (False, True):
            for u in range(1, 4):
                for key in range(1, 1 << (1 << u)):
                    rows = _rows_from_key(key, u)
                    result = _solve_pattern_system(rows, PrimeField(p), affine)
                    lines.append(f"{p} {affine} {u} {key} {result}")
    assert _digest(lines) == "f40348be4d45016ecf623480c11b048f14780637c0ffffa413881398802deb22"


def test_pattern_systems_over_q_pinned():
    lines = []
    solvable = 0
    for affine in (False, True):
        for u in range(1, 4):
            for key in range(1, 1 << (1 << u)):
                rows = _rows_from_key(key, u)
                result = _solve_pattern_system(rows, None, affine)
                solvable += result[0]
                lines.append(f"None {affine} {u} {key} {result}")
    assert (len(lines), solvable) == (546, 129)
    assert _digest(lines) == "3418e1fe4dee5b7583b82c1e88f0902a4aa803c8c73ea3ba1cf62631c8c3ce6a"


def test_span_results_pinned():
    # n = 66 takes the subset-by-subset scan; three thirds of the cube make
    # sure it finds a span there.
    thirds = [((1 << 22) - 1) << (22 * i) for i in range(3)]
    lines = []
    found = 0
    for field, affine in ((None, False), (F3, False), (None, True), (F3, True)):
        for n, s, count, t in ((4, 1, 8, 3), (5, 1, 10, 3), (6, 1, 12, 3),
                               (7, 1, 10, 4), (8, 2, 10, 3), (66, 1, 6, 3)):
            for seed in range(4):
                vectors = sample_balanced_vectors(n, s, count, random.Random(1000 * n + seed))
                if n > 64:
                    vectors += thirds
                result = t_span_contains(0, vectors, t, n, field=field, affine=affine)
                found += result.found
                lines.append(f"{field} {affine} {n} {s} {t} {seed} {result}")
    assert found == 52
    assert _digest(lines) == "34a1a9206ceec40162bb591fca2beadbab8c2e21b16c51d84d13cb48ccb07276"


def test_hard_functions_pinned():
    lines = []
    for field in (PrimeField(2), PrimeField(5), PrimeField(101), None):
        for n, s in ((4, 2), (6, 3), (8, 2), (9, 4)):
            hard = sample_hard_function(n, s, field, random.Random(31 * n + s))
            values = tuple(hard.value(m) for m in range(1 << n))
            lines.append(f"{field} {n} {s} {hard.coefficients} {values} {hard.erased_count} "
                         f"{hard.linear_value(0)} {hard.distance_to_linear()}")
    assert _digest(lines) == "d62acc0fa20dc1f089c64490a914763c39f6e068757782faf48b570324a0c927"


def test_full_cube_exact_delta_pinned():
    # Each (n, d, p) has at least one table with several nearest codewords,
    # so the digest pins the tie-break too.
    lines = []
    for n, d, p in ((3, 0, 2), (6, 0, 2), (4, 3, 2), (3, 2, 3), (4, 2, 3)):
        code = CodeEnumeration(n, d, PrimeField(p))
        matrix = np.concatenate([block for _, block in code.iter_value_blocks(range(1 << n))])
        ties = 0
        for seed in range(5):
            f = CubeFunction.random(n, PrimeField(p), random.Random(100 * n + 10 * d + seed))
            counts = np.count_nonzero(matrix != np.asarray(f.values)[None, :], axis=1)
            ties += np.count_nonzero(counts == counts.min()) > 1
            delta, nearest = exact_delta_d(f, d)
            lines.append(f"{n} {d} {p} {seed} {delta} {sorted(nearest.coeffs.items())}")
        assert ties >= 1, (n, d, p)
    assert _digest(lines) == "2a6556ec839ff04ddf21641b48ed6c3023c8aa9f220ee543c04eeae9572081b4"
