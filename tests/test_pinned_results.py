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

from cube_util import random_function
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
        for u in range(1, 4):
            for key in range(1, 1 << (1 << u)):
                rows = _rows_from_key(key, u)
                result = _solve_pattern_system(rows, PrimeField(p))
                lines.append(f"{p} False {u} {key} {result}")
    assert _digest(lines) == "f880284f4dd432f269223542158e40cb6136edbbcb32de0cb849e66728411a24"


def test_pattern_systems_over_q_pinned():
    lines = []
    solvable = 0
    for u in range(1, 4):
        for key in range(1, 1 << (1 << u)):
            rows = _rows_from_key(key, u)
            result = _solve_pattern_system(rows, None)
            solvable += result[0]
            lines.append(f"None False {u} {key} {result}")
    assert (len(lines), solvable) == (273, 80)
    assert _digest(lines) == "b0a9cc8134f8d2fade273bb85e7a1cbf38629308fb57a7fc5b9e61ef0bc32531"


def test_span_results_pinned():
    # n = 66 takes the subset-by-subset scan; three thirds of the cube make
    # sure it finds a span there.
    thirds = [((1 << 22) - 1) << (22 * i) for i in range(3)]
    lines = []
    found = 0
    for field in (None, F3):
        for n, s, count, t in ((4, 1, 8, 3), (5, 1, 10, 3), (6, 1, 12, 3),
                               (7, 1, 10, 4), (8, 2, 10, 3), (66, 1, 6, 3)):
            for seed in range(4):
                vectors = sample_balanced_vectors(n, s, count, random.Random(1000 * n + seed))
                if n > 64:
                    vectors += thirds
                result = t_span_contains(0, vectors, t, n, field=field)
                found += result.found
                lines.append(f"{field} False {n} {s} {t} {seed} {result}")
    assert found == 36
    assert _digest(lines) == "0687d5dc6ada440d6b453a3a4bd1eb0e8cf057fd1e73457ce5fb8db97a6f75c4"


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
            f = random_function(n, PrimeField(p), random.Random(100 * n + 10 * d + seed))
            counts = np.count_nonzero(matrix != np.asarray(f.values)[None, :], axis=1)
            ties += np.count_nonzero(counts == counts.min()) > 1
            delta, nearest = exact_delta_d(f, d)
            lines.append(f"{n} {d} {p} {seed} {delta} {sorted(nearest.coeffs.items())}")
        assert ties >= 1, (n, d, p)
    assert _digest(lines) == "2a6556ec839ff04ddf21641b48ed6c3023c8aa9f220ee543c04eeae9572081b4"
