import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gridcode.cube import CubeFunction, corrupt, distance
from gridcode.errors import BudgetExceededError
from gridcode.field import PrimeField
from gridcode import oracle
from gridcode.oracle import (
    CodeEnumeration,
    _min_disagreement,
    _weighted_counts,
    certify_far,
    exact_delta_d,
    nearest_codeword,
)
from gridcode.poly import MultilinearPoly, from_truth_table, random_poly
from gridcode.tolerant import closest_poly_on_set

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_enumeration_size_and_roundtrip():
    code = CodeEnumeration(4, 1, F3)
    assert code.size == 3**5
    for index in (0, 1, 7, code.size - 1):
        assert code.index_of(code.poly_at(index)) == index


@pytest.mark.parametrize("poly, message", [
    (MultilinearPoly(3, F2, {0b011: 1}), "monomial 0b11 has degree 2 > d=1"),
    (MultilinearPoly(5, F2, {0b1: 1}), "polynomial has n=5, code has k=3"),
    (MultilinearPoly(3, F3, {0b1: 2}), "polynomial is over F_3, code is over F_2"),
], ids=["degree", "variables", "field"])
def test_index_of_rejects_polynomials_outside_the_code(poly, message):
    with pytest.raises(ValueError, match=message):
        CodeEnumeration(3, 1, F2).index_of(poly)


def test_enumeration_is_lexicographic_and_duplicate_free():
    code = CodeEnumeration(3, 1, F2)
    vectors = [code.coefficient_vector(i) for i in range(code.size)]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == code.size


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        CodeEnumeration(20, 3, F3)


def test_value_matrix_matches_pointwise_evaluation():
    code = CodeEnumeration(3, 2, F3)
    points = [0, 3, 5, 7]
    matrix = code.value_matrix(points)
    rng = random.Random(50)
    for _ in range(20):
        index = rng.randrange(code.size)
        poly = code.poly_at(index)
        assert [poly.evaluate_residue(pt) for pt in points] == list(matrix[index])


def test_exact_delta_zero_for_codewords():
    rng = random.Random(51)
    poly = random_poly(5, 2, F2, rng)
    delta, nearest = exact_delta_d(poly.truth_table(), 2)
    assert delta == 0
    assert nearest == poly


def test_exact_delta_and_example():
    f = CubeFunction(2, F2, [0, 0, 0, 1])
    delta, nearest = exact_delta_d(f, 1)
    assert delta == Fraction(1, 4)
    assert nearest.degree() <= 1


def test_exact_delta_single_flip():
    rng = random.Random(52)
    poly = random_poly(6, 1, F2, rng)
    f = corrupt(poly.truth_table(), Fraction(1, 64), rng)
    delta, nearest = exact_delta_d(f, 1)
    assert delta == Fraction(1, 64)
    assert nearest == poly  # one flip is inside the unique decoding radius


def test_exact_delta_zero_iff_low_degree():
    rng = random.Random(53)
    for _ in range(10):
        f = CubeFunction.random(4, F3, rng)
        delta, _ = exact_delta_d(f, 2)
        assert (delta == 0) == (from_truth_table(f).degree() <= 2)


def test_certify_far_examples():
    rng = random.Random(54)
    poly = random_poly(5, 1, F2, rng)
    f = poly.truth_table()
    assert certify_far(f, 1, 0)
    assert not certify_far(f, 1, Fraction(1, 32))
    ip = MultilinearPoly(4, F2, {0b0011: 1, 0b1100: 1})
    g = ip.truth_table()
    assert exact_delta_d(g, 1)[0] == Fraction(3, 8)
    assert certify_far(g, 1, Fraction(1, 4))


def test_exact_delta_budget_guard():
    f = CubeFunction.constant(20, F3)
    with pytest.raises(BudgetExceededError):
        exact_delta_d(f, 3)


def test_nearest_tie_break_is_lexicographic():
    # A table equidistant from several codewords must return the one whose
    # coefficient vector is lexicographically smallest.
    table = [1, 0, 0, 1]
    f = CubeFunction(2, F2, table)
    _, nearest = exact_delta_d(f, 1)
    code = CodeEnumeration(2, 1, F2)
    distances = [
        sum(poly.evaluate_residue(pt) != table[pt] for pt in range(4))
        for poly in code
    ]
    first_best = distances.index(min(distances))
    assert code.index_of(nearest) == first_best


def test_codeword_pairs_respect_minimum_distance():
    rng = random.Random(55)
    code = CodeEnumeration(4, 1, F3)
    for _ in range(40):
        a = code.poly_at(rng.randrange(code.size))
        b = code.poly_at(rng.randrange(code.size))
        if a == b:
            continue
        assert distance(a.truth_table(), b.truth_table()) >= Fraction(1, 2)


def test_iterating_code_yields_all_polys():
    code = CodeEnumeration(2, 1, F2)
    polys = list(code)
    assert len(polys) == 8
    assert len({tuple(sorted(p.coeffs.items())) for p in polys}) == 8


def _brute_force_nearest(f):
    """(delta, nearest) by scanning all 2^(n+1) degree-1 codewords over F_2."""
    code = CodeEnumeration(f.n, 1, F2)
    table = np.asarray(f.values, dtype=np.uint8)
    best, count = _min_disagreement(code, range(1 << f.n), table)
    return Fraction(count, 1 << f.n), code.poly_at(best)


def _degree_one_tables():
    """Every table for n <= 3, then seeded tables for 4 <= n <= 10: uniform
    (many ties), planted codewords, and planted codewords with up to half
    of the points flipped."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield CubeFunction(n, F2, [(bits >> x) & 1 for x in range(1 << n)])
    rng = random.Random(60)
    for i in range(210):
        n = 4 + i % 7
        kind = (i // 7) % 3
        if kind == 0:
            yield CubeFunction.random(n, F2, rng)
            continue
        f = random_poly(n, 1, F2, rng).truth_table()
        if kind == 2:
            f = corrupt(f, Fraction(rng.randrange((1 << n) // 2 + 1), 1 << n), rng)
        yield f


def test_degree_one_fast_path_matches_brute_force():
    count = 0
    for f in _degree_one_tables():
        assert exact_delta_d(f, 1) == _brute_force_nearest(f), f.values
        count += 1
    assert count == 4 + 16 + 256 + 210


def test_degree_one_fast_path_keeps_budget_guard():
    f = CubeFunction.constant(10, F2)
    with pytest.raises(BudgetExceededError):
        exact_delta_d(f, 1, budget=(1 << 11) - 1)
    assert exact_delta_d(f, 1, budget=1 << 11)[0] == 0


def _reference_values(code, points):
    """Codeword values by the coefficient-vector product, rows in index order."""
    p = code.field.p
    shape = (p,) * code.dimension
    coeffs = np.stack(np.unravel_index(np.arange(code.size), shape), axis=1)
    values = (coeffs.astype(np.int64) @ code.monomial_matrix(points)) % p
    return values.astype(np.uint8 if p < 256 else np.int64)


@pytest.mark.parametrize(
    "k, d, p",
    [(5, 2, 2), (7, 1, 3), (4, 2, 3), (3, 2, 5), (5, 1, 7), (1, 1, 131), (1, 1, 257)],
)
def test_value_blocks_match_reference(k, d, p):
    code = CodeEnumeration(k, d, PrimeField(p))
    full = list(range(1 << k))
    sparse = full[1::3] if k > 1 else [1]
    for points in (full, sparse):
        expected = _reference_values(code, points)
        for block_rows in (4, None):
            kwargs = {} if block_rows is None else {"block_rows": block_rows}
            starts, blocks = [], []
            for start, block in code.iter_value_blocks(points, **kwargs):
                starts.append(start)
                blocks.append(block)
            assert len(blocks) > 1 or code.size <= 8192
            assert starts == list(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
            rows = np.concatenate(blocks)
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected)


def _weighted_samples(cases=((4, 1, 2, 6), (5, 2, 2, 6), (4, 1, 3, 6), (3, 2, 5, 6),
                             (2, 1, 31, 6), (1, 1, 131, 6)),
                      seed=71, sizes=(3, 12, 28, 60)):
    """Seeded (code, points, table, weights) cases, ``trials`` per (k, d, p):
    multisets drawn with replacement, tables uniform (many ties) or a
    planted codeword with a quarter of the sampled points changed."""
    rng = random.Random(seed)
    for k, d, p, trials in cases:
        field = PrimeField(p)
        code = CodeEnumeration(k, d, field)
        for trial in range(trials):
            sample = [rng.randrange(1 << k) for _ in range(rng.choice(sizes))]
            points = sorted(set(sample))
            weights = np.asarray([sample.count(pt) for pt in points], dtype=np.int64)
            if trial % 2:
                f = random_poly(k, d, field, rng).truth_table()
                values = [f.values[pt] for pt in points]
                for i in rng.sample(range(len(points)), len(points) // 4):
                    values[i] = rng.randrange(p)
            else:
                values = [rng.randrange(p) for _ in points]
            table = np.asarray(values, dtype=np.uint8 if p < 256 else np.int64)
            yield code, points, table, weights


def test_weighted_scan_matches_int64_product():
    cases = tied = 0
    for code, points, table, weights in _weighted_samples():
        values = _reference_values(code, points)
        counts = (values != table[None, :]).astype(np.int64) @ weights
        best = int(np.argmin(counts))
        assert _min_disagreement(code, points, table, weights) == (best, int(counts[best]))
        cases += 1
        tied += int(np.count_nonzero(counts == counts[best]) > 1)
    assert cases == 36 and tied > 0


def _full_cube_cases():
    """(d, field, table) cases for the transforms: every table with n <= 3
    for p = 3, n <= 2 for p = 5 and n = 2 for d = 2 over F_2; seeded tables
    at n = 3 for p = 5; then, per n, seeded uniform (many ties), planted,
    and planted with up to half of the points changed, up to n = 7 for p = 3
    and n = 6 for d = 2 over F_2."""
    for d, p, top in ((1, 3, 3), (1, 5, 2), (2, 2, 2)):
        for n in range(d, top + 1):
            for values in itertools.product(range(p), repeat=1 << n):
                yield d, PrimeField(p), list(values)
    rng = random.Random(80)
    F5 = PrimeField(5)
    for _ in range(2000):
        yield 1, F5, [rng.randrange(5) for _ in range(8)]
    for d, field, sizes, per_size in ((1, F3, range(1, 8), 9), (2, F2, range(2, 7), 3)):
        for n in sizes:
            for i in range(per_size):
                if i % 3 == 0:
                    yield d, field, CubeFunction.random(n, field, rng).values
                    continue
                f = random_poly(n, d, field, rng).truth_table()
                if i % 3 == 2:
                    f = corrupt(f, Fraction(rng.randrange((1 << n) // 2 + 1), 1 << n), rng)
                yield d, field, f.values


def test_transforms_match_block_scan_on_full_cube():
    cases = 0
    for d, field, values in _full_cube_cases():
        n = (len(values) - 1).bit_length()
        code = CodeEnumeration(n, d, field)
        table = np.asarray(values, dtype=np.uint8)
        # the scan's weighted branch with unit weights, so the reference counts
        # another way than the unweighted transforms
        expected = _min_disagreement(code, range(1 << n), table, np.ones(1 << n, np.int64))
        assert nearest_codeword(code, table) == expected, (d, field.p, values)
        assert exact_delta_d(CubeFunction(n, field, values), d) == (
            Fraction(expected[1], 1 << n), code.poly_at(expected[0]))
        cases += 1
    assert cases == (9 + 81 + 6561) + (25 + 625) + 16 + 2000 + 7 * 9 + 5 * 3


# (k, d, p, trials) for the transforms: d = 1 over F_2, F_3, F_5, F_31 and
# F_257, and d = 2 over F_2, at sizes up to the tolerant test's desk profile.
TRANSFORM_MULTISETS = [(1, 1, 2, 8), (3, 1, 2, 8), (6, 1, 2, 3), (8, 1, 2, 3), (2, 2, 2, 8),
                       (4, 2, 2, 8), (5, 2, 2, 8), (6, 2, 2, 3), (1, 1, 3, 8), (4, 1, 3, 8),
                       (6, 1, 3, 3), (3, 1, 5, 8), (2, 1, 31, 8), (1, 1, 257, 8)]


def test_transforms_match_block_scan_on_weighted_multisets():
    cases = tied = 0
    for code, points, table, weights in _weighted_samples(TRANSFORM_MULTISETS, 81,
                                                          (1, 3, 12, 40, 150)):
        expected = _min_disagreement(code, points, table, weights)
        assert nearest_codeword(code, table, weights, points) == expected
        # the same multiset as full-cube arrays with weight zero off the sample
        full_table = np.zeros(1 << code.k, dtype=table.dtype)
        full_weights = np.zeros(1 << code.k, dtype=np.int64)
        full_table[points], full_weights[points] = table, weights
        assert nearest_codeword(code, full_table, full_weights) == expected
        tied += sum(int(np.count_nonzero(_weighted_counts(block != table, weights) == expected[1]))
                    for _, block in code.iter_value_blocks(points)) > 1
        cases += 1
    assert cases == 10 * 8 + 4 * 3 and tied > cases // 3


@pytest.mark.parametrize("p", [251, 257])
def test_exact_delta_d_on_both_table_dtypes(p):
    # p = 251 reads the table as bytes, p = 257 as int64
    field = PrimeField(p)
    code = CodeEnumeration(1, 1, field)
    rng = random.Random(p)
    for values in ([0, 0], [p - 1, 0], [3, p - 1], [rng.randrange(p), rng.randrange(p)]):
        table = np.asarray(values, dtype=np.uint8 if p < 256 else np.int64)
        best, count = _min_disagreement(code, range(2), table)
        assert exact_delta_d(CubeFunction(1, field, values), 1) == (
            Fraction(count, 2), code.poly_at(best))


def test_plans_are_keyed_by_code_and_read_only():
    # Alternate the codes so that every call after the first of its key
    # reads a plan built for an earlier call, never one of another key.
    keys = [(3, 2, 2), (5, 2, 2), (3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)]
    streams = [_weighted_samples([key + (6,)], seed=91 + i) for i, key in enumerate(keys)]
    cases = 0
    for round_cases in zip(*streams):
        for code, points, table, weights in round_cases:
            expected = _min_disagreement(code, points, table, weights)
            assert nearest_codeword(code, table, weights, points) == expected
            cases += 1
    assert cases == 6 * len(keys)
    plans = [oracle._coset_plan(k, d) for k, d, p in keys if p == 2]
    plans += [oracle._histogram_plan(k, p) for k, d, p in keys if p > 2]
    arrays = [a for plan in plans for a in plan if isinstance(a, np.ndarray)]
    assert len(arrays) == 3 * 3 + 2 * 2 + 2 * 2  # d = 1 cosets have no signs
    assert not any(a.flags.writeable for a in arrays + [oracle._HADAMARD])


@pytest.mark.parametrize("k, d, p", [(7, 2, 2), (8, 2, 2), (5, 2, 3), (13, 1, 5), (2, 1, 257)])
def test_budget_guard_raises_before_any_path(monkeypatch, k, d, p):
    def unreachable(*args, **kwargs):
        raise AssertionError("a nearest-codeword path ran past the budget check")

    for name in ("_histogram_nearest", "_coset_nearest", "_min_disagreement",
                 "_histogram_plan", "_coset_plan"):
        monkeypatch.setattr(oracle, name, unreachable)
    field = PrimeField(p)
    size = p ** sum(math.comb(k, i) for i in range(d + 1))
    message = f"code has {size} codewords (budget 10000000)"
    with pytest.raises(BudgetExceededError) as exc:
        exact_delta_d(CubeFunction.constant(k, field), d)
    assert str(exc.value) == message and exc.value.required == size
    with pytest.raises(BudgetExceededError) as exc:
        closest_poly_on_set(CubeFunction.constant(k, field), [0, 0, 0], d)
    assert str(exc.value) == message
