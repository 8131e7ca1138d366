"""The query interface: a corrupted table and a CorruptedPoly oracle read alike.

The tester, the decoder and the tolerant tester read f only through
``values_at``; these tests check that the oracle gives every algorithm the
same values, transcripts and random stream as the table it replaces.
"""

import math
import random
from fractions import Fraction

import pytest

from gridcode import cli
from gridcode.cube import CubeFunction, corrupt, corruption_offsets
from gridcode.decoder import (
    FULL_BALANCED,
    ZERO_TAIL_ONLY,
    DecoderParams,
    decode_from_ball,
    local_decode,
    zero_tail_balanced_set,
)
from gridcode.field import PrimeField
from gridcode.poly import CorruptedPoly, MultilinearPoly, PolyPoints, random_poly
from gridcode.tester import TesterParams, run_test_once
from gridcode.tolerant import TolerantParams, tolerant_test
from reference_sampler import reference_corruption_offsets

DELTAS = (Fraction(0), Fraction(1, 100), Fraction(1, 4), Fraction(1))
CASES = [(n, d, p) for n, d, p in
         ((6, 1, 2), (7, 2, 2), (10, 1, 2), (10, 3, 2), (6, 1, 3), (9, 2, 3),
          (5, 1, 5), (8, 2, 5))]


def _pair(n, d, p, delta, seed, tabled=False):
    """The same seeded draw as a corrupted table and as an oracle, with the
    two generators left at the state the draw ends in.  The oracle's base is
    the polynomial's point terms, or its truth table if ``tabled``."""
    field = PrimeField(p)
    rng_table, rng_oracle = random.Random(seed), random.Random(seed)
    table = corrupt(random_poly(n, d, field, rng_table).truth_table(), delta, rng_table)
    poly = random_poly(n, d, field, rng_oracle)
    base = poly.truth_table() if tabled else PolyPoints(poly)
    oracle = CorruptedPoly(base, corruption_offsets(n, p, delta, rng_oracle))
    return table, rng_table, oracle, rng_oracle


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("delta", DELTAS)
def test_corruption_offsets_make_the_reference_random_calls(p, delta):
    for seed in range(5):
        ours, reference = random.Random(seed), random.Random(seed)
        offsets = corruption_offsets(9, p, delta, ours)
        assert offsets == reference_corruption_offsets(9, p, int(delta * 512), reference)
        assert ours.getstate() == reference.getstate()
        assert all(1 <= v < p for v in offsets.values())
        assert len(offsets) == int(delta * 512)


# Flip counts f at which Random.sample's choice between its pool and its set
# of picks can change: f = 6, where the set's size first grows with f, and
# each f with 3f just past a power of 4.
_SAMPLE_SWITCHES = (6, 22, 86, 342, 1366)


def _flip_counts(n):
    """Every flip count on up to 2^10 points; on larger cubes the counts
    within 2 of each switch and of the ends."""
    size = 1 << n
    if n <= 10:
        return range(size + 1)
    near = {f + e for f in (0, *_SAMPLE_SWITCHES, size) for e in range(-2, 3)}
    return sorted(f for f in near if 0 <= f <= size)


@pytest.mark.parametrize("p", (2, 3, 257))
def test_corruption_offsets_match_the_sample_reference(p):
    # the direct getrandbits draws against rng.sample and rng._randbelow,
    # across the sample's switch between its pool and its set on every cube
    methods = set()
    for n in range(1, 13):
        for flips in _flip_counts(n):
            ours, reference = random.Random(flips << 4 | n), random.Random(flips << 4 | n)
            offsets = corruption_offsets(n, p, Fraction(flips, 1 << n), ours)
            assert list(offsets.items()) == list(
                reference_corruption_offsets(n, p, flips, reference).items()), (n, flips)
            assert ours.getstate() == reference.getstate(), (n, flips)
            setsize = 21 + (4 ** math.ceil(math.log(3 * flips, 4)) if flips > 5 else 0)
            methods.add((n, (1 << n) <= setsize))
    assert all((n, pool) in methods for n in range(5, 13) for pool in (False, True))


def test_corruption_offsets_validate():
    with pytest.raises(ValueError, match="corruption rate"):
        corruption_offsets(4, 2, Fraction(3, 2), random.Random(0))
    with pytest.raises(ValueError, match="n must be in"):
        corruption_offsets(31, 2, 0, random.Random(0))
    with pytest.raises(ValueError, match="modulus"):
        corruption_offsets(4, 1, Fraction(1, 2), random.Random(0))


@pytest.mark.parametrize("n, d, p", CASES)
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tabled", (False, True))
def test_oracle_reads_as_the_corrupted_table(n, d, p, delta, tabled):
    for seed in range(3):
        table, rng_table, oracle, rng_oracle = _pair(n, d, p, delta, seed, tabled)
        assert rng_table.getstate() == rng_oracle.getstate()
        assert oracle.values_at(range(1 << n)) == table.values
        assert table.values_at(range(1 << n)) == table.values
        masks = [rng_table.randrange(1 << n) for _ in range(40)]
        assert oracle.values_at(masks) == table.values_at(masks)


@pytest.mark.parametrize("n, d, p", CASES)
def test_point_terms_agree_with_truth_table(n, d, p):
    poly = random_poly(n, d, PrimeField(p), random.Random(n * d * p))
    expected = poly.truth_table().values
    points = PolyPoints(poly)
    assert points.values_at(range(1 << n)) == expected
    assert [points.values_at((x,))[0] for x in range(1 << n)] == expected
    assert [poly.evaluate_residue(x) for x in range(1 << n)] == expected
    high = [x | (1 << (n + 3)) for x in range(1 << n)]
    assert points.values_at(high) == expected
    # at most one term per nonconstant coefficient; one for d = 1 over F_2
    assert len(points.terms) <= len(poly.coeffs)
    if (d, p) == (1, 2):
        assert len(points.terms) == 1


@pytest.mark.parametrize("n, d, p", CASES)
@pytest.mark.parametrize("delta", (Fraction(0), Fraction(1, 20), Fraction(1, 4)))
def test_tester_runs_alike_on_table_and_oracle(n, d, p, delta):
    params = TesterParams.desk(d, min(d + 2, n - 1))
    if params.k >= n:
        pytest.skip("needs n > k")
    table, rng_table, oracle, rng_oracle = _pair(n, d, p, delta, 11)
    for _ in range(20):
        assert run_test_once(table, params, rng_table) == run_test_once(oracle, params, rng_oracle)
    assert rng_table.getstate() == rng_oracle.getstate()


@pytest.mark.parametrize("n, d, p", CASES)
@pytest.mark.parametrize("mode", (FULL_BALANCED, ZERO_TAIL_ONLY))
@pytest.mark.parametrize("delta", (Fraction(0), Fraction(1, 20), Fraction(1, 4)))
def test_decoder_runs_alike_on_table_and_oracle(n, d, p, mode, delta):
    params = DecoderParams.for_degree(p, d)
    table, rng_table, oracle, rng_oracle = _pair(n, d, p, delta, 12)
    tail = set(zero_tail_balanced_set(params.k, params.d))
    for _ in range(15):
        x = rng_table.randrange(1 << n)
        assert rng_oracle.randrange(1 << n) == x
        value, log = local_decode(table, x, params, rng_table, mode)
        assert local_decode(oracle, x, params, rng_oracle, mode) == (value, log)
        answers = {y: table.values[z] for y, z in log.queries if y in tail}
        assert answers.keys() == tail
        assert decode_from_ball(answers, params) == value.residue
        if delta == 0:
            assert value.residue == oracle.base.values_at((x,))[0]
    assert rng_table.getstate() == rng_oracle.getstate()


@pytest.mark.parametrize("n, d, p", [c for c in CASES if c[1] <= 2 and c[0] >= 7])
@pytest.mark.parametrize("delta", (Fraction(0), Fraction(1, 100), Fraction(1, 4)))
def test_tolerant_runs_alike_on_table_and_oracle(n, d, p, delta):
    params = TolerantParams.desk(d, Fraction(1, 50), Fraction(1, 5), k=5 if d == 1 else 3,
                                 m=40)
    table, rng_table, oracle, rng_oracle = _pair(n, d, p, delta, 13)
    for _ in range(8):
        assert tolerant_test(table, params, rng_table) == tolerant_test(oracle, params, rng_oracle)
    assert rng_table.getstate() == rng_oracle.getstate()


def _record_table_sizes(monkeypatch):
    sizes = []
    build = CubeFunction.__init__

    def recording_build(self, m, field, values):
        sizes.append(m)
        build(self, m, field, values)

    monkeypatch.setattr(CubeFunction, "__init__", recording_build)
    return sizes


@pytest.mark.parametrize("argv, n", [
    (["test", "--n", "12", "--d", "1", "--k", "4", "--delta", "0", "1/20"], 12),
    (["decode", "--n", "14", "--d", "1", "--delta", "0", "1/25"], 14),
    (["tolerant", "--n", "12", "--d", "1", "--delta1", "1/50", "--delta2", "1/5",
      "--delta", "1/4"], 12),
])
def test_sparse_reads_build_no_full_table(tmp_path, monkeypatch, argv, n):
    sizes = _record_table_sizes(monkeypatch)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--trials", "20", "--seed", "4", "--out", str(out)]) == 0
    assert max(sizes, default=0) < n


@pytest.mark.parametrize("argv", [
    ["decode", "--n", "10", "--d", "3", "--p", "2", "--delta", "0", "1/20"],
    ["test", "--n", "9", "--d", "4", "--p", "2", "--delta", "0", "1/20"],
])
def test_dense_reads_use_the_table_and_write_the_same_bytes(tmp_path, monkeypatch, argv):
    n = int(argv[2])
    out = tmp_path / "out.csv"
    args = argv + ["--trials", "30", "--seed", "4", "--out", str(out)]
    sizes = _record_table_sizes(monkeypatch)
    assert cli.main(args) == 0
    assert n in sizes
    tabled = out.read_bytes()
    sizes.clear()
    monkeypatch.setattr(cli, "TABLE_READ_FACTOR", 1 << 40)
    assert cli.main(args) == 0
    assert max(sizes, default=0) < n
    assert out.read_bytes() == tabled


def test_reduced_decode_reads_sized_by_its_own_mode(monkeypatch, capsys):
    # 3 calls of C(32, 31) = 32 queries read far fewer points than the 2^22
    # table holds; the full mode's C(62, 31) would have built it
    def truth_table(self):
        raise AssertionError("truth table built")

    monkeypatch.setattr(MultilinearPoly, "truth_table", truth_table)
    assert cli.main(["decode", "--n", "22", "--d", "1", "--p", "31", "--mode", "B_prime_only",
                     "--delta", "0", "--trials", "3"]) == 0
    assert capsys.readouterr().out == (
        "# gridcode decode d=1 deltas=[0] mode=B_prime_only n=22 p=31 trials=3 seed=0\n"
        "delta,trials,successes,rate,queries_per_call\n"
        "0,3,3,1.000000,32.00\n")
