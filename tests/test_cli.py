import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridcode
from gridcode.cli import COMMON, build_parser, main, thread_count
from gridcode.restrict import exact_bucket_distribution


def run_cli(args, path):
    code = main(args + ["--out", str(path)])
    assert code == 0
    return path.read_text(encoding="utf-8")


def test_test_subcommand_csv_shape(tmp_path):
    out = run_cli(
        ["test", "--n", "8", "--d", "1", "--k", "3", "--p", "2",
         "--delta", "0.1", "0.2", "--trials", "50", "--seed", "7"],
        tmp_path / "a.csv",
    )
    lines = out.strip().splitlines()
    assert lines[0].startswith("# gridcode test ")
    assert "seed=7" in lines[0] and "n=8" in lines[0]
    assert lines[1] == "delta,trials,rejections,rate,stderr"
    assert len(lines) == 4  # header comment + columns + two delta rows


def test_repeated_invocations_are_byte_identical(tmp_path):
    args = ["test", "--n", "8", "--d", "1", "--k", "3", "--p", "2",
            "--delta", "0.15", "--trials", "40", "--seed", "3"]
    first = run_cli(args, tmp_path / "one.csv")
    second = run_cli(args, tmp_path / "two.csv")
    assert first == second


def test_parallel_run_matches_serial(tmp_path):
    # Each worker redraws the polynomial and its corruption offsets itself.
    runs = [
        ["test", "--n", "8", "--d", "1", "--k", "3", "--p", "2",
         "--delta", "0.15", "--trials", "48", "--seed", "3"],
        ["decode", "--n", "10", "--d", "2", "--p", "3", "--delta", "0", "1/20",
         "--trials", "48", "--seed", "3"],
        ["tolerant", "--n", "9", "--d", "1", "--p", "2", "--delta1", "1/50",
         "--delta2", "1/5", "--delta", "1/100", "1/4", "--trials", "24", "--seed", "3"],
    ]
    for args in runs:
        serial = run_cli(args, tmp_path / "serial.csv")
        os.environ["GRIDCODE_THREADS"] = "3"
        try:
            parallel = run_cli(args, tmp_path / "parallel.csv")
        finally:
            del os.environ["GRIDCODE_THREADS"]
        assert serial == parallel


def test_buckets_exact_matches_enumeration(tmp_path):
    out = run_cli(["buckets", "--r", "5", "--k", "2", "--exact"], tmp_path / "b.csv")
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    parsed = {
        tuple(int(x) for x in sizes.split("-")): (int(num), int(den))
        for sizes, num, den in rows
    }
    expected = exact_bucket_distribution(5, 2)
    assert parsed == {
        sizes: (prob.numerator, prob.denominator) for sizes, prob in expected.items()
    }


def test_buckets_sampled_rows(tmp_path):
    out = run_cli(
        ["buckets", "--r", "6", "--k", "2", "--process", "cycle",
         "--trials", "200", "--seed", "1"],
        tmp_path / "c.csv",
    )
    lines = out.strip().splitlines()
    assert lines[1] == "sorted_sizes,frequency"
    total = sum(float(line.split(",")[1]) for line in lines[2:])
    assert abs(total - 1.0) < 1e-9


def test_buckets_recursive_accepts_r_equal_k(tmp_path):
    out = run_cli(
        ["buckets", "--r", "4", "--k", "4", "--process", "recursive",
         "--trials", "5", "--seed", "1"],
        tmp_path / "r.csv",
    )
    assert out.strip().splitlines()[2:] == ["1-1-1-1,1.000000"]


def test_decode_subcommand(tmp_path):
    out = run_cli(
        ["decode", "--n", "8", "--d", "1", "--p", "2", "--delta", "0",
         "--trials", "30", "--seed", "5"],
        tmp_path / "d.csv",
    )
    lines = out.strip().splitlines()
    assert lines[1] == "delta,trials,successes,rate,queries_per_call"
    row = lines[2].split(",")
    assert row[2] == "30"  # zero corruption decodes perfectly
    assert row[4] == "6.00"


def test_tolerant_subcommand(tmp_path):
    out = run_cli(
        ["tolerant", "--n", "9", "--d", "1", "--p", "2", "--delta1", "0.02",
         "--delta2", "0.2", "--delta", "0", "--k", "5", "--m", "40",
         "--trials", "10", "--seed", "2"],
        tmp_path / "t.csv",
    )
    lines = out.strip().splitlines()
    assert lines[1] == "delta_true,trials,mu_mean,accept_rate"
    assert lines[2].split(",")[3] == "1.000000"


def test_span_subcommand_json(tmp_path):
    out = run_cli(
        ["span", "--n", "24", "--s", "4", "--t", "2", "--count", "30",
         "--trials", "3", "--seed", "11"],
        tmp_path / "s.json",
    )
    payload = json.loads(out)
    assert payload["command"] == "span"
    assert payload["params"]["seed"] == 11
    assert payload["result"]["spanned_trials"] == 0
    assert len(payload["result"]["trials"]) == 3


def test_witness_subcommand_json(tmp_path):
    out = run_cli(["witness", "--k", "4", "--d", "1", "--p", "2"], tmp_path / "w.json")
    payload = json.loads(out)
    report = payload["result"]["report"]
    assert report["orthogonality"] and report["one_point_separation"]
    assert len(payload["result"]["support"]) == len(payload["result"]["weights"])


def test_oracle_subcommand_round_trip(tmp_path):
    table = tmp_path / "and.tt"
    table.write_text("2 2\n0 0 0 1\n", encoding="utf-8")
    out = run_cli(
        ["oracle", "--n", "2", "--d", "1", "--p", "2", "--in", str(table)],
        tmp_path / "o.json",
    )
    payload = json.loads(out)
    assert payload["result"]["delta_d"] == "1/4"


def test_invalid_parameters_exit_nonzero(capsys):
    # k >= n violates the tester precondition n > k
    code = main(["test", "--n", "3", "--d", "1", "--k", "3", "--p", "2",
                 "--delta", "0.1", "--trials", "5", "--seed", "0"])
    assert code == 1
    assert "need n > k" in capsys.readouterr().err


def test_budget_error_exits_nonzero(capsys):
    code = main(["span", "--n", "24", "--s", "4", "--t", "3", "--count", "300",
                 "--budget", "1000", "--trials", "1", "--seed", "0"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("process", ["direct", "recursive", "cycle"])
def test_exact_buckets_past_10_to_100_outcomes_exit_one(tmp_path, capsys, process):
    out = tmp_path / "b.csv"
    assert main(["buckets", "--r", "2000", "--k", "2", "--exact", "--process", process,
                 "--out", str(out)]) == 1
    name = "parent" if process == "direct" else process
    assert capsys.readouterr().err == (
        f"error: {name} enumeration needs more than 10^100 cases (budget 10000000)\n")
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0", "1/2"])
def test_tolerant_without_replacement_needs_m_at_most_2_to_the_k(tmp_path, capsys, delta):
    # k = 6 and the default m = 130: the run fails before any trial, whether
    # or not its trials would reach the sample (at 1/2 every trial stops at
    # the screen)
    out = tmp_path / "t.csv"
    assert main(["tolerant", "--n", "10", "--d", "1", "--delta1", "1/50", "--delta2", "1/5",
                 "--delta", delta, "--no-replacement", "--trials", "2", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cannot draw 130 distinct points from 64\n"
    assert not out.exists()


def test_unknown_flags_rejected():
    with pytest.raises(SystemExit):
        main(["test", "--bogus", "1"])


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("3 3\n0 1 2 5 0 1 2 0\n", ["--n", "2", "--p", "2"], "residue 5"),
        ("3 3\n0 1 2 2 0 1 2 0\n", ["--n", "2", "--p", "2"], "header"),
        ("2 3\n0 1 2 1\n", ["--n", "2", "--p", "2"], "header"),
        ("2 2\n0 1 1 0\n", ["--n", "3", "--p", "2"], "header"),
        ("2 3\n0 1 3 1\n", ["--n", "2", "--p", "3"], "residue"),
        ("2 3\n0 1 -1 1\n", ["--n", "2", "--p", "3"], "residue"),
        ("2 2\n0 1 1\n", ["--n", "2", "--p", "2"], "expected 4 values"),
        ("2 2\n0 1 1 0 1\n", ["--n", "2", "--p", "2"], "expected 4 values"),
        ("1 13\n1_1 \uff13\n", ["--n", "1", "--p", "13"], "'1_1' is not an ASCII decimal"),
        ("1 13\n0 \uff13\n", ["--n", "1", "--p", "13"], "'\uff13' is not an ASCII decimal"),
        ("1 13\n+1 -0\n", ["--n", "1", "--p", "13"], "'+1' is not an ASCII decimal"),
        ("+1 13\n0 1\n", ["--n", "1", "--p", "13"], "'+1' is not an ASCII decimal"),
    ],
)
def test_oracle_rejects_mismatched_or_out_of_range_input(tmp_path, capsys, text, flags,
                                                         message):
    path = tmp_path / "bad.tt"
    path.write_text(text, encoding="utf-8")
    code = main(["oracle", "--d", "1", "--in", str(path)] + flags
                + ["--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--n", "8", "--d", "1", "--k", "3", "--delta", "0.1"],
        ["decode", "--n", "8", "--d", "1", "--delta", "0"],
        ["tolerant", "--n", "9", "--d", "1", "--delta1", "0.02", "--delta2", "0.2",
         "--delta", "0"],
        ["buckets", "--r", "5", "--k", "2"],
        ["span", "--n", "24", "--s", "4", "--t", "2"],
        ["witness", "--k", "4", "--d", "1"],
        ["oracle", "--n", "2", "--d", "1", "--in", "unread.tt"],
    ],
)
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_rejected(capsys, argv, trials):
    code = main(argv + ["--trials", trials])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --trials must be positive, got {trials}\n"


def test_csv_header_prints_fractions(tmp_path):
    out = run_cli(
        ["test", "--n", "8", "--d", "1", "--k", "3", "--p", "2",
         "--delta", "0", "0.01", "0.05", "0.15", "--trials", "4", "--seed", "1"],
        tmp_path / "f.csv",
    )
    header = out.splitlines()[0]
    tokens = header.split()
    assert tokens[:3] == ["#", "gridcode", "test"]
    assert all(token.count("=") == 1 for token in tokens[3:])
    assert "deltas=[0,1/100,1/20,3/20]" in tokens


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--n", "8", "--d", "1", "--k", "3", "--delta", "0.1"],
        ["buckets", "--r", "5", "--k", "2"],
    ],
)
@pytest.mark.parametrize("seed", ["-1", "-9223372036854775808", "9223372036854775808"])
def test_seed_outside_63_bits_rejected(tmp_path, capsys, argv, seed):
    out = tmp_path / "s.csv"
    code = main(argv + ["--trials", "4", "--seed", seed, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --seed must be in [0, 2^63), got {seed}\n"
    assert not out.exists()


def test_largest_seed_accepted(tmp_path):
    args = ["test", "--n", "8", "--d", "1", "--k", "3", "--delta", "0.1",
            "--trials", "4", "--seed", str(2**63 - 1)]
    assert f"seed={2**63 - 1}" in run_cli(args, tmp_path / "max.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--n", "8", "--d", "1", "--k", "3", "--delta", "0.1"],
        ["buckets", "--r", "5", "--k", "2"],
    ],
)
@pytest.mark.parametrize("threads", ["abc", "0", "-2", "", "1_6", " 2", "+2", "\u0663"])
def test_invalid_thread_count_rejected(tmp_path, capsys, monkeypatch, argv, threads):
    monkeypatch.setenv("GRIDCODE_THREADS", threads)
    out = tmp_path / "t.csv"
    code = main(argv + ["--trials", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: GRIDCODE_THREADS must be a positive decimal integer, got {threads!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1_6", " 2", "2 ", "+2", "\u0663", "2.0"])
def test_thread_count_accepts_only_ascii_decimal_digits(monkeypatch, threads):
    # int() would read each of these as a worker count ("1_6" as 16).
    monkeypatch.setenv("GRIDCODE_THREADS", threads)
    with pytest.raises(ValueError, match="GRIDCODE_THREADS must be a positive decimal integer"):
        thread_count()


@pytest.mark.parametrize("threads, expected", [("1", 1), ("3", 3), ("016", 16)])
def test_thread_count_reads_decimal_digits(monkeypatch, threads, expected):
    monkeypatch.setenv("GRIDCODE_THREADS", threads)
    assert thread_count() == expected


# sha256 of each artifact as the scalar span scan, the partition-building
# bucket samplers and a fresh parser per call wrote it; the fast paths must
# reproduce every byte.
ARTIFACT_SHA256 = [
    ("span --n 36 --s 6 --t 2 --count 200 --trials 20 --seed 7",
     "de71943962058cc5bf2438eaab5f5804bc592b5e69af27ddf78e37647bb91f71"),
    # 4 of 10 trials find a spanning triple
    ("span --n 12 --s 2 --t 3 --count 40 --trials 10 --seed 1",
     "13f2ad9adee60ff5d3dd9b13149542e52a208fedfa45777d7b3f3bb2c6ba49ff"),
    # 2 of 10 trials find a spanning triple over F_3
    ("span --n 10 --s 2 --t 3 --p 3 --count 30 --trials 10 --seed 2",
     "28faf2a725ee8ec69d7b6ff3e540f9ec160b21e352838a1d406a42b03f2b166a"),
    # every trial spans with one vector over F_2
    ("span --n 8 --s 2 --t 2 --p 2 --count 12 --trials 6 --seed 3",
     "4b6cb82cbe4051a72ad207b18e36befb4200271e52ce3977e8a174b7ac6d6ec5"),
    ("buckets --r 5 --k 2 --exact",
     "8bf1a859406792168d7219fc84c3ddb3b77c5d09ef7993b9477776f1edb0ad35"),
    ("buckets --r 6 --k 3 --exact --process cycle",
     "de3007a72fe7dc08fe89ef884664932f7f804e3aeb61bcf7e8f5966b04bf3da8"),
    ("buckets --r 6 --k 3 --exact --process recursive",
     "bcf00e68126f671a5fb4fb134dd667b879e515fbd06f154a4d76bd031f253ca4"),
    ("buckets --r 12 --k 4 --process cycle --trials 3000 --seed 7",
     "5ce2ce8a1e8c2450352ceb6786dbf3538b2a91f0634bc4019c572410a0aaebc1"),
    ("buckets --r 12 --k 4 --process direct --trials 3000 --seed 7",
     "eb5b1836c7da51f018784e09f98bd5f3884cee4ecb8cc91afd163e97e7151412"),
    ("buckets --r 12 --k 4 --process recursive --trials 1000 --seed 7",
     "21e8aa73bfd259fc66a0ee44abd6ecedc28192eba75407504563042d486d9bb4"),
    ("buckets --r 4 --k 4 --process direct --trials 50 --seed 1 --format json",
     "83cb5ad23bb30077670cc25bcd375d253d24ebd2629a0dda2bf80083861e6951"),
    ("buckets --r 9 --k 1 --process cycle --trials 50 --seed 1",
     "05e8b960515cc40920485dcc4ab251c69e095d7523593ff1a8153c6e242fde20"),
    ("witness --k 4 --d 1 --p 2",
     "d406f8599f097f518acdc4b7f2a9b9d742ca489fc0f2c4de7f65b6722b47c85a"),
    ("witness --k 6 --d 2 --p 3",
     "fe3d8869dd7d6c5c6e6ac11c464139c7b20f55e7f06e00822cdb9fc26182f536"),
    # tolerant runs as the weighted block scan and the CLI's own copy of the
    # desk defaults for k and m wrote them: the README invocation (d = 1
    # over F_2), d = 2 over F_2, d = 1 over F_3 and d = 2 over F_3 (scan)
    ("tolerant --n 12 --d 1 --p 2 --delta1 0.02 --delta2 0.2 --delta 0.01 0.25 "
     "--trials 400 --seed 7",
     "39adb908fff4bf4643819e753fbc740b24aee3a67cdd5f6e55a302dceec2c920"),
    ("tolerant --n 10 --d 2 --p 2 --k 5 --delta1 1/50 --delta2 1/5 --delta 1/100 1/4 "
     "--trials 60 --seed 3",
     "d24425735afd29676fa1f85eae233cb895ff7ae36005c859eecaf6c5f9887101"),
    ("tolerant --n 9 --d 1 --p 3 --delta1 1/50 --delta2 1/5 --delta 0 1/10 "
     "--trials 60 --seed 4",
     "a6a1a64ddca11762e72831e61bf3cfa59b8b2b4c530370a2dad334b496cf318b"),
    ("tolerant --n 8 --d 2 --p 3 --k 4 --delta1 1/50 --delta2 1/5 --delta 0 1/10 "
     "--trials 20 --seed 5",
     "c576bc16598dae3fb53f4e479386a8fc55dd6c242f5636397dfbaa20b051cec1"),
    # test and decode as full 2^n tables wrote them: the README invocations at
    # fewer trials, the desk default k = d + 2 over F_3, d = 1 over F_5,
    # both decoder modes over F_3, k = 4 over F_2 (d = 3), k = 5 over F_5
    # (252 queries per call) and JSON output
    ("test --n 12 --d 1 --k 4 --p 2 --delta 0.01 0.05 0.15 --trials 400 --seed 7",
     "1d4f3f7c04bfcdd5c752eda5e6681b173d8f99cba836d09885ab39c376f4abad"),
    ("decode --n 16 --d 1 --p 2 --delta 0 0.04 --trials 300 --seed 7",
     "95ad8f663731ad8c5fc15471ea623c0a182a6ef47f810d6d332a74fb3385db70"),
    ("test --n 9 --d 2 --p 3 --delta 0 1/20 1/10 --trials 200 --seed 5",
     "6a32ac7e18d5d946e986171333e05aceb5464c0588697c2d8c4ed8e1a871fdc3"),
    ("test --n 10 --d 1 --k 5 --p 5 --delta 1/50 1/8 --trials 150 --seed 6",
     "f30002f271948092abaa540303c8e7ea0fd053915e06987c4a98556dc7bace23"),
    ("decode --n 10 --d 2 --p 3 --mode B_prime_only --delta 0 1/50 1/10 "
     "--trials 200 --seed 5",
     "4d97566884a8bf6f7b6b1459f965c22cb0c55f4053d125c1ed65d06d0a999fd8"),
    ("decode --n 11 --d 2 --p 3 --delta 1/100 1/20 --trials 150 --seed 8",
     "52982ce9ef9cbdc022b5b7a5bffb56d77294d7146e203cffb11316f75c583649"),
    ("decode --n 12 --d 3 --p 2 --delta 1/200 1/30 --trials 150 --seed 9",
     "2e28a00285145ce811da43a55b760e101dc3e90efc8ebf076dc031ec48024d5a"),
    ("test --n 8 --d 1 --p 2 --delta 0 1/4 --trials 100 --seed 2 --format json",
     "cb5145a63f1d39b12372f43256d963c555512cd64b18dbbe3fe52bc741d9ba47"),
    ("decode --n 9 --d 1 --p 5 --delta 0 1/25 --trials 100 --seed 2 --format json",
     "911c1960be43e49b8895860c839273cd8a742df8a629ef05a11097931528a797"),
]


@pytest.mark.parametrize("line, digest", ARTIFACT_SHA256)
def test_artifacts_are_byte_identical_to_recorded_digests(tmp_path, line, digest):
    out = tmp_path / "artifact"
    assert main(line.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_reused_parser_survives_failed_calls(tmp_path, capsys):
    good = ["span", "--n", "24", "--s", "4", "--t", "2", "--count", "30",
            "--trials", "3", "--seed", "11"]
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    assert main(good + ["--out", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["span", "--n", "24", "--bogus", "1"])
    assert exc.value.code == 2
    assert main(["witness", "--k", "4", "--d", "1", "--trials", "0"]) == 1
    assert main(["buckets", "--r", "5", "--k", "2", "--trials", "20", "--format", "json",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["command"] == "buckets"
    assert main(good + ["--out", str(last)]) == 0
    assert last.read_bytes() == first.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["span", "--n", "12", "--s", "2", "--t", "0", "--count", "10"], "t must be at least 1"),
        (["span", "--n", "12", "--s", "2", "--t", "-1", "--count", "10"], "t must be at least 1"),
        (["witness", "--k", "4", "--d", "-1"], "d must be non-negative"),
        (["span", "--n", "11", "--s", "20", "--t", "1", "--count", "3"], "no vector"),
        (["test", "--n", "8", "--d", "1", "--delta", "0", "1/0"],
         "--delta 1/0 has a zero denominator"),
        (["tolerant", "--n", "9", "--d", "1", "--delta1", "1/0", "--delta2", "1/5",
          "--delta", "0"], "--delta1 1/0 has a zero denominator"),
        (["tolerant", "--n", "9", "--d", "1", "--delta1", "1/50", "--delta2", "1/0",
          "--delta", "0"], "--delta2 1/0 has a zero denominator"),
        (["span", "--n", "12", "--s", "2", "--t", "1", "--format", "csv"],
         "span writes JSON only"),
        (["witness", "--k", "4", "--d", "1", "--format", "csv"], "witness writes JSON only"),
        (["oracle", "--n", "2", "--d", "1", "--in", "unread.tt", "--format", "csv"],
         "oracle writes JSON only"),
        (["buckets", "--r", "3", "--k", "5", "--exact", "--process", "cycle"],
         "need r >= k >= 1"),
        (["buckets", "--r", "3", "--k", "-1", "--exact", "--process", "cycle"],
         "need r >= k >= 1"),
        (["buckets", "--r", "3", "--k", "5", "--exact", "--process", "recursive"],
         "need r >= k >= 1"),
        (["buckets", "--r", "3", "--k", "0", "--exact", "--process", "recursive"],
         "need r >= k >= 1"),
        (["buckets", "--r", "3", "--k", "0", "--exact", "--process", "cycle"],
         "need r >= k >= 1"),
        (["buckets", "--r", "0", "--k", "0", "--exact", "--process", "cycle"],
         "need r >= k >= 1"),
        (["span", "--n", "12", "--s", "2", "--t", "1", "--count", "10", "--p", "0"],
         "modulus must be in [2, 2^31), got 0"),
    ],
)
def test_vacuous_span_and_negative_witness_degree_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "x.json"
    code = main(argv + ["--trials", "3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_tolerant_default_k_fits_the_code_budget(tmp_path):
    # the largest k in (d, d+5] whose p^C(k,<=d) codewords fit 10^7, and the
    # run is the one that k gives when passed explicitly
    out, explicit = tmp_path / "t.csv", tmp_path / "k.csv"
    for d, p, k, m in [(2, 2, 6, 160), (2, 3, 4, 140), (1, 11, 5, 129), (1, 2, 6, 130),
                       (0, 5, 5, 125)]:
        base = ["tolerant", "--n", "10", "--d", str(d), "--p", str(p), "--delta1", "1/50",
                "--delta2", "1/5", "--delta", "1/100", "--trials", "2", "--seed", "1"]
        assert main(base + ["--out", str(out)]) == 0
        assert f" k={k} m={m} " in out.read_text().splitlines()[0]
        assert main(base + ["--k", str(k), "--out", str(explicit)]) == 0
        assert explicit.read_bytes() == out.read_bytes()


def test_tolerant_without_a_fitting_k_keeps_the_budget_error(tmp_path, capsys):
    # over F_2 at d = 4 even k = 5 has 2^31 codewords, so k stays d + 5 = 9,
    # whose code has 2^C(9,<=4) = 2^256
    out = tmp_path / "t.csv"
    assert main(["tolerant", "--n", "10", "--d", "4", "--delta1", "1/50", "--delta2", "1/5",
                 "--delta", "0", "--trials", "2", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: code has {2 ** 256} codewords (budget 10000000)\n")
    assert not out.exists()


def test_tolerant_past_the_budget_fails_before_drawing_its_sample(tmp_path):
    # k = d + 5 = 17 has 3^C(17,<=12) = 3^127858 codewords, and the default m
    # is about 5.8e14 points: the budget check must come before the sample.
    # A child process, so that a run that does draw it is killed at 10 s.
    out = tmp_path / "t.csv"
    src = str(Path(gridcode.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from gridcode.cli import main; sys.exit(main())",
         "tolerant", "--n", "20", "--d", "12", "--p", "3", "--delta1", "0", "--delta2", "1/5",
         "--delta", "0", "--trials", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=10)
    assert run.returncode == 1
    assert run.stderr == "error: code has 3^127858 codewords (budget 10000000)\n"
    assert not out.exists()


# Runs main(argv) in a child process capped at 1 GiB of address space whose
# alarm kills it 1 s after the imports, so a hang or a huge plan cannot pass.
_BOUNDED_MAIN = """
import resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gridcode.cli import main
signal.setitimer(signal.ITIMER_REAL, 1.0)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, message", [
    # C(62, 31) full balanced queries
    ("decode --n 8 --d 1 --p 31 --delta 1/64 --trials 3",
     "full_B decoding needs 465428353255261088 queries per call (budget 1000000)"),
    # C(2^32 - 2, 2^31 - 1), never built
    ("decode --n 8 --d 1 --p 2147483647 --delta 0 --trials 1",
     "full_B decoding needs more than 10^100 queries per call (budget 1000000)"),
    ("decode --n 8 --d 1 --p 31 --mode B_prime_only --delta 1/64 --trials 3", None),
])
def test_decode_query_plan_budget_fails_at_once(argv, message):
    src = str(Path(gridcode.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _BOUNDED_MAIN, *argv.split()],
                         capture_output=True, text=True, env=env, timeout=30)
    if message is None:
        # the reduced mode queries C(32, 31) = 32 points
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.splitlines()[-1] == "1/64,3,3,1.000000,32.00"
    else:
        assert (run.returncode, run.stderr) == (1, f"error: {message}\n")


def test_tolerant_past_the_budget_draws_no_polynomial(tmp_path, capsys, monkeypatch):
    # the code's budget is checked once, before any trial draws its polynomial
    def random_poly(*args):
        raise AssertionError("random_poly called")

    monkeypatch.setattr("gridcode.cli.random_poly", random_poly)
    out = tmp_path / "t.csv"
    assert main(["tolerant", "--n", "20", "--d", "12", "--p", "3", "--delta1", "0",
                 "--delta2", "1/5", "--delta", "0", "--trials", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: code has 3^127858 codewords (budget 10000000)\n"
    assert not out.exists()


def test_unwritable_out_path_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "w.json"
    assert main(["witness", "--k", "4", "--d", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err
    assert not out.exists()


def test_every_option_is_recorded_in_the_artifact(tmp_path):
    table = tmp_path / "and.tt"
    table.write_text("2 2\n0 0 0 1\n", encoding="utf-8")
    argvs = {
        "test": ["--n", "8", "--d", "1", "--delta", "0.1"],
        "decode": ["--n", "8", "--d", "1", "--delta", "0"],
        "tolerant": ["--n", "9", "--d", "1", "--delta1", "0.02", "--delta2", "0.2",
                     "--delta", "0"],
        "buckets": ["--r", "5", "--k", "2"],
        "span": ["--n", "24", "--s", "4", "--t", "2", "--count", "30"],
        "witness": ["--k", "4", "--d", "1"],
        "oracle": ["--n", "2", "--d", "1", "--in", str(table)],
    }
    subparsers = next(action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers) == set(argvs)
    for name, sp in subparsers.items():
        out = tmp_path / f"{name}.out"
        assert main([name, *argvs[name], "--trials", "2", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        if text.startswith("# gridcode "):
            recorded = {token.split("=")[0] for token in text.splitlines()[0].split()[3:]}
        else:
            recorded = set(json.loads(text)["params"])
        options = {action.dest for action in sp._actions
                   if action.option_strings and action.dest != "help"} - set(COMMON)
        assert options <= recorded, name
