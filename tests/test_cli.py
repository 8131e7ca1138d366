import json
import os
import random

import pytest

from gridcode.cli import main
from gridcode.cube import CubeFunction, write_truth_table
from gridcode.field import PrimeField
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
    args = ["test", "--n", "8", "--d", "1", "--k", "3", "--p", "2",
            "--delta", "0.15", "--trials", "48", "--seed", "3"]
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
    with open(table, "w", encoding="utf-8") as stream:
        write_truth_table(CubeFunction(2, PrimeField(2), [0, 0, 0, 1]), stream)
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
@pytest.mark.parametrize("threads", ["abc", "0", "-2", ""])
def test_invalid_thread_count_rejected(tmp_path, capsys, monkeypatch, argv, threads):
    monkeypatch.setenv("GRIDCODE_THREADS", threads)
    out = tmp_path / "t.csv"
    code = main(argv + ["--trials", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: GRIDCODE_THREADS must be a positive integer, got {threads!r}\n"
    assert not out.exists()
