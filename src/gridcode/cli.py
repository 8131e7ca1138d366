"""Reproducible experiment runner.

Every subcommand derives the RNG of trial i from (master seed, i), so output
is byte-identical for a given invocation regardless of scheduling; the
GRIDCODE_THREADS environment variable only changes how trials are spread over
worker processes.  All output embeds the full parameter set.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import cube, decoder, dualwitness, lowerbound, oracle, restrict, tolerant
from .errors import BudgetExceededError, CapacityError
from .field import PrimeField
from .poly import CorruptedPoly, PolyPoints, random_poly, write_poly
from .rand import derive_rng, derive_seed
from .tester import RejectionEstimate, TesterParams, run_test_once


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    params: dict
    master_seed: int = 0
    trials: int = 1
    out: str = "-"
    format: str = "csv"


def thread_count() -> int:
    """Worker processes from GRIDCODE_THREADS (default 1): ASCII decimal
    digits, at least 1; a sign, space, underscore or other digit is refused."""
    raw = os.environ.get("GRIDCODE_THREADS", "1")
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"GRIDCODE_THREADS must be a positive decimal integer, got {raw!r}")
    return int(raw)


def _chunks(trials: int, pieces: int) -> list[tuple[int, int]]:
    size = (trials + pieces - 1) // pieces
    return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _map_chunks(worker, args: tuple, trials: int):
    """Run worker(*args, lo, hi) over trial ranges, possibly in parallel.

    Workers must be top-level functions returning tuples of summable values;
    per-trial RNG derivation keeps results independent of the split.
    """
    threads = thread_count()
    if threads == 1 or trials < 2 * threads:
        parts = [worker(*args, 0, trials)]
    else:
        # Imported here: serial runs, the default, skip the multiprocessing import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(worker, *args, lo, hi)
                for lo, hi in _chunks(trials, threads)
            ]
            parts = [f.result() for f in futures]
    return [sum(values) for values in zip(*parts)]


# --- corrupted inputs ---------------------------------------------------

# Point evaluation costs about 25-40 ns per point read and coefficient, the
# truth table about 150-200 ns per point of the cube, so the table is the
# cheaper base once reads times coefficients pass a few times 2^n.
TABLE_READ_FACTOR = 4


def _corrupted_input(poly, reads: int, delta: Fraction, rng) -> CorruptedPoly:
    """poly with the corruption drawn from rng, read as CorruptedPoly.

    Its base is the polynomial's truth table when ``reads`` point reads
    would cost more than building it, else its ``PolyPoints``.  Neither
    choice makes a random call, so the reads and the rng are the same.
    """
    offsets = cube.corruption_offsets(poly.n, poly.field.p, delta, rng)
    if reads * len(poly.coeffs) > TABLE_READ_FACTOR << poly.n:
        return CorruptedPoly(poly.truth_table(), offsets)
    return CorruptedPoly(PolyPoints(poly), offsets)


# --- test, decode, tolerant ----------------------------------------------


def _per_delta(config: ExperimentConfig, chunk, delta_key: str, row) -> list[dict]:
    """One row per corruption level: chunk's summed totals for its trials,
    run with the seed derived from the level's index, turned into columns
    by row(*totals)."""
    rows = []
    for index, delta in enumerate(config.params["deltas"]):
        seed = derive_seed(config.master_seed, index)
        totals = _map_chunks(chunk, (config.params, delta, seed), config.trials)
        rows.append({delta_key: str(delta), "trials": config.trials, **row(*totals)})
    return rows


def _test_chunk(p: dict, delta: Fraction, seed: int, lo: int, hi: int) -> tuple:
    prime = PrimeField(p["p"])
    params = TesterParams.desk(p["d"], p["k"])
    rejections = 0
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        poly = random_poly(p["n"], p["d"], prime, rng)
        f = _corrupted_input(poly, params.queries_per_run, delta, rng)
        if not run_test_once(f, params, rng).accepted:
            rejections += 1
    return (rejections,)


def run_test_command(config: ExperimentConfig) -> list[dict]:
    def row(rejections):
        estimate = RejectionEstimate(config.trials, rejections)
        return {"rejections": rejections, "rate": f"{estimate.rate:.6f}",
                "stderr": f"{estimate.stderr:.6f}"}

    return _per_delta(config, _test_chunk, "delta", row)


def _decode_chunk(p: dict, delta: Fraction, seed: int, lo: int, hi: int) -> tuple:
    n = p["n"]
    params = decoder.DecoderParams.for_degree(p["p"], p["d"])
    setup = derive_rng(seed, -1)
    poly = random_poly(n, p["d"], PrimeField(p["p"]), setup)
    # each trial reads the decoder's queries and the true value at x
    f = _corrupted_input(poly, (hi - lo) * (params.query_budget + 1), delta, setup)
    successes = 0
    queries = 0
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        x = rng.randrange(1 << n)
        value, log = decoder.local_decode(f, x, params, rng, mode=p["mode"])
        if value.residue == f.base.values_at((x,))[0]:
            successes += 1
        queries += log.query_count
    return successes, queries


def run_decode_command(config: ExperimentConfig) -> list[dict]:
    def row(successes, queries):
        return {
            "successes": successes,
            "rate": f"{successes / config.trials:.6f}",
            "queries_per_call": f"{queries / config.trials:.2f}",
        }

    # The query plan, checked against its budget, is built before any trial.
    p = config.params
    decoder.query_plan(decoder.DecoderParams.for_degree(p["p"], p["d"]).k, p["d"], p["mode"])
    return _per_delta(config, _decode_chunk, "delta", row)


def _tolerant_chunk(p: dict, delta: Fraction, seed: int, lo: int, hi: int) -> tuple:
    prime = PrimeField(p["p"])
    params = tolerant.TolerantParams.desk(
        p["d"],
        p["delta1"],
        p["delta2"],
        k=p["k"],
        m=p["m"],
        intolerant_reps=p["reps"],
        replacement=p["replacement"],
    )
    accepts = 0
    mu_total = Fraction(0)
    mu_count = 0
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        poly = random_poly(p["n"], p["d"], prime, rng)
        f = _corrupted_input(poly, params.max_queries, delta, rng)
        report = tolerant.tolerant_test(f, params, rng)
        if report.accepted:
            accepts += 1
        if report.mu is not None:
            mu_total += report.mu
            mu_count += 1
    return accepts, mu_total, mu_count


def run_tolerant_command(config: ExperimentConfig) -> list[dict]:
    def row(accepts, mu_total, mu_count):
        mu_mean = float(mu_total / mu_count) if mu_count else float("nan")
        return {"mu_mean": f"{mu_mean:.6f}", "accept_rate": f"{accepts / config.trials:.6f}"}

    # A code past the budget fails here, before any trial draws its polynomial.
    p = config.params
    oracle.CodeEnumeration(p["k"], p["d"], PrimeField(p["p"]))
    return _per_delta(config, _tolerant_chunk, "delta_true", row)


# --- buckets ------------------------------------------------------------


def run_buckets_command(config: ExperimentConfig) -> list[dict]:
    p = config.params
    r, k, process = p["r"], p["k"], p["process"]
    if p["exact"]:
        dist = restrict.exact_bucket_distribution(r, k, process)
        return [
            {
                "sorted_sizes": "-".join(map(str, sizes)),
                "probability_num": prob.numerator,
                "probability_den": prob.denominator,
            }
            for sizes, prob in sorted(dist.items())
        ]
    sample_sizes = restrict.BUCKET_PROCESSES[process][0]
    counts = Counter(sample_sizes(r, k, derive_rng(config.master_seed, i))
                     for i in range(config.trials))
    return [
        {
            "sorted_sizes": "-".join(map(str, sizes)),
            "frequency": f"{count / config.trials:.6f}",
        }
        for sizes, count in sorted(counts.items())
    ]


# --- span ---------------------------------------------------------------


def run_span_command(config: ExperimentConfig) -> dict:
    p = config.params
    field = None if p["p"] is None else PrimeField(p["p"])
    trials = []
    for i in range(config.trials):
        rng = derive_rng(config.master_seed, i)
        vectors = lowerbound.sample_balanced_vectors(p["n"], p["s"], p["count"], rng)
        result = lowerbound.t_span_contains(
            lowerbound.ALL_PLUS_ONES,
            vectors,
            p["t"],
            p["n"],
            field=field,
            budget=p["budget"],
        )
        entry: dict = {"trial": i, "found": result.found}
        if result.found:
            entry["subset"] = list(result.subset)
            entry["coefficients"] = [str(c) for c in result.coefficients]
            if result.certificate is not None:
                numerators, denominator = result.certificate
                entry["certificate"] = {
                    "numerators": list(numerators),
                    "denominator": denominator,
                }
        trials.append(entry)
    return {
        "spanned_trials": sum(1 for t in trials if t["found"]),
        "trials": trials,
    }


# --- witness ------------------------------------------------------------


def run_witness_command(config: ExperimentConfig) -> dict:
    p = config.params
    prime = PrimeField(p["p"])
    witness = dualwitness.build_witness(p["k"], p["d"], prime, p["lo"], p["hi"])
    report = dualwitness.verify_witness(witness)
    return {
        "support": [f"{point:0{p['k']}b}" for point in witness.support],
        "weights": witness.weights,
        "window": list(witness.window),
        "report": asdict(report),
    }


# --- oracle -------------------------------------------------------------


def run_oracle_command(config: ExperimentConfig) -> dict:
    p = config.params
    with open(p["path"], "r", encoding="utf-8") as stream:
        f = cube.read_truth_table(stream)
    if (f.n, f.field.p) != (p["n"], p["p"]):
        raise ValueError(
            f"table header says n={f.n} p={f.field.p}, "
            f"but --n {p['n']} --p {p['p']} was given"
        )
    delta, nearest = oracle.exact_delta_d(f, p["d"])
    buffer = io.StringIO()
    write_poly(nearest, buffer)
    return {
        "delta_d": f"{delta.numerator}/{delta.denominator}",
        "nearest": buffer.getvalue().splitlines(),
    }


# --- output -------------------------------------------------------------


def _param_text(value) -> str:
    """A parameter as one whitespace-free token; fractions print as p/q."""
    if isinstance(value, list):
        return "[" + ",".join(map(str, value)) + "]"
    return str(value)


def _params_line(config: ExperimentConfig) -> str:
    parts = [f"{key}={_param_text(value)}" for key, value in sorted(config.params.items())]
    parts.append(f"trials={config.trials}")
    parts.append(f"seed={config.master_seed}")
    return f"# gridcode {config.subcommand} " + " ".join(parts)


def _emit(config: ExperimentConfig, output, stream) -> None:
    """CSV rows under a ``# gridcode`` params line, or one JSON payload with
    the rows (a list) or the result (a dict)."""
    if config.format == "csv":
        stream.write(_params_line(config) + "\n")
        if output:
            columns = list(output[0].keys())
            stream.write(",".join(columns) + "\n")
            for row in output:
                stream.write(",".join(str(row[c]) for c in columns) + "\n")
        return
    payload = {
        "command": config.subcommand,
        "params": {**config.params, "trials": config.trials,
                   "seed": config.master_seed},
        "rows" if isinstance(output, list) else "result": output,
    }
    json.dump(payload, stream, indent=2, sort_keys=True, default=str)
    stream.write("\n")


RUNNERS = {
    "test": run_test_command,
    "decode": run_decode_command,
    "tolerant": run_tolerant_command,
    "buckets": run_buckets_command,
    "span": run_span_command,
    "witness": run_witness_command,
    "oracle": run_oracle_command,
}


def run(config: ExperimentConfig) -> int:
    """Run a validated config and write its artifact; returns a process exit
    status.  The output file is opened only once the run has succeeded."""
    try:
        output = RUNNERS[config.subcommand](config)
        if config.out == "-":
            _emit(config, output, sys.stdout)
        else:
            with open(config.out, "w", encoding="utf-8", newline="\n") as stream:
                _emit(config, output, stream)
    except (BudgetExceededError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# --- argument parsing ---------------------------------------------------

# Options every subcommand takes; the rest of its options are its params.
COMMON = ("subcommand", "seed", "trials", "out", "format")
JSON_ONLY = ("span", "witness", "oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcode",
        description="Experiments with low-degree multilinear codes on the Boolean cube",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, trials_default=1000, format_default="csv"):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--out", default="-")
        sp.add_argument("--format", choices=("csv", "json"), default=format_default)

    sp = sub.add_parser("test", help="rejection-rate of the local low-degree test")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--delta", dest="deltas", metavar="DELTA", nargs="+", required=True)
    common(sp)

    sp = sub.add_parser("decode", help="success rate of the local decoder")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--delta", dest="deltas", metavar="DELTA", nargs="+", required=True)
    sp.add_argument(
        "--mode",
        choices=(decoder.FULL_BALANCED, decoder.ZERO_TAIL_ONLY),
        default=decoder.FULL_BALANCED,
    )
    common(sp)

    sp = sub.add_parser("tolerant", help="accept rate of the tolerant test")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--delta1", type=str, required=True)
    sp.add_argument("--delta2", type=str, required=True)
    sp.add_argument("--delta", dest="deltas", metavar="DELTA", nargs="+", required=True)
    sp.add_argument("--k", type=int, default=None,
                    help="small-cube dimension (default: the largest k in (d, d+5] whose "
                         f"p^C(k,<=d) codewords fit the budget of {oracle.CODEWORD_BUDGET:,})")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--replacement", action=argparse.BooleanOptionalAction, default=True)
    common(sp, trials_default=400)

    sp = sub.add_parser("buckets", help="bucket-size distributions")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--process", choices=tuple(restrict.BUCKET_PROCESSES), default="direct")
    common(sp, trials_default=100000)

    sp = sub.add_parser("span", help="spans of balanced sign vectors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--p", type=int, default=None,
                    help="prime for F_p; omit for exact rationals")
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--budget", type=int, default=lowerbound.SPAN_BUDGET)
    common(sp, trials_default=20, format_default="json")

    sp = sub.add_parser("witness", help="build and verify a dual witness")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--lo", type=int, default=None)
    sp.add_argument("--hi", type=int, default=None)
    common(sp, trials_default=1, format_default="json")

    sp = sub.add_parser("oracle", help="exact distance to the degree-d code")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--in", dest="path", required=True)
    common(sp, trials_default=1, format_default="json")
    return parser


def _fraction(option: str, text: str) -> Fraction:
    """The rate ``option`` was given, such as 0.05 or 1/20; a zero
    denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} {text} has a zero denominator") from None


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The subcommand's options as its params, plus the desk values that
    test and tolerant derive from them."""
    sub = args.subcommand
    if args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if not 0 <= args.seed < 2**63:
        raise ValueError(f"--seed must be in [0, 2^63), got {args.seed}")
    if sub in JSON_ONLY and args.format != "json":
        raise ValueError(f"{sub} writes JSON only, not --format {args.format}")
    params = {key: value for key, value in vars(args).items() if key not in COMMON}
    if "deltas" in params:
        params["deltas"] = [_fraction("--delta", x) for x in params["deltas"]]
    if sub == "test":
        params["k"] = TesterParams.desk(args.d, args.k).k
    elif sub == "tolerant":
        params["delta1"] = _fraction("--delta1", args.delta1)
        params["delta2"] = _fraction("--delta2", args.delta2)
        k = tolerant.desk_k(args.d, args.p) if args.k is None else args.k
        desk = tolerant.TolerantParams.desk(args.d, params["delta1"], params["delta2"], k=k,
                                            m=args.m, replacement=args.replacement)
        params["k"], params["m"] = desk.k, desk.m
    return ExperimentConfig(sub, params, args.seed, args.trials, args.out, args.format)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and reused by later ``main`` calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        thread_count()  # reject a malformed GRIDCODE_THREADS whether or not it is used
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
