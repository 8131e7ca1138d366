"""The benchmark's three workloads: inputs built from the seed, the jobs one
pass runs, and the output checks.

Every pass of a workload repeats the same jobs on the same inputs with the
same random seeds, so the time of one job differs between passes only by
machine noise and cache warmth, and every pass must produce the same
outputs.  Checks do not depend on the random stream: completeness at
delta = 0, exact query counts, exact oracle identities and self-consistency
of reports, never a sampled rate.

Traffic mix.  Each kind of work in a workload (see KINDS) takes an equal
share of a pass, and each job an equal share of its kind.  The trial counts
and repeat counts below are constants sized to that rule from per-call times
measured at seed, so a pass does the same work on every commit.  With K kinds
in a pass, a slow-down by a factor r in one kind moves the gated pass time by
about (r - 1) / K.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# kind -> (end-to-end rate metric, unit of work)
KINDS = {
    "test": ("test_trials_per_s", "trials"),
    "decode": ("decode_calls_per_s", "calls"),
    "tolerant": ("tolerant_trials_per_s", "trials"),
    "oracle": ("oracle_calls_per_s", "calls"),
    "buckets": ("bucket_samples_per_s", "samples"),
    "span": ("span_trials_per_s", "trials"),
    "witness": ("witness_jobs_per_s", "jobs"),
}


@dataclass
class Job:
    """One closed-loop call.  ``run`` is timed; ``check`` runs untimed on its
    result and returns (units of work done, failure messages)."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]


@dataclass
class Plan:
    jobs: list[Job]
    # Run once after the timed phase, untraced; not part of any rate.
    verify: list[Job] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    # Output bytes by job label; every pass must reproduce them exactly.
    outputs: dict = field(default_factory=dict)

    def digest(self) -> str | None:
        if not self.outputs:
            return None
        h = hashlib.sha256()
        for label in sorted(self.outputs):
            h.update(label.encode() + b"\0" + self.outputs[label] + b"\0")
        return h.hexdigest()

    def same_output(self, label: str, data: bytes) -> list[str]:
        first = self.outputs.setdefault(label, data)
        return [] if first == data else [f"{label}: output differs from the first pass"]


# --- cli-sweep -----------------------------------------------------------

# The README invocations, each sized to about 0.25 s, so a pass takes about
# 1.5 s: (subcommand, arguments, rows of work per trial count, trials,
# invocations per job).  decode cannot go lower: building its two n = 16
# tables takes ~0.24 s of it at any trial count.  witness takes ~3 ms and has
# no trials, so the job repeats the invocation.
CLI_SWEEP = (
    ("test", "--n 12 --d 1 --k 4 --p 2 --delta 0 1/100 1/20 3/20", 4, 10, 1),
    ("decode", "--n 16 --d 1 --p 2 --delta 0 1/25", 2, 200, 1),
    ("tolerant", "--n 12 --d 1 --p 2 --delta1 1/50 --delta2 1/5 --delta 1/100 1/4", 2, 18, 1),
    ("buckets", "--r 12 --k 4 --process cycle", 1, 8800, 1),
    ("span", "--n 36 --s 6 --t 2 --count 200", 1, 27, 1),
    ("witness", "--k 4 --d 1 --p 2", 1, 1, 80),
)


def _csv_rows(text: str) -> tuple[str, list[dict]]:
    lines = text.splitlines()
    columns = lines[1].split(",")
    return lines[0], [dict(zip(columns, line.split(","))) for line in lines[2:]]


def _check_test(text, trials):
    header, rows = _csv_rows(text)
    bad = [] if header.startswith("# gridcode test ") else ["missing parameter header"]
    if [r["delta"] for r in rows] != ["0", "1/100", "1/20", "3/20"]:
        bad.append(f"unexpected delta rows {[r['delta'] for r in rows]}")
    for r in rows:
        if int(r["trials"]) != trials or not 0 <= int(r["rejections"]) <= trials:
            bad.append(f"bad counts in row {r}")
        if r["delta"] == "0" and int(r["rejections"]) != 0:
            bad.append(f"completeness: {r['rejections']} rejections at delta 0")
    return bad


def _check_decode(text, trials):
    header, rows = _csv_rows(text)
    bad = [] if header.startswith("# gridcode decode ") else ["missing parameter header"]
    if [r["delta"] for r in rows] != ["0", "1/25"]:
        bad.append(f"unexpected delta rows {[r['delta'] for r in rows]}")
    expected = f"{math.comb(4, 2):.2f}"  # C(2k, k) with k = 2 for p = 2, d = 1
    for r in rows:
        if r["queries_per_call"] != expected:
            bad.append(f"queries_per_call {r['queries_per_call']} != {expected}")
        if r["delta"] == "0" and int(r["successes"]) != trials:
            bad.append(f"decode not exact at delta 0: {r['successes']}/{trials}")
    return bad


def _check_tolerant(text, trials):
    header, rows = _csv_rows(text)
    bad = [] if header.startswith("# gridcode tolerant ") else ["missing parameter header"]
    if [r["delta_true"] for r in rows] != ["1/100", "1/4"]:
        bad.append("unexpected delta rows")
    for r in rows:
        mu, rate = float(r["mu_mean"]), float(r["accept_rate"])
        if int(r["trials"]) != trials or not 0 <= rate <= 1 or not (mu != mu or 0 <= mu <= 1):
            bad.append(f"inconsistent row {r}")
    return bad


def _check_buckets(text, trials):
    _, rows = _csv_rows(text)
    bad = []
    for r in rows:
        sizes = [int(s) for s in r["sorted_sizes"].split("-")]
        if len(sizes) != 4 or min(sizes) < 1 or sum(sizes) != 12 or sizes != sorted(sizes):
            bad.append(f"impossible bucket sizes {sizes}")
    total = sum(float(r["frequency"]) for r in rows)
    if abs(total - 1) > 5e-7 * len(rows) + 1e-12:
        bad.append(f"frequencies sum to {total}")
    return bad


def _check_span(text, trials, n=36):
    result = json.loads(text)["result"]
    found = [t for t in result["trials"] if t["found"]]
    bad = []
    if len(result["trials"]) != trials or result["spanned_trials"] != len(found):
        bad.append("trial counts disagree")
    for t in found:
        coeffs = [Fraction(c) for c in t["coefficients"]]
        for j in range(n):
            total = sum(c * (-1 if v >> j & 1 else 1) for c, v in zip(coeffs, t["subset"]))
            if total != 1:
                bad.append(f"trial {t['trial']}: combination is {total} at coordinate {j + 1}")
                break
    return bad


def _check_witness(text, trials):
    report = json.loads(text)["result"]["report"]
    keys = ("orthogonality", "window", "size", "one_point_separation")
    return [] if all(report[k] is True for k in keys) else [f"witness report {report}"]


CLI_CHECKS = {
    "test": _check_test,
    "decode": _check_decode,
    "tolerant": _check_tolerant,
    "buckets": _check_buckets,
    "span": _check_span,
    "witness": _check_witness,
}


def cli_sweep(gc, seed: int, workdir: Path) -> Plan:
    """In-process ``gridcode.cli.main`` at the README invocations, with the
    artifacts written to ``workdir``."""
    plan = Plan([])
    # The CLI builds these tables itself: one per trial for test and tolerant
    # (n = 12), one per delta for decode (n = 16).
    plan.facts["table_bytes"] = {kind: sys.getsizeof([0] * (1 << n))
                                 for kind, n in (("test", 12), ("tolerant", 12), ("decode", 16))}
    for kind, line, rows, trials, reps in CLI_SWEEP:
        outs = [workdir / f"{kind}-{i}.out" for i in range(reps)]
        argvs = [[kind, *line.split(), "--trials", str(trials), "--seed", str(seed),
                  "--out", str(out)] for out in outs]

        def run(argvs=argvs):
            return [gc.cli.main(argv) for argv in argvs]

        def check(statuses, kind=kind, outs=outs, rows=rows, trials=trials):
            bad = [f"exit status {s}" for s in statuses if s != 0]
            if not bad:
                for out in outs:
                    data = out.read_bytes()
                    bad += CLI_CHECKS[kind](data.decode(), trials) + plan.same_output(kind, data)
            return rows * trials * len(outs), [f"gridcode {kind}: {message}" for message in bad]

        plan.jobs.append(Job(kind, kind, run, check))
    return plan


# --- local-fixed ---------------------------------------------------------

LOCAL_N = 16
LOCAL_TABLES = ((2, 1, Fraction(0)), (2, 1, Fraction(1, 50)),
                (3, 2, Fraction(0)), (3, 2, Fraction(1, 50)))
# Tester trials per estimate by (p, d, k), and local_decode calls per loop by
# (p, d, mode), sized so that every estimate takes ~25 ms and every decode
# loop ~19 ms: the two kinds take ~0.15 s each of a ~0.3 s pass.
LOCAL_TEST_TRIALS = {(2, 1, 4): 255, (2, 1, 6): 180, (3, 2, 4): 240}
LOCAL_DECODES = {(2, 1, "full_B"): 470, (2, 1, "B_prime_only"): 610,
                 (3, 2, "full_B"): 205, (3, 2, "B_prime_only"): 295}


def local_fixed(gc, seed: int, workdir: Path) -> Plan:
    """Tester estimates and local_decode loops on corrupted n = 16 tables
    built once in set-up."""
    plan = Plan([])
    tables = []
    for index, (p, d, delta) in enumerate(LOCAL_TABLES):
        rng = gc.rand.derive_rng(seed, index)
        clean = gc.poly.random_poly(LOCAL_N, d, gc.field.PrimeField(p), rng).truth_table()
        tables.append((p, d, delta, clean.values, gc.cube.corrupt(clean, delta, rng)))
    plan.facts["table_bytes"] = sum(sys.getsizeof(t[4].values) for t in tables)
    plan.facts["tables"] = [f"n={LOCAL_N} p={p} d={d} delta={delta}" for p, d, delta, *_ in tables]

    job_seed = 100
    for p, d, delta, clean, f in tables:
        for k in (4, 6) if d == 1 else (4,):
            params = gc.tester.TesterParams.desk(d, k)
            trials = LOCAL_TEST_TRIALS[p, d, k]
            label = f"estimate p={p} d={d} delta={delta} k={k}"

            def run(f=f, params=params, trials=trials, s=job_seed):
                return gc.tester.estimate_rejection_probability(
                    f, params, trials, gc.rand.derive_rng(seed, s))

            def check(est, delta=delta, trials=trials, label=label):
                bad = [] if est.trials == trials else [f"{label}: {est.trials} trials"]
                if delta == 0 and est.rejections:
                    bad.append(f"{label}: completeness: {est.rejections} rejections")
                return trials, bad

            plan.jobs.append(Job("test", label, run, check))

            def run_once(f=f, params=params, s=job_seed):
                return gc.tester.run_test_once(f, params, gc.rand.derive_rng(seed, s))

            def check_once(tr, k=k, delta=delta, label=label):
                bad = []
                if tr.query_count != 1 << k or len(set(tr.query_masks)) != 1 << k:
                    bad.append(f"{label}: {tr.query_count} queries, expected {1 << k} distinct")
                if delta == 0 and not tr.accepted:
                    bad.append(f"{label}: completeness: run rejected at delta 0")
                return 1, bad

            plan.verify.append(Job("test", label, run_once, check_once))
            job_seed += 1

        params = gc.decoder.DecoderParams.for_degree(p, d)
        for mode, expected in ((gc.decoder.FULL_BALANCED, math.comb(2 * params.k, params.k)),
                               (gc.decoder.ZERO_TAIL_ONLY, math.comb(params.k + d, params.k))):
            label = f"decode p={p} d={d} delta={delta} {mode}"

            def run(f=f, params=params, mode=mode, calls=LOCAL_DECODES[p, d, mode], s=job_seed):
                rng = gc.rand.derive_rng(seed, s)
                out = []
                for _ in range(calls):
                    x = rng.randrange(1 << LOCAL_N)
                    value, log = gc.decoder.local_decode(f, x, params, rng, mode)
                    out.append((x, value.residue, log.query_count))
                return out

            def check(out, clean=clean, delta=delta, expected=expected, label=label):
                bad = []
                if any(q != expected for _, _, q in out):
                    bad.append(f"{label}: query count differs from {expected}")
                if delta == 0 and any(clean[x] != v for x, v, _ in out):
                    bad.append(f"{label}: decode not exact at delta 0")
                return len(out), bad

            plan.jobs.append(Job("decode", label, run, check))
            job_seed += 1
    return plan


# --- exact-oracle --------------------------------------------------------

# (n, d, p) keys of the exact oracle; each gets one table per corruption rate.
# At delta = 1/2 the table is nearly random and several codewords tend to tie
# for nearest, so the recorded digests pin the tie-break.
ORACLE_KEYS = ((10, 1, 2), (12, 1, 2), (7, 1, 3), (5, 2, 2))
ORACLE_DELTAS = (Fraction(0), Fraction(1, 8), Fraction(1, 2))
# Calls per table job, so that each key takes about as long as the three n = 12
# tables (~65 ms each, warm); the oracle kind then takes ~0.8 s of a ~1.6 s
# pass.
# Every repeat must return the same result; the first call of a key in a
# process builds its cached value matrix.
ORACLE_REPEATS = {(10, 1, 2): 20, (12, 1, 2): 1, (7, 1, 3): 40, (5, 2, 2): 9}
TOLERANT_N = 10
TOLERANT_DELTAS = (Fraction(1, 100), Fraction(1, 4))
# A step-2 trial scans 65,536 codewords (~40 ms); one stopped by the step-1
# screen costs ~0.2 ms.  Trials run until this many reach step 2 (about 3% of
# trials do at delta = 1/4), so the cost of a job hardly depends on how the
# seed's draws fall; each of the two jobs takes ~0.4 s, the tolerant kind's
# half of a pass.  The cap only guards against a table that never passes.
TOLERANT_STEP2 = 6
TOLERANT_MAX_TRIALS = 10_000


def monomials(n: int, d: int) -> list[int]:
    """Subset masks of size at most d in ascending order, the oracle's
    coefficient order."""
    return [m for m in range(1 << n) if bin(m).count("1") <= d]


def evaluate(n: int, p: int, coeffs: dict[int, int]) -> np.ndarray:
    """Truth table of a multilinear polynomial by the zeta transform."""
    values = np.zeros(1 << n, dtype=np.int64)
    for mask, c in coeffs.items():
        values[mask] = c
    for i in range(n):
        view = values.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return values % p


def planted_table(n: int, d: int, p: int, delta: Fraction, rng: np.random.Generator):
    """A uniform degree-<=d polynomial and its truth table with exactly
    floor(delta 2^n) positions changed to a different value."""
    mons = monomials(n, d)
    coeffs = {m: int(c) for m, c in zip(mons, rng.integers(0, p, len(mons))) if c}
    values = evaluate(n, p, coeffs)
    flips = int(delta * (1 << n))
    positions = rng.choice(1 << n, size=flips, replace=False)
    values[positions] = (values[positions] + rng.integers(1, p, size=flips)) % p
    return coeffs, flips, values.tolist()


def exact_oracle(gc, seed: int, workdir: Path) -> Plan:
    """exact_delta_d and certify_far on planted tables, each (n, d, p) cold on
    its first call, plus tolerant_test with its uncached weighted scans."""
    plan = Plan([])
    rng = np.random.default_rng(seed % 2**64)
    cache_bytes = {}
    table_bytes = 0
    for n, d, p in ORACLE_KEYS:
        field_p = gc.field.PrimeField(p)
        size = gc.oracle.CodeEnumeration(n, d, field_p).size
        cache_bytes[f"n={n} d={d} p={p}"] = size << n
        for delta in ORACLE_DELTAS:
            coeffs, flips, values = planted_table(n, d, p, delta, rng)
            f = gc.cube.CubeFunction(n, field_p, values)
            table_bytes += sys.getsizeof(f.values)
            label = f"oracle n={n} d={d} p={p} delta={delta}"

            def run(f=f, d=d, reps=ORACLE_REPEATS[n, d, p]):
                out = []
                for _ in range(reps):
                    distance, nearest = gc.oracle.exact_delta_d(f, d)
                    out.append((distance, nearest, gc.oracle.certify_far(f, d, distance)))
                return out

            def check(results, n=n, d=d, p=p, coeffs=coeffs, flips=flips,
                      values=values, label=label):
                distance, nearest, certified = results[0]
                bad = []
                if any((r[0], r[1].coeffs, r[2]) != (distance, nearest.coeffs, certified)
                       for r in results[1:]):
                    bad.append(f"{label}: repeated calls disagree")
                if not certified:
                    bad.append(f"{label}: certify_far rejects the returned distance")
                if distance > Fraction(flips, 1 << n):
                    bad.append(f"{label}: distance {distance} exceeds planted {flips}/{1 << n}")
                if any(bin(m).count("1") > d for m in nearest.coeffs) or nearest.n != n:
                    bad.append(f"{label}: nearest codeword is not in the code")
                table = evaluate(n, p, nearest.coeffs)
                if Fraction(int(np.count_nonzero(table != values)), 1 << n) != distance:
                    bad.append(f"{label}: nearest codeword is not at the returned distance")
                if flips == 0 and nearest.coeffs != coeffs:
                    bad.append(f"{label}: uncorrupted input decoded to another codeword")
                vector = [nearest.coeffs.get(m, 0) for m in monomials(n, d)]
                out = f"{distance} {vector}".encode()
                return 2 * len(results), bad + plan.same_output(label, out)

            plan.jobs.append(Job("oracle", label, run, check))

    params = gc.tolerant.TolerantParams.desk(2, Fraction(1, 50), Fraction(1, 5), k=5)
    field_2 = gc.field.PrimeField(2)
    for index, delta in enumerate(TOLERANT_DELTAS):
        _, _, values = planted_table(TOLERANT_N, 2, 2, delta, rng)
        f = gc.cube.CubeFunction(TOLERANT_N, field_2, values)
        table_bytes += sys.getsizeof(f.values)
        label = f"tolerant n={TOLERANT_N} delta={delta}"

        def run(f=f, s=500 + index):
            rng = gc.rand.derive_rng(seed, s)
            reports, step2 = [], 0
            while step2 < TOLERANT_STEP2 and len(reports) < TOLERANT_MAX_TRIALS:
                reports.append(gc.tolerant.tolerant_test(f, params, rng))
                step2 += reports[-1].intolerant_accepted
            return reports

        def check(reports, label=label):
            bad = []
            screen = params.intolerant_reps * params.intolerant.queries_per_run
            for r in reports:
                if not r.intolerant_accepted:
                    ok = not r.accepted and r.mu is None and r.queries_used == screen
                else:
                    ok = (screen < r.queries_used <= params.max_queries
                          and r.accepted == (r.mu < params.threshold)
                          and all(bin(m).count("1") <= params.d for m in r.interpolated.coeffs))
                if not ok:
                    bad.append(f"{label}: inconsistent report {r}")
            return len(reports), bad

        plan.jobs.append(Job("tolerant", label, run, check))
    plan.facts["table_bytes"] = table_bytes
    plan.facts["oracle_cache_bytes"] = cache_bytes
    return plan


WORKLOADS = {
    "cli-sweep": cli_sweep,
    "local-fixed": local_fixed,
    "exact-oracle": exact_oracle,
}
