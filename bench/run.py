"""gridcode benchmark: one closed-loop caller, single-threaded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A pass runs the workload's jobs once (see workloads.py); each job
starts when the previous one returns.

An untraced run (``--trace 0``) spends its S seconds in fresh interpreters
started one at a time.  Each worker sets up, runs one cold pass and then warm
passes until its share of the S seconds is used; a set-up-only interpreter
runs before each worker.  A single interpreter's speed depends on its own
address-space and string-hash layout, so every figure is taken across them:
``setup_s`` is the median set-up time, ``first_pass_s`` and ``warm_pass_s``
sum each job's median cold and warm time.  Medians, not minima: on a shared
host a job's fastest time depends on whether a rare quiet moment fell into
the run, its median much less.

A traced run (``--trace 1``) runs in one interpreter: it traces the set-up
and every other pass, and compares each traced pass with the untraced pass
after it for the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics named in BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics.  The lines before it list every metric with its unit
and the count behind it.  A run record (machine, versions, digests, every
metric) and, for traced runs, the spans are written under bench/out/.  The
exit status is non-zero when any operation fails.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One caller, one thread: no worker processes in the CLI, no BLAS threads.
for var in ("GRIDCODE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKERS = 8  # worker interpreters per untraced run, each after a set-up-only one


def import_gridcode():
    """Import the package from this checkout's sources, or exit with 2."""
    if not (SRC / "gridcode" / "__init__.py").is_file():
        print(f"error: no gridcode sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gridcode
    import gridcode.cli  # noqa: F401

    if Path(gridcode.__file__).resolve().parent != SRC / "gridcode":
        print(f"error: imported gridcode from {gridcode.__file__}", file=sys.stderr)
        sys.exit(2)
    return gridcode


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a worker that stops starting passes this many seconds
    # after it started (0: set up only), and report as JSON.
    parser.add_argument("--worker", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def new_stats():
    return {"attempted": 0, "failed": 0, "kinds": {}, "failures": []}


def run_job(job, stats, counted=True):
    """Run one job, check its result, and return the job's wall time.  The
    check is not timed; ``counted`` jobs add to their kind's rate."""
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # noqa: BLE001 - a failing call is a counted failure
        wall = time.perf_counter() - start
        stats["attempted"] += 1
        stats["failed"] += 1
        stats["failures"].append(f"{job.label}: {type(exc).__name__}: {exc}")
        return wall
    wall = time.perf_counter() - start
    try:
        work, bad = job.check(result)
    except Exception as exc:  # noqa: BLE001 - malformed output is a counted failure
        work, bad = 0, [f"{job.label}: check raised {type(exc).__name__}: {exc}"]
    stats["attempted"] += 1
    if bad:
        stats["failed"] += 1
        stats["failures"].extend(bad)
    if counted:
        kind = stats["kinds"].setdefault(job.kind, [0, 0.0])
        kind[0] += work
        kind[1] += wall
    return wall


def run_pass(plan, stats):
    return [run_job(job, stats) for job in plan.jobs]


def median_pass(passes):
    """Sum over jobs of each job's median time over ``passes``."""
    return sum(statistics.median(times) for times in zip(*passes))


def worker(plan, budget, setup_s, stats):
    """One cold pass, then warm passes until ``budget`` seconds after this
    interpreter started (at least one), then the verification jobs.  Prints
    the report the parent reads."""
    passes = []
    if budget > 0:
        passes.append(run_pass(plan, stats))
        while len(passes) < 2 or time.perf_counter() - T0 < budget:
            passes.append(run_pass(plan, stats))
        for job in plan.verify:
            run_job(job, stats, counted=False)
    stats["failures"] = stats["failures"][:20]
    print(json.dumps({"setup_s": setup_s, "passes": passes, "digest": plan.digest(),
                      "labels": [job.label for job in plan.jobs], "facts": plan.facts,
                      "stats": stats,
                      "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def spawn(args, budget, stats):
    """Run a worker in a fresh interpreter and fold its counts into ``stats``;
    returns its report, or None when it did not report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--worker", f"{budget:.6f}"]
    stats["attempted"] += 1
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        stats["failed"] += 1
        stats["failures"].append(f"worker: {type(exc).__name__}: {exc}")
        return None
    theirs = report["stats"]
    stats["attempted"] += theirs["attempted"]
    stats["failed"] += theirs["failed"]
    stats["failures"].extend(f"worker: {message}" for message in theirs["failures"])
    for kind, (work, wall) in theirs["kinds"].items():
        mine = stats["kinds"].setdefault(kind, [0, 0.0])
        mine[0] += work
        mine[1] += wall
    return report


def untraced(args, stats):
    """Workers, each after a set-up-only interpreter, that share the run's
    seconds in equal slices.  Returns the reports that arrived."""
    reports = []
    start = time.perf_counter()
    for index in range(WORKERS):
        reports.append(spawn(args, 0, stats))
        deadline = start + args.seconds * (index + 1) / WORKERS
        reports.append(spawn(args, max(deadline - time.perf_counter(), 1e-3), stats))
    return [report for report in reports if report]


def traced(plan, seconds, stats, tracer):
    """Passes until ``seconds`` have elapsed, the even ones traced: all
    passes do the same work, so the difference between neighbours is the
    tracing overhead.  Returns the job times of every pass, the CPU/wall
    ratio of the passes and a tracer mark at the start of each traced pass."""
    passes, marks = [], []
    cpu = wall = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if len(passes) % 2 == 0:
            marks.append(tracer.mark())
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            passes.append(run_pass(plan, stats))
        finally:
            tracer.uninstall()
        cpu += time.process_time() - cpu0
        wall += time.perf_counter() - wall0
    return passes, cpu / wall, marks


def sysfs(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts(gc):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    model = None
    cpuinfo = sysfs("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = sysfs(f"{base}/level"), sysfs(f"{base}/type")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = sysfs(f"{base}/size")
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "gridcode").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "gridcode": getattr(gc, "__version__", None),
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "GRIDCODE_THREADS": os.environ["GRIDCODE_THREADS"],
    }


def main(argv=None):
    args = parse_args(argv)
    gc = import_gridcode()
    from workloads import KINDS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        stats = new_stats()
        if args.worker is not None:
            plan = WORKLOADS[args.workload](gc, args.seed, workdir)
            worker(plan, args.worker, time.perf_counter() - T0, stats)
            return 0
        if args.trace:
            return traced_run(args, gc, KINDS, WORKLOADS, spec, workdir, stats)
        return untraced_run(args, gc, KINDS, spec, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def kind_rates(stats, kinds_spec, metrics, counts):
    for kind, (work, wall) in sorted(stats["kinds"].items()):
        name, unit = kinds_spec[kind]
        metrics[name] = (work / wall, "1/s")
        counts[name] = f"{unit}={work} wall_s={wall:.3f}"


def pass_spread(pass_walls, metrics, counts):
    if len(pass_walls) >= 2:
        metrics["pass_p50_s"] = (statistics.median(pass_walls), "s")
        metrics["pass_p90_s"] = (statistics.quantiles(pass_walls, n=10)[-1], "s")
        counts["pass_p50_s"] = counts["pass_p90_s"] = f"passes={len(pass_walls)}"


def check_digest(args, digest, stats):
    """Compare the run's output digest with the recorded one for this seed."""
    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    expected = golden.get(str(args.seed))
    if expected:
        stats["attempted"] += 1
        if expected != digest:
            stats["failed"] += 1
            stats["failures"].append(f"output digest {digest} differs from the recorded {expected}")
    return expected


def untraced_run(args, gc, kinds_spec, spec, stats):
    reports = untraced(args, stats)
    workers = [r for r in reports if r["passes"]]
    if not workers:
        stats["attempted"] += 1
        stats["failed"] += 1
        stats["failures"].append("no worker reported")
        return finish(args, gc, spec, stats, {}, {}, {"digest": None})
    cold = [r["passes"][0] for r in workers]
    warm = [p for r in workers for p in r["passes"][1:]]
    digest = workers[0]["digest"]
    for report in workers[1:]:
        stats["attempted"] += 1
        if report["digest"] != digest:
            stats["failed"] += 1
            stats["failures"].append(f"worker output digest {report['digest']} differs from {digest}")
    expected = check_digest(args, digest, stats)

    metrics: dict = {}
    counts: dict = {}
    kind_rates(stats, kinds_spec, metrics, counts)
    setups = [r["setup_s"] for r in reports]
    metrics["setup_s"] = (statistics.median(setups), "s")
    counts["setup_s"] = f"setups={len(setups)}"
    metrics["first_pass_s"] = (median_pass(cold), "s")
    counts["first_pass_s"] = f"cold_passes={len(cold)} jobs_per_pass={len(cold[0])}"
    metrics["warm_pass_s"] = (median_pass(warm), "s")
    counts["warm_pass_s"] = f"warm_passes={len(warm)} workers={len(workers)}"
    pass_spread([sum(p) for p in warm], metrics, counts)
    metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in workers), "MB")
    counts["peak_rss_mb"] = f"max over workers={len(workers)}"
    labels = workers[0]["labels"]
    record = {
        "digest": digest,
        "golden": expected,
        "facts": workers[0]["facts"],
        "setups_s": setups,
        "pass_s": [sum(p) for p in warm],
        "job_s": {label: list(times) for label, times in zip(labels, zip(*warm))},
        "cold_job_s": {label: list(times) for label, times in zip(labels, zip(*cold))},
        "workers": [{"setup_s": r["setup_s"], "passes": len(r["passes"]), "rss_mb": r["rss_mb"]}
                    for r in workers],
    }
    return finish(args, gc, spec, stats, metrics, counts, record)


def traced_run(args, gc, kinds_spec, workloads, spec, workdir, stats):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    setup_start = time.perf_counter()
    plan = workloads[args.workload](gc, args.seed, workdir)
    setup_wall = time.perf_counter() - setup_start
    setup_mark = tracer.mark()
    tracer.uninstall()
    passes, cpu_ratio, marks = traced(plan, args.seconds, stats, tracer)
    for job in plan.verify:
        run_job(job, stats, counted=False)
    digest = plan.digest()
    expected = check_digest(args, digest, stats)

    metrics: dict = {}
    counts: dict = {}
    kind_rates(stats, kinds_spec, metrics, counts)
    pass_walls = [sum(p) for p in passes]
    pass_spread(pass_walls, metrics, counts)
    metrics["run.cpu_wall_ratio"] = (cpu_ratio, "ratio")
    # Per-pass figures come from the warm traced passes; the first (cold)
    # pass only gives the oracle's first-call times.
    warm = 1 if len(marks) > 1 else 0
    walls = pass_walls[2 * warm::2]
    layer = tracer.metrics(marks[warm], passes=len(walls))
    cold = tracer.metrics(marks[0], marks[1] if warm else None)
    layer = {k: v for k, v in layer.items() if not k.startswith("oracle.first_call_ms")}
    layer.update((k, v) for k, v in cold.items() if k.startswith("oracle.first_call_ms"))
    attributed = layer.pop("attributed_s")
    metrics.update(layer)
    for key, value in tracer.metrics((0, {}), setup_mark).items():
        metrics[f"setup.{key}"] = value
    metrics["setup.traced_wall_s"] = (setup_wall, "s")
    # Each traced pass against the untraced pass right after it, which ran in
    # nearly the same machine state; the cold first pair is skipped.
    pairs = [t - u for t, u in zip(pass_walls[2::2], pass_walls[3::2])]
    if pairs:
        metrics["run.trace_overhead_s"] = (statistics.median(pairs), "s")
        counts["run.trace_overhead_s"] = f"per pass, pairs={len(pairs)}"
    metrics["run.traced_pass_s"] = (statistics.fmean(walls), "s")
    metrics["run.attributed_s"] = attributed
    metrics["run.unattributed_s"] = (statistics.fmean(walls) - attributed[0], "s")
    for key in ("run.traced_pass_s", "run.attributed_s", "run.unattributed_s"):
        counts[key] = f"per pass, traced_passes={len(walls)}"
    tag = f"{args.workload}-seed{args.seed}-trace1"
    tracer.write(OUT / f"{tag}.spans.npz")
    record = {
        "digest": digest,
        "golden": expected,
        "facts": plan.facts,
        "pass_s": pass_walls,
        "job_s": {job.label: list(times) for job, times in zip(plan.jobs, zip(*passes))},
        "missing_entry_points": tracer.missing,
    }
    return finish(args, gc, spec, stats, metrics, counts, record)


def finish(args, gc, spec, stats, metrics, counts, record):
    """Print every metric, write the run record and print the result line;
    returns the exit status."""
    metrics["error_rate"] = (stats["failed"] / max(stats["attempted"], 1), "ratio")
    counts["error_rate"] = f"attempted={stats['attempted']} failed={stats['failed']}"
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"] for m in spec[section]}
    for name in sorted(metrics):
        value, unit = metrics[name]
        flag = "*" if name in wanted else " "
        print(f"{flag} {name:<40} {value:>16.6g} {unit:<6} {counts.get(name, '')}")
    for message in stats["failures"][:20]:
        print(f"FAILED {message}")
    digest, expected = record.get("digest"), record.get("golden")
    print(f"  digest {digest or '-'}"
          + (f" (recorded: {'match' if expected == digest else 'MISMATCH'})" if expected else ""))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(gc),
        **record,
        "metrics": {k: {"value": v, "unit": u, "count": counts.get(k)}
                    for k, (v, u) in metrics.items()},
        "failures": stats["failures"][:100],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in sorted(wanted) if name in metrics},
    }
    print(json.dumps(result))
    return 0 if stats["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
