"""The benchmark's traced contract: every workload passes its own checks,
including the verification jobs it runs after the timed passes, and one
traced pass finds every layer entry point and yields every per-layer
metric that BENCHMARK.json names.  A refactor that renames an entry point the
tracer finds by name, or stops calling it, fails here instead of silently
dropping metrics from the benchmark's result line."""

import json
import sys
from pathlib import Path

import pytest

import gridcode
import gridcode.cli  # noqa: F401 - the workloads call gridcode.cli.main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The run.* metrics come from bench/run.py's pass loop, not from the tracer.
LAYER_METRICS = sorted(m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("run."))


def test_benchmark_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_yields_every_layer_metric(workload, tmp_path):
    plan = workloads.WORKLOADS[workload](gridcode, 0, tmp_path)
    spans = tracer.Tracer()
    spans.install()
    try:
        mark = spans.mark()
        failures = []
        for job in plan.jobs:
            _, bad = job.check(job.run())
            failures += bad
        metrics = spans.metrics(mark)
    finally:
        spans.uninstall()
    for job in plan.verify:
        _, bad = job.check(job.run())
        failures += bad
    assert spans.missing == []
    assert failures == []
    assert [name for name in LAYER_METRICS if name not in metrics] == []
