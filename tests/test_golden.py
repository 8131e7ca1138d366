"""The exact-oracle benchmark's recorded digests, checked in the test suite.

``bench/golden.json`` pins the (distance, tie-broken nearest codeword) output
of every oracle job of the exact-oracle workload for seeds 0-99.  Running the
jobs of every one of those seeds here keeps every fast nearest-codeword path
on the recorded tie-break.  The bench files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gridcode
import gridcode.cli  # noqa: F401  (the workloads reach every module through the package)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text())["exact-oracle"]


@pytest.mark.parametrize("seed", range(100))
def test_exact_oracle_jobs_match_recorded_digest(seed):
    plan = WORKLOADS.exact_oracle(gridcode, seed, None)
    jobs = [job for job in plan.jobs if job.kind == "oracle"]
    assert len(jobs) == len(WORKLOADS.ORACLE_KEYS) * len(WORKLOADS.ORACLE_DELTAS)
    for job in jobs:
        _, bad = job.check(job.run())
        assert bad == []
    assert plan.digest() == GOLDEN[str(seed)]
