"""Record digests of the exact-oracle workload's outputs into golden.json.

    python3 bench/record_golden.py [FIRST_SEED LAST_SEED]

For each seed, one pass of the workload's oracle jobs is run and checked,
and the digest of every (distance, tie-broken nearest coefficient vector) is
stored.  The benchmark compares its own digest against this record when it
runs with a recorded seed, which catches a fast path that changes ties.
Only re-record when the change to the oracle's outputs is intended.
"""

import json
import sys

import run

GOLDEN = run.HERE / "golden.json"


def main(first=0, last=99):
    gc = run.import_gridcode()
    from workloads import WORKLOADS

    digests = {}
    for seed in range(first, last + 1):
        plan = WORKLOADS["exact-oracle"](gc, seed, None)
        for job in plan.jobs:
            if job.kind == "oracle":
                _, bad = job.check(job.run())
                if bad:
                    sys.exit(f"seed {seed}: {bad}")
        digests[str(seed)] = plan.digest()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.setdefault("exact-oracle", {}).update(digests)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
