#!/usr/bin/env python3
"""SHA-256 digests of every job output of the benchmark's workloads.

Usage, from the repository root:

    python3 tools/job_digest.py --seeds 1,2,3000 --seconds 3

For each workload of ``bench/workloads.py``, the job lists of the given
seeds are generated and run once, in seed order, through ``bench/run.py``'s
``execute``, which digests each job's output: the repr of a membership
result, the machine report of a CLI job, the repr of an exception that a
job raised.  One line per workload gives its job count and one SHA-256
over those digests in order; the last line gives one SHA-256 over the
workloads' digests.  Two checkouts that print the same lines gave the
same output for every job.  Nothing is timed or checked against the
oracle, and nothing under ``bench/`` is changed.  ``tests/golden/job_digests.txt``
holds the output of ``--seeds 1 --seconds 1``, which CI diffs against it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3000")
    parser.add_argument("--seconds", type=int, default=3, help="sets each job-list length")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    gc = run.load_program()
    totals = []
    for workload in WORKLOADS:
        digests = []
        for seed in seeds:
            digests += run.execute(make_jobs(workload, seed, args.seconds), gc)[2]
        totals.append(_sha256(digests))
        print(f"{workload} {len(digests)} jobs {totals[-1]}")
    print(f"all {_sha256(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
