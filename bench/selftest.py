#!/usr/bin/env python3
"""Quick self-tests of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's test
command does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from funcs import nodes, render  # noqa: E402
from workloads import WORKLOADS, make_jobs, run_cli  # noqa: E402


def test_job_lists_are_deterministic_per_seed():
    for workload in WORKLOADS:
        first, again, other = (make_jobs(workload, seed, 2) for seed in (7, 7, 8))
        assert repr(first) == repr(again), workload
        assert repr(first) != repr(other), workload


def test_hh_distinct_never_repeats_a_weight_or_a_job():
    jobs = make_jobs("hh_distinct", 3, 20)
    weights = [s for job in jobs for s in job.params["weights"]]
    assert len(weights) == len(set(weights))
    scenarios = [json.dumps({k: v for k, v in job.params["raw"].items() if k != "name"}, sort_keys=True)
                 for job in jobs]
    assert len(scenarios) == len(set(scenarios))


def test_fault_share_is_the_same_for_every_seed():
    for seed in (1, 2, 3):
        jobs = make_jobs("hh_distinct", seed, 5)
        faults = sum(job.case in ("F1", "F2") for job in jobs)
        assert faults * 25 == len(jobs), (seed, faults, len(jobs))


def test_oracle_reproduces_sqrt_weight_moments():
    from mpmath import mp
    from oracle import weight_moments

    m1, m2, mx = weight_moments(0.5)
    assert abs(m1 - mp.mpf(2) / 3) < 1e-18 and abs(m2 - mp.mpf(1) / 2) < 1e-18 and abs(mx - mp.pi / 8) < 1e-18


def test_membership_dsl_sizes_match_the_parser():
    gc = run.load_program()
    Const, Var, Unary = gc.funcdsl.Const, gc.funcdsl.Var, gc.funcdsl.Unary

    def count(node):
        if isinstance(node, (Const, Var)):
            return 1
        if isinstance(node, Unary):
            return 1 + count(node.arg)
        return 1 + count(node.left) + count(node.right)

    sizes = set()
    for job in make_jobs("membership", 5, 1):
        f = job.params["f"]
        if hasattr(f, "tree"):
            assert count(gc.funcdsl.parse(render(f.tree), "x")) == nodes(f.tree)
            sizes.add(nodes(f.tree))
    assert set(range(1, 13)) <= sizes


def test_oracle_agrees_with_a_known_verdict():
    """T2_2dot for x^2 and h(t) = t on [0, 1]: lhs = 1/3, rhs = 1/2."""
    from funcs import Catalog
    from mpmath import mp
    from oracle import Oracle

    lhs, rhs = Oracle().bound("T2_2dot", Catalog("power", (2.0,)), None, 1.0, 1.0, 0.0, 1.0)
    assert abs(lhs - mp.mpf(1) / 3) < 1e-18 and abs(rhs - mp.mpf(1) / 2) < 1e-18


def test_named_fault_jobs_are_indeterminate():
    gc = run.load_program()
    faults = [job for job in make_jobs("hh_distinct", 1, 1) if job.case in ("F1", "F2")]
    assert {job.case for job in faults} == {"F1", "F2"}
    for job in faults:
        report, _ = run_cli(job, gc)
        assert report["items"][0]["status"] == "indeterminate", job.case


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(2080) == 99.5
    assert run.tail_percentile(1040) == 99.0
    assert run.tail_percentile(600) == 98.0
    assert run.tail_percentile(30) == 50.0


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, not just the first
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
