#!/usr/bin/env python3
"""genconvex benchmark: a fixed, seed-generated job list per workload.

Usage, from the repository root:

    python3 bench/run.py --workload membership --seed 1 --seconds 10 --trace 0

The job list is generated from (workload, seed, seconds) and run serially
in this process; it is never a time-boxed loop, so every run attempts the
same work.  Times are reported at the reference speed of ``reference.py``
(wall times go to standard error).  After the timed pass every output is
checked against the oracle in ``oracle.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of a second, traced pass, whose spans and counters are written as
JSON lines to ``bench/out/``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import WORKLOADS, make_jobs, run_cli, run_membership  # noqa: E402

SETUP_SAMPLES = 9
SLICES = 10
# highest percentile with at least ten jobs beyond it, from this ladder
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def load_program():
    """Import genconvex from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import genconvex
    from genconvex import algebra, classes, cli, funcdsl, quad, theorems

    if not Path(genconvex.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"genconvex was imported from {genconvex.__file__}, not from {SRC}")
    return SimpleNamespace(package=genconvex, funcdsl=funcdsl, algebra=algebra, quad=quad,
                           classes=classes, theorems=theorems, cli=cli)


def setup_probe(args) -> tuple[float, float]:
    """One set-up in a fresh process: import genconvex and generate the job
    list.  Returns its wall time and the speed factor measured around it."""
    before = [reference.sample() for _ in range(reference.REF_WINDOW)]
    start = time.perf_counter()
    load_program()
    make_jobs(args.workload, args.seed, args.seconds)
    elapsed = time.perf_counter() - start
    after = [reference.sample() for _ in range(reference.REF_WINDOW)]
    return elapsed, statistics.median(before + after) / reference.REF_NOMINAL_S


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up wall times of SETUP_SAMPLES fresh interpreters, and their speed factors."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples, factors = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        elapsed, factor = map(float, done.stdout.split()[-2:])
        samples.append(elapsed)
        factors.append(factor)
    return samples, factors


def execute(jobs, gc, sweep_jobs=1, tracer=None):
    """Run every job once, sampling the reference workload between jobs.

    Returns (outputs, per-job seconds, digests, reference samples).
    """
    outputs, times, digests = [], [], []
    ref_samples = [(0, reference.sample()) for _ in range(reference.REF_WINDOW)]
    since_sample = 0.0
    for index, job in enumerate(jobs):
        if job.kind in ("certify", "falsify"):
            call, job_args = run_membership, (job, gc)
        else:
            call, job_args = run_cli, (job, gc, sweep_jobs)
        start = time.perf_counter()
        try:
            if tracer is None:
                output = call(*job_args)
            else:
                output = tracer.run_job(index, call, *job_args)
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            output = exc
        times.append(time.perf_counter() - start)
        since_sample += times[-1]
        if since_sample >= reference.REF_EVERY_S:
            ref_samples.append((index + 1, reference.sample()))
            since_sample = 0.0
        if isinstance(output, tuple):  # CLI job: keep the items, digest the report text
            report, text = output
            output = {"items": [_compact(item) for item in report["items"]]}
        else:
            text = repr(output)
        outputs.append(output)
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    ref_samples += [(len(jobs), reference.sample()) for _ in range(reference.REF_WINDOW)]
    return outputs, times, digests, ref_samples


def _compact(item):
    """A report item without its echoed inputs, which the oracle does not
    need; keeping them would swell the benchmark's own share of peak RSS."""
    if item["kind"] == "cell":
        return {**item, "result": _compact(item["result"])}
    return {k: v for k, v in item.items() if k != "inputs"}


def percentile(sorted_values, p):
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def sliced_throughput(jobs, times) -> float:
    """Median of jobs/s over SLICES runs of consecutive whole blocks.

    Every block has the same make-up, so the slices carry equal work and
    their median is not moved by a burst of contention on the machine.
    """
    blocks = jobs[-1].block + 1
    count, busy = [0] * SLICES, [0.0] * SLICES
    for job, seconds in zip(jobs, times):
        k = job.block * SLICES // blocks
        count[k] += 1
        busy[k] += seconds
    return statistics.median(c / b for c, b in zip(count, busy) if c)


def end_to_end(jobs, times, setup_times, peak_rss_mb):
    ordered = sorted(times)
    return {
        "jobs_per_s": (sliced_throughput(jobs, times), "1/s"),
        "job_p50_ms": (percentile(ordered, 50.0) * 1e3, "ms"),
        "job_tail_ms": (percentile(ordered, tail_percentile(len(times))) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def at_reference_speed(times, factors):
    return [t / f for t, f in zip(times, factors)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, help="sets the job-list length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1, help="run_scenario jobs for sweeps")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(*setup_probe(args))
            return 0
        gc = load_program()
    except ImportError as exc:
        print(f"bench: cannot import genconvex from {SRC}: {exc}", file=sys.stderr)
        return 2

    setup_samples, setup_factors = measure_setup(args)
    jobs = make_jobs(args.workload, args.seed, args.seconds)
    outputs, times, digests, ref_samples = execute(jobs, gc, args.jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factors = reference.local_factors(ref_samples, len(jobs))
    metrics = end_to_end(jobs, at_reference_speed(times, factors),
                         at_reference_speed(setup_samples, setup_factors), peak_rss_mb)
    wall = end_to_end(jobs, times, setup_samples, peak_rss_mb)
    identical = True
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(gc)
        try:
            _, traced_times, traced_digests, traced_refs = execute(jobs, gc, args.jobs, tracer)
        finally:
            tracer.uninstall()
        identical = traced_digests == digests
        untraced = sum(at_reference_speed(times, factors))
        traced = sum(at_reference_speed(traced_times, reference.local_factors(traced_refs, len(jobs))))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "jobs": len(jobs),
            "untraced_s": untraced, "traced_s": traced, "overhead_share": traced / untraced - 1.0,
            "outputs_identical": identical,
        })
        print(f"trace: {trace_path.relative_to(ROOT)}; overhead {traced / untraced - 1.0:.1%} "
              f"({traced:.2f} s traced, {untraced:.2f} s untraced, at the reference speed)", file=sys.stderr)
        metrics = tracer.metrics()

    from oracle import Oracle  # imports mpmath, so only after peak RSS was read

    checked = time.perf_counter()
    oracle = Oracle()
    failed = 0
    unexpected = []
    for job, output in zip(jobs, outputs):
        reason = oracle.check(job, output)
        if reason is None:
            continue
        failed += 1
        named_fault = job.case in ("F1", "F2") and not isinstance(output, BaseException) \
            and output["items"][0]["status"] == "indeterminate"
        if not named_fault:
            unexpected.append(f"{job.kind}/{job.case} {job.params.get('raw', {}).get('name', '')}: {reason}")
    for line in unexpected[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(jobs)} jobs in {sum(times):.2f} s, "
          f"{failed} failed ({len(unexpected)} outside the named faults), "
          f"setup samples {[round(s, 4) for s in setup_samples]}, "
          f"oracle {time.perf_counter() - checked:.1f} s", file=sys.stderr)
    print("bench: wall-clock " + json.dumps({name: value for name, (value, _) in wall.items()}), file=sys.stderr)
    print(f"bench: speed factor median {statistics.median(factors):.3f} "
          f"(min {min(factors):.3f}, max {max(factors):.3f})", file=sys.stderr)

    result = {
        "correct": not unexpected and identical,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
