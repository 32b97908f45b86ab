"""A fixed reference workload that tracks this machine's speed.

On a shared VM the speed of pure-Python code drifts by ±30% between
minutes, which no amount of work inside one run averages away.  The
benchmark therefore times this workload between jobs and reports every
time at the *reference speed*: a job's wall time times REF_NOMINAL_S over
the reference time measured around it.  The workload is the benchmark's
own code (no genconvex), of the same kind as genconvex's hot paths:
recursive evaluation of expression trees at the nodes of a 15-point rule,
plus formatting a few report rows.  On the 2-vCPU VM it was tuned on, one
call takes 0.6-1.0 ms of wall time.
"""

from __future__ import annotations

import random
import statistics
import time

from funcs import eval_tree, gen_smooth

# Reported times are wall times scaled to a machine on which one call of
# reference_work() takes this long (about the median on the tuning VM).
REF_NOMINAL_S = 0.8e-3
# Jobs run between two reference samples, in seconds of job time.
REF_EVERY_S = 0.05
# Samples on each side of a job that its speed factor is the median of.
REF_WINDOW = 5

_rng = random.Random("reference")
_TREES = [gen_smooth(_rng, n) for n in (4, 6, 8, 10, 5, 7, 9, 6)]
_NODES = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
    -0.5860872354676911, -0.4058451513773972, -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
    0.8648644233597691, 0.9491079123427585, 0.9914553711208126,
)


def reference_work():
    total = 0.0
    for tree in _TREES:
        for panel in range(4):
            a = panel / 4
            for x in _NODES:
                total += eval_tree(tree, a + 0.125 * (1.0 + x))
    rows = [{"i": i, "v": format(total * i, ".17g")} for i in range(50)]
    return total, len(rows)


def sample() -> float:
    """Wall time of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def local_factors(samples, count):
    """Speed factor (reference time / nominal) for each of ``count`` jobs.

    ``samples`` holds (number of jobs done when the sample was taken,
    seconds); a job's factor is the median of the REF_WINDOW samples on
    each side of it.
    """
    positions = [done for done, _ in samples]
    seconds = [s for _, s in samples]
    factors = []
    k = 0
    for job in range(count):
        while k < len(positions) and positions[k] <= job:
            k += 1
        lo = max(0, min(k - REF_WINDOW, len(seconds) - 2 * REF_WINDOW))
        factors.append(statistics.median(seconds[lo:lo + 2 * REF_WINDOW]) / REF_NOMINAL_S)
    return factors
