"""Fixed job lists for the three workloads, and the code that runs one job.

A job list is a pure function of (workload, seed, seconds): ``seconds``
fixes how many blocks the list holds, the seed draws every parameter.
Each block has the same make-up (job kinds, function sizes, grid shapes,
fault jobs), so every run attempts the same mix and the failed share is
the same for any seed.  Parameters that drive cost (node count, weight
exponent) are stratified within a block, which keeps the total work close
from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from funcs import (
    Catalog,
    Combine,
    Compose,
    Dsl,
    Segment,
    gen_any,
    gen_smooth,
    power_weight,
)

# Blocks per measured second, calibrated so that one untraced run of the
# list takes about ``seconds`` on a 2-core x86 box with Python 3.11.
BLOCKS_PER_SECOND = {"membership": 2.2, "hh_sweep": 12.0, "hh_distinct": 3.6}

CLASS_TAGS = ("convex", "m_convex", "h_convex", "hm_convex", "phi_convex", "phi_h_convex", "phi_hm_convex")
H_TAGS = ("h_convex", "hm_convex", "phi_h_convex", "phi_hm_convex")
M_TAGS = ("m_convex", "hm_convex", "phi_hm_convex")
PHI_TAGS = ("phi_convex", "phi_h_convex", "phi_hm_convex")

CERTIFY_N = 300
FALSIFY_BUDGET = 700
# One full-size certification per block (2.4% of membership jobs), slower
# than any regular job, so that the tail percentile (p99.5) falls inside
# this one kind instead of on the few most expensive random expressions.
HEAVY_CERTIFY_N = 4000

MAIN_THEOREMS = ("T2_1", "T2_2dot", "T2_2", "T2_3")
REDUCTION_PAIRS = ("T2_1_vs_T1_13", "T2_2dot_vs_T1_9", "T2_2_vs_T1_11", "T2_3_vs_T1_14")

# hh_sweep: every weight comes from this set of smooth h(t) = t^s.
SWEEP_WEIGHTS = (1.0, 1.5, 2.0, 2.5, 3.0)
# (m values, s values, x values) per sweep; one block uses each shape once.
SWEEP_SHAPES = ((4, 3, 1), (3, 2, 2), (6, 2, 1), (2, 3, 2), (3, 3, 1), (4, 2, 2), (5, 2, 1), (2, 2, 3))

# hh_distinct: regular weights t^s with s drawn from [S_LO, S_HI).  The
# lower end stays clear of F2, which starts between -0.40 and -0.42.
S_LO, S_HI = -0.35, 3.0
DISTINCT_VERIFY_PER_THEOREM = 10
DISTINCT_REDUCE_PER_PAIR = 2
# Named faults, on seed-independent inputs so that every run fails the
# same jobs.  F1: T2_2dot/T2_2 with -1 < s <= -1/2 (only m1 is needed, but
# the divergent m2 is computed).  F2: any verifier with -1/2 < s < -0.42
# (the mx integrand is evaluated where t rounds to 1.0, or h^2 overflows).
F1_RANGE = (-0.95, -0.55)
F2_RANGE = (-0.49, -0.43)
FAULT_F = (
    ("*", ("exp", ("x",)), ("sqrt", ("+", ("x",), ("c", 1.0)))),
    ("ln", ("+", ("x",), ("c", 2.0))),
    ("+", ("sqrt", ("+", ("x",), ("c", 0.5))), ("exp", ("neg", ("x",)))),
)
FAULT_G = ("exp", ("*", ("c", 0.5), ("x",)))


@dataclass
class Job:
    kind: str  # certify, falsify, sweep, verify, reduce
    case: str  # membership: member, nonmember, open; hh: regular, F1, F2
    params: dict = field(default_factory=dict)
    block: int = 0


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * BLOCKS_PER_SECOND[workload]))


def make_jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    rng = random.Random(f"{workload}/{seed}")
    blocks = block_count(workload, seconds)
    jobs = []
    for b in range(blocks):
        block = BLOCK_MAKERS[workload](rng, b, blocks)
        rng.shuffle(block)
        for job in block:
            job.block = b
            jobs.append(job)
    return jobs


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def _phi(rng):
    return rng.choice([Catalog("identity"), Catalog("power", (round(rng.uniform(0.5, 2.5), 3),)), Catalog("sqrt")])


def _weight(rng, lo, hi):
    return power_weight(round(rng.uniform(lo, hi), 4), as_dsl=rng.random() < 0.25)


def _member_f(rng, depth=0):
    """Convex, nonnegative, increasing on [0, 1] with f(0) = 0."""
    choices = ["power", "poly", "identity", "expm1", "xexp"] + (["combine", "compose"] if depth == 0 else [])
    kind = rng.choice(choices)
    if kind == "power":
        return Catalog("power", (round(rng.uniform(1.0, 3.0), 3),))
    if kind == "poly":
        return Catalog("poly", (0.0,) + tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(3)))
    if kind == "identity":
        return Catalog("identity")
    if kind == "expm1":
        return Dsl(("-", ("exp", ("x",)), ("c", 1.0)))
    if kind == "xexp":
        return Dsl(("*", ("x",), ("exp", ("*", ("c", round(rng.uniform(0.2, 2.0), 3)), ("x",)))))
    if kind == "combine":
        return Combine(_member_f(rng, 1), _member_f(rng, 1), round(rng.uniform(0.1, 2.0), 3), round(rng.uniform(0.1, 2.0), 3))
    return Compose(_member_f(rng, 1), Catalog("power", (round(rng.uniform(1.0, 2.5), 3),)))


def _concave_f(rng):
    """Concave and not affine on [0, 1]."""
    kind = rng.choice(["sqrt", "power", "poly", "ln", "sqrt_shift"])
    if kind == "sqrt":
        return Catalog("sqrt")
    if kind == "power":
        return Catalog("power", (round(rng.uniform(0.3, 0.8), 3),))
    if kind == "poly":
        return Catalog("poly", (0.0, 1.0, -round(rng.uniform(0.5, 1.0), 3)))
    if kind == "ln":
        return Dsl(("ln", ("+", ("x",), ("c", round(rng.uniform(0.5, 2.0), 3)))))
    return Dsl(("sqrt", ("+", ("x",), ("c", round(rng.uniform(0.1, 1.0), 3)))))


def _open_catalog(rng):
    kind = rng.choice(["power", "poly", "affine", "sqrt", "constant"])
    if kind == "power":
        return Catalog("power", (round(rng.uniform(0.4, 3.0), 3),))
    if kind == "poly":
        return Catalog("poly", tuple(round(rng.uniform(-1.0, 2.0), 3) for _ in range(rng.randint(2, 4))))
    if kind == "affine":
        return Catalog("affine", (round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(-1.0, 2.0), 3)))
    if kind == "constant":
        return Catalog("constant", (round(rng.uniform(-1.0, 2.0), 3),))
    return Catalog("sqrt")


def _open_dsl(rng, size):
    return Dsl(gen_any(rng, size, smooth=False))


def _open_algebra(rng, kind):
    f = _open_dsl(rng, rng.randint(1, 6))
    if kind == "combine":
        return Combine(f, _open_catalog(rng), round(rng.uniform(0.0, 2.0), 3), round(rng.uniform(0.0, 2.0), 3))
    if kind == "compose":
        return Compose(f, _phi(rng))
    return Segment(f, _phi(rng), round(rng.uniform(0.3, 1.0), 3), round(rng.uniform(0.0, 1.0), 3), round(rng.uniform(0.0, 1.0), 3))


def _membership_job(rng, kind, case, f, tag=None, h_range=(0.3, 2.5)):
    tag = tag or rng.choice(CLASS_TAGS)
    params = {
        "f": f,
        "tag": tag,
        "h": _weight(rng, *h_range) if tag in H_TAGS else None,
        "m": round(rng.uniform(0.3, 1.0), 3) if tag in M_TAGS else None,
        "phi": _phi(rng) if tag in PHI_TAGS else None,
        "seed": rng.randrange(1000),
    }
    return Job(kind, case, params)


def _membership_block(rng, _index, _blocks):
    jobs = []
    for kind in ("certify", "falsify"):
        for size in range(1, 13):
            jobs.append(_membership_job(rng, kind, "open", _open_dsl(rng, size)))
        jobs.append(_membership_job(rng, kind, "open", _open_catalog(rng)))
        for construction in ("combine", "compose", "segment"):
            jobs.append(_membership_job(rng, kind, "open", _open_algebra(rng, construction)))
        for _ in range(3):
            # h(t) = t^s with s <= 1 satisfies h(t) >= t on (0, 1)
            jobs.append(_membership_job(rng, kind, "member", _member_f(rng), h_range=(0.3, 1.0)))
        jobs.append(_membership_job(rng, kind, "nonmember", _concave_f(rng), tag="convex"))
    heavy = Catalog("poly", tuple(round(rng.uniform(-1.0, 2.0), 3) for _ in range(4)))
    jobs.append(_membership_job(rng, "certify", "open", heavy, tag="phi_hm_convex"))
    jobs[-1].params.update(n=HEAVY_CERTIFY_N, phi=Catalog("power", (round(rng.uniform(0.5, 2.5), 3),)),
                           h=power_weight(round(rng.uniform(0.3, 2.5), 4)))
    return jobs


def run_membership(job: Job, gc):
    p = job.params
    f = p["f"].build(gc)
    h = p["h"].build(gc) if p["h"] is not None else None
    phi = p["phi"].build(gc) if p["phi"] is not None else None
    spec = gc.classes.class_spec(p["tag"], h=h, m=p["m"], phi=phi, bound=1.0)
    if job.kind == "certify":
        return gc.classes.certify_sampled(f, spec, n=p.get("n", CERTIFY_N), seed=p["seed"])
    return gc.classes.falsify(f, spec, budget=FALSIFY_BUDGET, seed=p["seed"])


# --------------------------------------------------------------------------
# hh_sweep and hh_distinct: scenarios through the in-process CLI path
# --------------------------------------------------------------------------

def _hh_catalog(rng):
    kind = rng.choice(["power", "poly", "affine", "identity"])
    if kind == "power":
        return Catalog("power", (float(rng.randint(1, 3)),))
    if kind == "poly":
        return Catalog("poly", tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(4)))
    if kind == "affine":
        return Catalog("affine", (round(rng.uniform(0.0, 1.0), 3), round(rng.uniform(0.0, 2.0), 3)))
    return Catalog("identity")


def _points(rng):
    return round(rng.uniform(0.0, 0.3), 3), round(rng.uniform(0.7, 1.0), 3)


def _scenario(name, command, functions, m, x, y, **extra):
    raw = {
        "name": name,
        "command": command,
        "functions": {role: fn.binding() for role, fn in functions.items()},
        "m": m,
        "points": {"x": x, "y": y},
    }
    raw.update(extra)
    return raw


def _sweep_block(rng, index, _blocks):
    shapes = list(SWEEP_SHAPES)
    rng.shuffle(shapes)
    jobs = []
    for k, shape in enumerate(shapes):
        theorem = MAIN_THEOREMS[k % 4]
        f = Dsl(gen_smooth(rng, rng.randint(4, 9))) if k < 4 else _hh_catalog(rng)
        functions = {"f": f, "h": power_weight(SWEEP_WEIGHTS[0])}
        if theorem == "T2_3":
            functions["g"] = _hh_catalog(rng) if k < 4 else Dsl(gen_smooth(rng, rng.randint(4, 9)))
        n_m, n_s, n_x = shape
        x, y = _points(rng)
        axes = [
            {"param": "m", "values": sorted(round(rng.uniform(0.5, 1.0), 3) for _ in range(n_m))},
            {"param": "s", "values": sorted(rng.sample(SWEEP_WEIGHTS, n_s))},
        ]
        if n_x > 1:
            axes.append({"param": "x", "values": sorted(round(rng.uniform(0.0, 0.3), 3) for _ in range(n_x))})
        raw = _scenario(f"sweep-{index}-{k}", "sweep", functions, 1.0, x, y, theorem=theorem, axes=axes)
        jobs.append(Job("sweep", "regular", {"raw": raw, "functions": functions, "theorem": theorem}))
    return jobs


def _verify_job(name, case, theorem, f, g, s, as_dsl, m, x, y):
    functions = {"f": f, "h": power_weight(s, as_dsl)}
    if theorem == "T2_3":
        functions["g"] = g
    raw = _scenario(name, "verify", functions, m, x, y, theorem=theorem)
    return Job("verify", case, {"raw": raw, "functions": functions, "theorem": theorem, "weights": (s,)})


def _distinct_block(rng, b, blocks):
    # One weight per regular job, stratified over [S_LO, S_HI): stratum i
    # of block b draws from its own sub-interval, so no weight repeats.
    per_block = 4 * DISTINCT_VERIFY_PER_THEOREM + 4 * DISTINCT_REDUCE_PER_PAIR
    strata = list(range(per_block))
    rng.shuffle(strata)
    weights = iter(S_LO + (S_HI - S_LO) * (i + (b + rng.random()) / blocks) / per_block for i in strata)
    block = []
    for theorem in MAIN_THEOREMS:
        for _ in range(DISTINCT_VERIFY_PER_THEOREM):
            m = round(rng.uniform(0.5, 1.0), 3)
            x, y = _points(rng)
            f = Dsl(gen_smooth(rng, rng.randint(4, 10)))
            g = Dsl(gen_smooth(rng, rng.randint(4, 8)))
            block.append(_verify_job(f"verify-{b}-{len(block)}", "regular", theorem, f, g,
                                     next(weights), rng.random() < 0.25, m, x, y))
    for pair in REDUCTION_PAIRS:
        for _ in range(DISTINCT_REDUCE_PER_PAIR):
            s = next(weights)
            x, y = _points(rng)
            probe_fns = {"f": Dsl(gen_smooth(rng, rng.randint(4, 10))), "h": power_weight(s)}
            if pair == "T2_3_vs_T1_14":
                probe_fns["g"] = Dsl(gen_smooth(rng, rng.randint(4, 8)))
            probe = {role: fn.binding() for role, fn in probe_fns.items()}
            probe.update(m=round(rng.uniform(0.5, 1.0), 3) if pair == "T2_2_vs_T1_11" else 1.0, x=x, y=y)
            raw = {"name": f"reduce-{b}-{len(block)}", "command": "reduce", "pair": pair, "probes": [probe]}
            block.append(Job("reduce", "regular", {"raw": raw, "weights": (s,)}))
    # fault jobs: fixed inputs, the b-th of `blocks` grid points in each range
    frac = (b + 0.5) / blocks
    s1 = round(F1_RANGE[1] + (F1_RANGE[0] - F1_RANGE[1]) * frac, 6)
    s2 = round(F2_RANGE[1] + (F2_RANGE[0] - F2_RANGE[1]) * frac, 6)
    f = Dsl(FAULT_F[b % len(FAULT_F)])
    block.append(_verify_job(f"fault1-{b}", "F1", ("T2_2dot", "T2_2")[b % 2], f, None, s1, False, 0.8, 0.1, 0.9))
    block.append(_verify_job(f"fault2-{b}", "F2", MAIN_THEOREMS[b % 4], f, Dsl(FAULT_G), s2, False, 0.8, 0.1, 0.9))
    return block


BLOCK_MAKERS = {"membership": _membership_block, "hh_sweep": _sweep_block, "hh_distinct": _distinct_block}
WORKLOADS = tuple(BLOCK_MAKERS)


def run_cli(job: Job, gc, jobs: int = 1):
    """normalize_scenario -> run_scenario -> dump_machine; returns (report, text)."""
    scenario = gc.cli.normalize_scenario(job.params["raw"])
    report = gc.cli.run_scenario(scenario, jobs=jobs)
    return report, gc.cli.dump_machine(report)
