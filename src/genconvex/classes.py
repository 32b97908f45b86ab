"""Convexity classes as one parameterized defect functional.

Every class handled here is an instance of the same inequality

    f(t*phi(x) + m*(1-t)*phi(y))  <=  h(t)*f(phi(x)) + m*h(1-t)*f(phi(y))

for x, y in [0, B] and t in (0, 1).  The *defect* is rhs - lhs; f belongs
to the class on the sampled points iff the defect is nonnegative there.
Specializing (h, m, phi) recovers each named class:

    convex        h(t)=t  m=1  phi=id
    m_convex      h(t)=t       phi=id
    h_convex              m=1  phi=id
    hm_convex                  phi=id
    phi_convex    h(t)=t  m=1
    phi_h_convex          m=1
    phi_hm_convex unrestricted

Because every tag routes through the single :func:`defect` implementation,
a fully-parameterized spec and its reduced-tag counterpart produce
bit-identical defects on identical inputs.

Membership here is decided by sampling: :func:`certify_sampled` reports the
minimum defect over a deterministic probe set (evidence, not proof), and
:func:`falsify` searches for a witness triple with negative defect.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import CatalogError, EvalDomainError, PhiRangeError
from .funcdsl import FuncDef, catalog, domain_slack, identity_on

__all__ = [
    "CLASS_TAGS",
    "FREE_PARAMS",
    "ClassSpec",
    "class_spec",
    "Counterexample",
    "CertificationReport",
    "defect",
    "falsify",
    "certify_sampled",
    "DEFAULT_CERTIFY_N",
    "DEFAULT_FALSIFY_BUDGET",
    "DEFAULT_DEFECT_TOL",
]

# Which of h, m and phi each class tag leaves free; the tag pins the others
# to h(t)=t, m=1 and phi=identity.
FREE_PARAMS = {
    "convex": (),
    "m_convex": ("m",),
    "h_convex": ("h",),
    "hm_convex": ("h", "m"),
    "phi_convex": ("phi",),
    "phi_h_convex": ("h", "phi"),
    "phi_hm_convex": ("h", "m", "phi"),
}
CLASS_TAGS = tuple(FREE_PARAMS)

# Defects in (-tol, 0) are attributed to roundoff for the catalog functions.
DEFAULT_DEFECT_TOL = 1e-9
DEFAULT_CERTIFY_N = 10_000
DEFAULT_FALSIFY_BUDGET = 20_000

_SAMPLED_EVIDENCE_NOTE = "sampled evidence only, not a proof of membership"


def _is_identity(f: FuncDef) -> bool:
    return f.source.key in (("catalog", "identity", ()), ("catalog", "power", (1.0,)))


@dataclass(frozen=True)
class ClassSpec:
    """One convexity class instance: tag plus the (h, m, phi) parameters and
    the domain [0, bound] the quantifiers range over."""

    tag: str
    h: FuncDef
    m: float
    phi: FuncDef
    bound: float

    def __post_init__(self):
        if self.tag not in CLASS_TAGS:
            raise CatalogError(f"unknown class tag '{self.tag}'")
        if not (0.0 < self.m <= 1.0):
            raise CatalogError(f"modulus m must be in (0, 1], got {self.m!r}")
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise CatalogError(f"domain bound must be finite positive, got {self.bound!r}")
        free = FREE_PARAMS[self.tag]
        if "h" not in free and not _is_identity(self.h):
            raise CatalogError(f"tag '{self.tag}' forces h(t)=t, got h={self.h.label}")
        if "m" not in free and self.m != 1.0:
            raise CatalogError(f"tag '{self.tag}' forces m=1, got m={self.m!r}")
        if "phi" not in free and not _is_identity(self.phi):
            raise CatalogError(f"tag '{self.tag}' forces phi=identity, got phi={self.phi.label}")

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.bound)


def class_spec(
    tag: str,
    h: FuncDef | None = None,
    m: float | None = None,
    phi: FuncDef | None = None,
    bound: float = 1.0,
) -> ClassSpec:
    """Build a ClassSpec, filling the parameters the tag forces.

    Passing a parameter the tag pins to a different value is an error, so a
    'convex' spec can never silently carry a foreign h or m.
    """
    if tag not in CLASS_TAGS:
        raise CatalogError(f"unknown class tag '{tag}'")
    if h is None:
        h = catalog("identity", (), (0.0, 1.0))
    if m is None:
        m = 1.0
    if phi is None:
        phi = identity_on((0.0, bound))
    return ClassSpec(tag=tag, h=h, m=float(m), phi=phi, bound=float(bound))


@dataclass(frozen=True)
class Counterexample:
    """Witness (x, y, t) where the class inequality fails.

    ``lhs`` is f at the blend point, ``rhs`` the weighted combination;
    defect = rhs - lhs < -tol for the tolerance used by the search.
    """

    x: float
    y: float
    t: float
    defect: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CertificationReport:
    """Sampled-membership evidence: the minimum defect over the probe set."""

    min_defect: float
    argmin: tuple[float, float, float]
    samples_ok: int
    samples_skipped: int
    certified: bool
    note: str = _SAMPLED_EVIDENCE_NOTE


def defect(f: FuncDef, spec: ClassSpec, x: float, y: float, t: float) -> float:
    """rhs - lhs of the class inequality at one triple.

    Preconditions: x, y in [0, bound], t in (0, 1).  phi values outside the
    class domain raise PhiRangeError; a blend point outside the domain of f
    raises EvalDomainError (a precondition failure, not a counterexample).
    """
    lo, hi = spec.domain
    if not (lo <= x <= hi and lo <= y <= hi):
        raise EvalDomainError(f"probe ({x!r}, {y!r}) outside class domain [0, {hi!r}]", x)
    if not (0.0 < t < 1.0):
        raise EvalDomainError(f"t={t!r} outside (0, 1)", t)
    return _defect_probe(f, spec)(x, y, t)[0]


def _defect_probe(f, spec):
    """The class inequality for fixed (f, spec), as a function of (x, y, t)
    returning the defect plus the two sides, for witness reporting.

    The one implementation behind :func:`defect` and both searches; the
    spec's parameters, the evaluators of f, h and phi (what calling each
    FuncDef forwards to) and the phi-range slack are bound once here.
    """
    lo, hi = spec.domain
    f, h, phi, m = f._evaluator, spec.h._evaluator, spec.phi._evaluator, spec.m
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack

    def probe(x, y, t):
        px = phi(x)
        py = phi(y)
        if not (below <= px <= above and below <= py <= above):
            raise PhiRangeError(
                f"phi={spec.phi.label} escapes [0, {hi!r}]: phi({x!r})={px!r}, phi({y!r})={py!r}",
                px if not (below <= px <= above) else py,
            )
        blend = t * px + m * (1.0 - t) * py
        rhs = h(t) * f(px) + m * h(1.0 - t) * f(py)
        lhs = f(blend)
        return rhs - lhs, lhs, rhs

    return probe


# --- deterministic probe generation ---------------------------------------

def _halton(index: int, base: int) -> float:
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


_T_INTERIOR = 1e-12  # t is quantified over the open interval


def _quasi_triples(n: int, seed: int, lo: float, hi: float):
    """n low-discrepancy (x, y, t) probes; the seed offsets the sequence."""
    width = hi - lo
    offset = (seed % 100_000) * 7 + 1
    for k in range(offset, offset + n):
        x = lo + width * _halton(k, 2)
        y = lo + width * _halton(k, 3)
        t = min(max(_halton(k, 5), _T_INTERIOR), 1.0 - _T_INTERIOR)
        yield x, y, t


def _boundary_grid(lo: float, hi: float):
    """Fixed boundary-biased grid: endpoints and near-endpoint x, y paired
    with interior t including the midpoints 1/4, 1/2, 3/4."""
    width = hi - lo
    xs = [lo + width * c for c in (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)]
    ts = (1.0 / 32.0, 0.25, 0.5, 0.75, 31.0 / 32.0)
    return itertools.product(xs, xs, ts)


def _probe_set(n: int, seed: int, lo: float, hi: float):
    """Both searches' first phase: the boundary grid, then n Halton triples."""
    return itertools.chain(_boundary_grid(lo, hi), _quasi_triples(n, seed, lo, hi))


def _scan(probe, probes, best=None):
    """Minimum defect of ``probe`` over the probes and the incumbent ``best``
    (a (defect, x, y, t, lhs, rhs) tuple, or None), with the counts of
    probes evaluated and skipped.  Equal defects go to the lexicographically
    smaller triple; an equal (defect, x, y, t) keeps the incumbent."""
    best_key = None if best is None else best[:4]
    ok = 0
    skipped = 0
    for x, y, t in probes:
        try:
            d, lhs, rhs = probe(x, y, t)
        except PhiRangeError:
            raise
        except EvalDomainError:
            skipped += 1
            continue
        ok += 1
        key = (d, x, y, t)
        if best is None or key < best_key:
            best = (d, x, y, t, lhs, rhs)
            best_key = key
    return best, ok, skipped


def certify_sampled(
    f: FuncDef,
    spec: ClassSpec,
    n: int = DEFAULT_CERTIFY_N,
    seed: int = 0,
    tol: float = DEFAULT_DEFECT_TOL,
) -> CertificationReport:
    """Evaluate the defect on n quasi-random triples plus the fixed
    boundary-biased grid and report the minimum.

    certified is True iff min_defect >= -tol.  The report is sampled
    evidence, not a proof; the note says so.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = spec.domain
    best, ok, skipped = _scan(_defect_probe(f, spec), _probe_set(n, seed, lo, hi))
    if best is None:
        raise EvalDomainError("every probe fell outside the domain of f", lo)
    d, x, y, t, _, _ = best
    return CertificationReport(
        min_defect=d,
        argmin=(x, y, t),
        samples_ok=ok,
        samples_skipped=skipped,
        certified=d >= -tol,
    )


def falsify(
    f: FuncDef,
    spec: ClassSpec,
    budget: int = DEFAULT_FALSIFY_BUDGET,
    seed: int = 0,
    tol: float = DEFAULT_DEFECT_TOL,
    stats_out: Optional[dict] = None,
) -> Optional[Counterexample]:
    """Search for a triple with defect < -tol; None when none is found.

    Deterministic for a given seed.  Phase one is the certifier's probe set
    with budget // 2 quasi-random triples, so at budget 2n and the same seed
    it repeats the scan of ``certify_sampled(n)``; phase two sharpens the
    incumbent with 20 rounds of Gaussian perturbation, halving the spread
    each round.  Probes that land outside the domain of f are skipped and
    counted in ``stats_out``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lo, hi = spec.domain
    probe = _defect_probe(f, spec)
    best, ok, skipped = _scan(probe, _probe_set(budget // 2, seed, lo, hi))

    rng = random.Random(seed)
    remaining = max(0, budget - ok - skipped)
    rounds = 20
    per_round = remaining // rounds
    if best is not None and per_round > 0:
        sigma_xy = (hi - lo) / 4.0
        sigma_t = 0.25
        for _ in range(rounds):
            bx, by, bt = best[1], best[2], best[3]
            # drawn while _scan consumes them, before the spread is halved
            local = (
                (min(max(bx + rng.gauss(0.0, sigma_xy), lo), hi),
                 min(max(by + rng.gauss(0.0, sigma_xy), lo), hi),
                 min(max(bt + rng.gauss(0.0, sigma_t), _T_INTERIOR), 1.0 - _T_INTERIOR))
                for _ in range(per_round)
            )
            best, cok, cskip = _scan(probe, local, best)
            ok += cok
            skipped += cskip
            sigma_xy *= 0.5
            sigma_t *= 0.5

    if stats_out is not None:
        stats_out["probes_ok"] = ok
        stats_out["probes_skipped"] = skipped
    if best is None or best[0] >= -tol:
        return None
    d, x, y, t, lhs, rhs = best
    return Counterexample(x=x, y=y, t=t, defect=d, lhs=lhs, rhs=rhs)
