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
:func:`falsify` searches for a witness triple with negative defect.  Both
scan that probe set column-wise, in chunks of _CHUNK probes: phi, h, the
blend and f are evaluated over a chunk's columns by their batch forms, with
the operations of the one-probe path per probe, and a chunk that the batch
forms cannot promise (a point outside a domain or the phi range, an error) is
scanned again probe by probe, so the reports, counts and errors are the
one-probe path's.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, mul, sub
from typing import Optional

from .algebra import check_modulus
from .errors import CatalogError, EvalDomainError, PhiRangeError
from .funcdsl import (
    BATCH_ERRORS,
    FuncDef,
    Var,
    _NeedsScalar,
    catalog,
    domain_slack,
    identity_on,
    inside,
)

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
    # an expression that is its own variable compiles to the catalog identity
    key = f.source.key
    return key in (("catalog", "identity", ()), ("catalog", "power", (1.0,))) or (
        key[0] == "expr" and key[1] == Var(key[2]))


def _check_bound(bound: float) -> None:
    if not (bound > 0.0 and math.isfinite(bound)):
        raise CatalogError(f"domain bound must be finite positive, got {bound!r}")


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
        check_modulus(self.m)
        _check_bound(self.bound)
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
    bound = float(bound)
    _check_bound(bound)  # before the default phi is built on [0, bound]
    if h is None:
        h = catalog("identity", (), (0.0, 1.0))
    if m is None:
        m = 1.0
    if phi is None:
        phi = identity_on((0.0, bound))
    return ClassSpec(tag=tag, h=h, m=float(m), phi=phi, bound=bound)


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
    spec's parameters, the evaluators of f, h and phi and the phi-range slack
    are bound once here.  h is only ever called at t and fl(1 - t), both in
    [0, 1], and phi at x and y in [0, bound] (the grid and the Halton points
    lie there, refinement clamps to it and :func:`defect` checks it), so
    each is bound through ``FuncDef.on`` over that interval.  f's check
    keeps its slack and error path; only its first branch is inlined.
    """
    lo, hi = spec.domain
    h, phi = spec.h.on(0.0, 1.0).fn, spec.phi.on(lo, hi).fn
    f_fn, f_eval, (f_lo, f_hi), m = f.source.fn, f._evaluator, f.domain, spec.m
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
        rhs = (h(t) * (f_fn(px) if f_lo <= px <= f_hi else f_eval(px))
               + m * h(1.0 - t) * (f_fn(py) if f_lo <= py <= f_hi else f_eval(py)))
        lhs = f_fn(blend) if f_lo <= blend <= f_hi else f_eval(blend)
        return rhs - lhs, lhs, rhs

    return probe


def _defect_columns(f, spec):
    """The batch form of :func:`_defect_probe`: (xs, ys, ts) lists -> the
    lists of defects, lhs and rhs, with the probe's operations per probe.
    Raises one of BATCH_ERRORS where the probe would raise or skip at some
    probe, or where a batch form cannot promise the probe's values."""
    lo, hi = spec.domain
    h, phi = spec.h.on(0.0, 1.0).batch, spec.phi.on(lo, hi).batch
    f_batch, m = f.batch, spec.m
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack

    def columns(xs, ys, ts):
        n = len(xs)
        pxy = phi(xs + ys)
        if not inside(pxy, below, above):
            raise _NeedsScalar  # the probe names the point that escapes
        px, py = pxy[:n], pxy[n:]
        one_minus_t = list(map(sub, repeat(1.0), ts))
        blend = list(map(add, map(mul, ts, px), map(mul, map(mul, repeat(m), one_minus_t), py)))
        h_both, f_all = h(ts + one_minus_t), f_batch(pxy + blend)
        rhs = list(map(add, map(mul, h_both[:n], f_all[:n]),
                       map(mul, map(mul, repeat(m), h_both[n:]), f_all[n:2 * n])))
        lhs = f_all[2 * n:]
        return list(map(sub, rhs, lhs)), lhs, rhs

    return columns


# --- deterministic probe generation ---------------------------------------

# Radical inverses are folded digit by digit from the lowest, adding f_j*d_j
# with f_j = ((1/b)/b)...; so the sum over the low L digits of k depends on
# k mod b^L alone, and adding f_j*0 = +0.0 to a nonnegative partial sum is
# exact.  _fold_table(b) holds that L-digit sum for every residue; a radical
# inverse is its entry plus the high digits, added in the same order with the
# same operations, so every value is the digit-by-digit fold's bit for bit.
_FOLD_DIGITS = {2: 12, 3: 7, 5: 5}


@functools.cache
def _fold_table(base: int):
    """The L-digit folds of 0, ..., b^L - 1 and f_L, built on first use."""
    # imported on first use: the verifiers and the CLI import classes but
    # scan no defect, and loading the module cost them 0.13 MB of peak RSS
    from array import array

    table = array("d", [0.0])
    f = 1.0
    for _ in range(_FOLD_DIGITS[base]):
        f /= base
        level = array("d")
        level.extend(v + f * d for d in range(base) for v in table)
        table = level
    return table, f


def _radical_inverses(base: int, start: int, stop: int):
    """The base-b radical inverses of start, ..., stop - 1."""
    return chain.from_iterable(_radical_blocks(base, start, stop))


def _radical_blocks(base: int, start: int, stop: int):
    # one block per run of indices that share their high digits
    table, f_low = _fold_table(base)
    size = len(table)
    k = start
    while k < stop:
        high, low = divmod(k, size)
        end = min(stop, k - low + size)
        block = table[low:low + end - k]
        f = f_low
        while high > 0:
            f /= base
            d = high % base
            if d:  # a zero digit adds +0.0, which changes nothing
                block = map((f * d).__add__, block)
            high //= base
        yield block
        k = end


_T_INTERIOR = 1e-12  # t is quantified over the open interval
# Probes per chunk of phase one: each column of a chunk is one list, so the
# scan holds a few lists of this length at a time, never the whole probe set.
_CHUNK = 128


def _boundary_grid(lo: float, hi: float):
    """Fixed boundary-biased grid: endpoints and near-endpoint x, y paired
    with interior t including the midpoints 1/4, 1/2, 3/4."""
    width = hi - lo
    xs = [lo + width * c for c in (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)]
    ts = (1.0 / 32.0, 0.25, 0.5, 0.75, 31.0 / 32.0)
    return itertools.product(xs, xs, ts)


def _probe_columns(n: int, seed: int, lo: float, hi: float):
    """Both searches' first phase, the boundary grid and then n Halton
    triples (the seed offsets the sequence), as (xs, ys, ts) lists of
    _CHUNK probes each, the last one shorter."""
    width = hi - lo
    offset = (seed % 100_000) * 7 + 1
    stop = offset + n
    grid_x, grid_y, grid_t = zip(*_boundary_grid(lo, hi))
    xs = chain(grid_x, map(add, repeat(lo), map(mul, repeat(width), _radical_inverses(2, offset, stop))))
    ys = chain(grid_y, map(add, repeat(lo), map(mul, repeat(width), _radical_inverses(3, offset, stop))))
    ts = chain(grid_t, map(min, map(max, _radical_inverses(5, offset, stop), repeat(_T_INTERIOR)),
                           repeat(1.0 - _T_INTERIOR)))
    while True:
        x = list(islice(xs, _CHUNK))
        if not x:
            return
        yield x, list(islice(ys, _CHUNK)), list(islice(ts, _CHUNK))


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


def _scan_columns(f, spec, probe, n: int, seed: int):
    """:func:`_scan` of ``probe`` over the probe set of the first phase, by
    column chunks: a chunk that the batch forms evaluate is folded in with
    ``min``, whose "replace if strictly less" over the incumbent and then
    the chunk's (defect, x, y, t, lhs, rhs) in order is ``_scan``'s, NaN
    defects included; any other chunk is scanned by ``probe``."""
    lo, hi = spec.domain
    columns = _defect_columns(f, spec)
    best, ok, skipped = None, 0, 0
    for xs, ys, ts in _probe_columns(n, seed, lo, hi):
        try:
            d, lhs, rhs = columns(xs, ys, ts)
        except BATCH_ERRORS:
            best, chunk_ok, chunk_skipped = _scan(probe, zip(xs, ys, ts), best)
            ok += chunk_ok
            skipped += chunk_skipped
            continue
        best = min(chain(() if best is None else (best,), zip(d, xs, ys, ts, lhs, rhs)))
        ok += len(xs)
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
    best, ok, skipped = _scan_columns(f, spec, _defect_probe(f, spec), n, seed)
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
    best, ok, skipped = _scan_columns(f, spec, probe, budget // 2, seed)

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
