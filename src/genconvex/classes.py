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
bit-identical defects on identical inputs.  The identity that the tags pin
h and phi to is funcdsl's: built there (``identity_on``) and recognised
there (``is_identity``).

Membership here is decided by sampling: :func:`certify_sampled` reports the
minimum defect over a deterministic probe set (evidence, not proof), and
:func:`falsify` searches for a witness triple with negative defect.  That
probe set is a boundary grid, the product of 7 points x, 7 points y and 5
values t, followed by Halton triples.  Both searches scan it by columns,
through the batch forms of phi, h and f, with the operations of the
one-probe path per probe, as one list of blocks: a columns function and
its (xs, ys, ts) lists each.  The grid is the first block, built once
per class domain and scanned as a product: phi and f at its 7 points, and
h at its 5 t and their fl(1 - t), are evaluated once each, and f at its
245 blends in one batch.  The Halton triples follow in chunks of _CHUNK
probes, their coordinates read as slices of tables of radical inverses
that every scan in the process shares, or folded past the tables' ends;
on [0, 1], x and y are the tables' values themselves, since 0.0 + 1.0*u
is u.  In a chunk, 1 - t, the blends, the right sides and the defects are
each one list comprehension over the chunk.  The range of each column of
points is taken once: that of phi's images for the phi-range check, and
with it that of the blends, over which f's domain is decided once per
block (``FuncDef.on``): f's unchecked batch form where the domain holds
the range, its checked one, which refuses, where it does not.  A block
that the batch forms cannot promise (a point outside a domain or the phi
range, an error) is scanned again probe by probe, so the reports, counts
and errors are the one-probe path's.

:func:`falsify` then refines its incumbent in 20 rounds of Gaussian
perturbation, one probe at a time.  Their draws are ``rng.gauss``'s values
from ``random.Random(seed)``, taken _GAUSS_BLOCK at a time by gauss's own
Box-Muller pairs in a few list passes (:func:`_gaussians`), so a call holds
one block of draws whatever its budget; each round's probes are one list,
clamped into the domain by comparisons.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain, islice, repeat, starmap
from operator import mul
from typing import Optional

from .algebra import check_int, check_modulus
from .errors import CatalogError, EvalDomainError, PhiRangeError
from .funcdsl import (
    BATCH_ERRORS,
    FuncDef,
    _NeedsScalar,
    domain_slack,
    identity_on,
    is_identity,
    span,
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
        if "h" not in free and not is_identity(self.h):
            raise CatalogError(f"tag '{self.tag}' forces h(t)=t, got h={self.h.label}")
        if "m" not in free and self.m != 1.0:
            raise CatalogError(f"tag '{self.tag}' forces m=1, got m={self.m!r}")
        if "phi" not in free and not is_identity(self.phi):
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
        h = identity_on((0.0, 1.0))
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
    probe, or where a batch form cannot promise the probe's values.  Each
    column's range is taken once: that of phi's images for the phi-range
    check, and with it that of the blends for f's domain, which f decides
    once per block (``FuncDef.on``)."""
    lo, hi = spec.domain
    h, phi = spec.h.on(0.0, 1.0).batch, spec.phi.on(lo, hi).batch
    m = spec.m
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack

    def columns(xs, ys, ts):
        n = len(xs)
        pxy = phi(xs + ys)
        p_lo, p_hi = span(pxy)
        if not (below <= p_lo and p_hi <= above):
            raise _NeedsScalar  # the probe names the point that escapes
        one_minus_t = [1.0 - t for t in ts]
        # one comprehension per column, whose float * and + are those of
        # operator.mul and operator.add with no call per operation; zip ends
        # at the shortest column, so pxy, h_both and f_all serve as their
        # first parts
        blend = [t * px + m * u * py for t, u, px, py in zip(ts, one_minus_t, pxy, pxy[n:])]
        b_lo, b_hi = span(blend)
        h_both = h(ts + one_minus_t)
        f_all = f.on(min(p_lo, b_lo), max(p_hi, b_hi)).batch(pxy + blend)
        rhs = [ht * fx + m * hu * fy
               for ht, hu, fx, fy in zip(h_both, h_both[n:], f_all, f_all[n:])]
        lhs = f_all[2 * n:]
        return [r - l for r, l in zip(rhs, lhs)], lhs, rhs

    return columns


# --- deterministic probe generation ---------------------------------------

# Radical inverses are folded digit by digit from the lowest, adding f_j*d_j
# with f_j = ((1/b)/b)...; so the sum over the low L digits of k depends on
# k mod b^L alone, and adding f_j*0 = +0.0 to a nonnegative partial sum is
# exact.  _fold_table(b) holds that L-digit sum for every residue; a radical
# inverse is its entry plus the high digits, added in the same order with the
# same operations, so every value is the digit-by-digit fold's bit for bit.
# Every index below 5^6 = 15 625 is read as one slice of each table: every
# index that the library defaults reach (n = 10 000 at seed 0 ends at index
# 10 001), in 404 KiB for the three tables.
_FOLD_DIGITS = {2: 14, 3: 9, 5: 6}


@functools.cache
def _fold_table(base: int):
    """The L-digit folds of 0, ..., b^L - 1 and f_L, built on first use and
    never changed after."""
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


def _radical_inverses(base: int, start: int, stop: int) -> list:
    """The base-b radical inverses of start, ..., stop - 1: a slice of the
    fold table where they all lie in it, else the fold past its end."""
    table = _fold_table(base)[0]
    if stop <= len(table):
        return table[start:stop].tolist()
    return list(chain.from_iterable(_radical_blocks(base, start, stop)))


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
# Halton probes per chunk of phase one: each column of a chunk is one list,
# so the scan holds a few lists of this length at a time, never the whole
# probe set.  Each chunk pays a fixed cost in calls and slices: against 128,
# 512 took 6% off a 4 000-probe certify and 4% off the benchmark's
# membership list, whose 300-probe certifies take one chunk; 1024 and 2048
# gained no more.  512 adds about 0.2 MB to the benchmark's peak RSS.
_CHUNK = 512
# The boundary grid: x and y at these fractions of [lo, hi], endpoints and
# near-endpoint points, paired with interior t including the midpoints 1/4,
# 1/2 and 3/4.
_GRID_FRACTIONS = (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)
_GRID_TS = (1.0 / 32.0, 0.25, 0.5, 0.75, 31.0 / 32.0)


def _grid(lo: float, hi: float):
    """The boundary grid of [lo, hi]: its points, and every (x, y, t) of its
    points and t values as (xs, ys, ts), in ``itertools.product`` order,
    where x changes slowest and t fastest.  All are tuples, built once per
    domain (the memo's key holds the signs of both ends too, as that of
    ``identity_on`` does)."""
    return _grids((lo, hi), (math.copysign(1.0, lo), math.copysign(1.0, hi)))


@functools.lru_cache(maxsize=32)
def _grids(interval: tuple[float, float], signs: tuple[float, float]):
    lo, hi = interval
    width = hi - lo
    points = tuple(lo + width * c for c in _GRID_FRACTIONS)
    k, size = len(_GRID_TS), len(points)
    return (points,
            tuple(x for point in points for x in repeat(point, k * size)),
            tuple(y for point in points for y in repeat(point, k)) * size,
            _GRID_TS * (size * size))


def _grid_columns(f, spec):
    """The columns function of the boundary grid: :func:`_defect_columns`
    over the block of :func:`_grid`, which it evaluates as a product and so
    reads nothing of the lists it is given.  phi at the grid's 7 points, f
    at their images and h at its 5 t values and their fl(1 - t) are each
    evaluated once, and then f at the 245 blends in one batch, with the
    column path's operations per probe; f's domain is decided once for the
    images and once for the blends, over their ranges (``FuncDef.on``).
    Raises one of BATCH_ERRORS where the column path would raise at some
    probe of the grid."""
    lo, hi = spec.domain
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack
    phi, h, m = spec.phi.on(lo, hi).batch, spec.h.on(0.0, 1.0).batch, spec.m
    points = _grid(lo, hi)[0]
    k = len(_GRID_TS)
    one_minus_t = [1.0 - t for t in _GRID_TS]
    blend_weights = list(zip(_GRID_TS, [m * u for u in one_minus_t]))

    def columns(xs, ys, ts):
        p = phi(points)
        p_lo, p_hi = span(p)
        if not (below <= p_lo and p_hi <= above):
            raise _NeedsScalar  # the probe names the point that escapes
        h_both = h([*_GRID_TS, *one_minus_t])
        rhs_weights = list(zip(h_both[:k], [m * hu for hu in h_both[k:]]))
        fp = f.on(p_lo, p_hi).batch(p)
        blend = [t * px + mt * py for px in p for py in p for t, mt in blend_weights]
        lhs = f.on(*span(blend)).batch(blend)
        rhs = [ht * fx + mh * fy for fx in fp for fy in fp for ht, mh in rhs_weights]
        return [r - l for r, l in zip(rhs, lhs)], lhs, rhs

    return columns


def _clamped(us):
    """Radical inverses as t coordinates, clamped into the open interval."""
    return map(min, map(max, us, repeat(_T_INTERIOR)), repeat(1.0 - _T_INTERIOR))


def _probe_columns(n: int, seed: int, lo: float, hi: float):
    """The n Halton triples of both searches' first phase (the seed offsets
    the sequence), as (xs, ys, ts) lists of _CHUNK probes each, the last one
    shorter.  x and y are lo + width*u, t the clamped inverse."""
    width = hi - lo
    offset = (seed % 100_000) * 7 + 1
    stop = offset + n
    t_end = len(_fold_table(5)[0])
    for start in range(offset, stop, _CHUNK):
        end = min(stop, start + _CHUNK)
        us = _radical_inverses(2, start, end)
        vs = _radical_inverses(3, start, end)
        # t is clamped only where it is folded past the table: the offset is
        # at least 1, and every index 1, ..., 5^6 - 1 has a base-5 inverse in
        # [5^-6, 1 - 5^-6], which the clamp leaves as it is
        ts = _radical_inverses(5, start, end)
        yield (_coordinates(us, lo, width), _coordinates(vs, lo, width),
               ts if end <= t_end else list(_clamped(ts)))


def _coordinates(us: list, lo: float, width: float) -> list:
    """lo + width*u for each radical inverse u; at (lo, width) = (0, 1) the
    inverses themselves, since 0.0 + 1.0*u is u for every u >= 0."""
    if lo == 0.0 and width == 1.0:
        return us
    return [lo + width * u for u in us]


def _scan(probe, probes, best=None, ok=0, skipped=0):
    """Minimum defect of ``probe`` over the probes and the incumbent ``best``
    (a (defect, x, y, t, lhs, rhs) tuple, or None), with the counts ``ok``
    and ``skipped`` of probes evaluated and skipped, carried on by each
    probe.  Equal defects go to the lexicographically smaller triple; an
    equal (defect, x, y, t) keeps the incumbent.  A probe is tested by its
    defect first, and by its triple only where the defects are equal, which
    is how the tuples (defect, x, y, t) compare: an object is equal to
    itself (a NaN too) and to what == holds it equal to.  So a NaN defect
    neither replaces nor is replaced by another, and -0.0 against 0.0 goes
    to the triples."""
    if best is not None:
        bd, bx, by, bt = best[:4]
    for x, y, t in probes:
        try:
            d, lhs, rhs = probe(x, y, t)
        except PhiRangeError:
            raise
        except EvalDomainError:
            skipped += 1
            continue
        ok += 1
        if best is None or d < bd or ((d == bd or d is bd) and (x, y, t) < (bx, by, bt)):
            best = (d, x, y, t, lhs, rhs)
            bd, bx, by, bt = d, x, y, t
    return best, ok, skipped


def _scan_columns(f, spec, probe, n: int, seed: int):
    """:func:`_scan` of ``probe`` over the probe set of the first phase, by
    columns, as one list of (columns, xs, ys, ts) blocks: the boundary grid
    (:func:`_grid_columns`), and then the n Halton triples in chunks
    (:func:`_defect_columns`).  Where the batch forms evaluate a block, its
    rows are folded in with ``min``, whose "replace if strictly less" over
    the incumbent and then the rows, (defect, x, y, t, lhs, rhs) in order,
    is ``_scan``'s, NaN defects included; a block that they cannot promise
    is scanned by ``probe``."""
    lo, hi = spec.domain
    chunk_columns = _defect_columns(f, spec)
    blocks = chain([(_grid_columns(f, spec), *_grid(lo, hi)[1:])],
                   ((chunk_columns, *chunk) for chunk in _probe_columns(n, seed, lo, hi)))
    best, ok, skipped = None, 0, 0
    for columns, xs, ys, ts in blocks:
        try:
            d, lhs, rhs = columns(xs, ys, ts)
        except BATCH_ERRORS:
            best, ok, skipped = _scan(probe, zip(xs, ys, ts), best, ok, skipped)
        else:
            best = min(chain(() if best is None else (best,), zip(d, xs, ys, ts, lhs, rhs)))
            ok += len(xs)
    return best, ok, skipped


# Standard normals per call of _gaussians in falsify's refinement rounds,
# so that a call holds at most this many draws, whatever its budget.  Even,
# so that every block ends on a whole Box-Muller pair and the next block
# starts its own, as successive rng.gauss calls do.
_GAUSS_BLOCK = 4096
_TWOPI = 2.0 * math.pi  # random.gauss's TWOPI


def _gaussians(rng, count: int) -> list:
    """What ``count`` calls of ``rng.gauss(0.0, 1.0)`` return, for a
    generator that holds no Gaussian over from an earlier call (a fresh
    one, or one whose gauss calls ended a pair).  It is gauss's Box-Muller
    pair from two rng.random() values u and v: x2pi = u*TWOPI and g2rad =
    sqrt(-2.0*log(1.0 - v)) give cos(x2pi)*g2rad first and
    sin(x2pi)*g2rad second, taken here in one list pass per step.  An odd
    count draws the last pair whole and drops its sine."""
    n = count + count % 2
    us = list(starmap(rng.random, repeat((), n)))
    x2pi = [u * _TWOPI for u in us[0::2]]
    g2rad = [math.sqrt(-2.0 * math.log(1.0 - v)) for v in us[1::2]]
    zs = [0.0] * n
    zs[0::2] = map(mul, map(math.cos, x2pi), g2rad)
    zs[1::2] = map(mul, map(math.sin, x2pi), g2rad)
    del zs[count:]
    return zs


def _check_search(count, name: str, seed, tol: float) -> None:
    """The arguments of both searches, in this order: the probe count and
    the seed must be ints, the count at least 1 and tol nonnegative."""
    check_int(count, name)
    check_int(seed, "seed")
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    if not (tol >= 0.0):  # NaN included
        raise ValueError(f"tol must be nonnegative, got {tol!r}")


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
    evidence, not a proof; the note says so.  An n or seed that is not an
    int, or is a bool, raises TypeError; an n below 1, or a tol that is
    negative or NaN, ValueError.
    """
    _check_search(n, "n", seed, tol)
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
    with budget // 2 quasi-random triples: the 245 probes of the boundary
    grid, which are always scanned, and then those triples.  At budget 2n
    and the same seed it repeats the scan of ``certify_sampled(n)``.  Phase
    two sharpens the incumbent with 20 rounds of Gaussian perturbation,
    halving the spread each round; the rounds share what phase one left of
    the budget, so a budget below 529 leaves no round.  Their draws are
    those of ``rng.gauss`` on ``random.Random(seed)``, x, y and t in turn
    for each probe, taken a block at a time (:func:`_gaussians`).  Probes
    that land outside the domain of f are skipped, count against the budget
    and are counted in ``stats_out``.  A budget or seed that is not an int,
    or is a bool, raises TypeError; a budget below 1, or a tol that is
    negative or NaN, ValueError.
    """
    _check_search(budget, "budget", seed, tol)
    lo, hi = spec.domain
    probe = _defect_probe(f, spec)
    best, ok, skipped = _scan_columns(f, spec, probe, budget // 2, seed)

    remaining = max(0, budget - ok - skipped)
    rounds = 20
    per_round = remaining // rounds
    if best is not None and per_round > 0:
        sigma_xy = (hi - lo) / 4.0
        sigma_t = 0.25
        t_lo, t_hi = _T_INTERIOR, 1.0 - _T_INTERIOR
        # three standard normals per probe, x, y and t in turn, as rng.gauss
        # gives them, drawn a block at a time as the rounds reach them
        rng, count = random.Random(seed), 3 * per_round * rounds
        draws = chain.from_iterable(_gaussians(rng, min(_GAUSS_BLOCK, count - start))
                                    for start in range(0, count, _GAUSS_BLOCK))
        triples = zip(draws, draws, draws)
        for _ in range(rounds):
            bx, by, bt = best[1], best[2], best[3]
            # each coordinate is the incumbent's plus rng.gauss's
            # mu + z*sigma, clamped as min(max(v, lo), hi) would clamp it
            local = [
                (lo if (x := bx + (0.0 + zx * sigma_xy)) < lo else hi if x > hi else x,
                 lo if (y := by + (0.0 + zy * sigma_xy)) < lo else hi if y > hi else y,
                 t_lo if (t := bt + (0.0 + zt * sigma_t)) < t_lo else t_hi if t > t_hi else t)
                for zx, zy, zt in islice(triples, per_round)
            ]
            best, ok, skipped = _scan(probe, local, best, ok, skipped)
            sigma_xy *= 0.5
            sigma_t *= 0.5

    if stats_out is not None:
        stats_out["probes_ok"] = ok
        stats_out["probes_skipped"] = skipped
    if best is None or best[0] >= -tol:
        return None
    d, x, y, t, lhs, rhs = best
    return Counterexample(x=x, y=y, t=t, defect=d, lhs=lhs, rhs=rhs)
