"""Adaptive Gauss-Kronrod quadrature with an absolute error estimate, and
the weight moments by a double-exponential rule.

The engine behind every inequality verifier.  A 7/15-point Gauss-Kronrod
pair is applied per panel; the panel with the largest error estimate is
bisected until the summed estimate meets the tolerance or the evaluation
budget runs out.  All nodes are interior, so integrands may be singular at
the endpoints, and orientation is a precondition: ``a < b``, never a sign
convention.

The weight moments m1 = int h, m2 = int h^2 and mx = int h(t)h(1-t) over
[0, 1] come from integrals over [0, 1/2] of h and of its reflection h_R(u) =
h(1 - u), the source's ``mirror``: m1 and m2 add a half of h and a half
of h_R, each at tol/2, and mx, whose integrand is symmetric about 1/2, is
twice the half of h h_R at tol/2.  A singularity at t = 1 is thus met at
u = 0, where a DSL weight's reflected tree resolves it (a GK15 node near 1
is spaced by ulp(1)).  Each half is a tanh-sinh rule [Takahasi & Mori 1974;
Mori & Sugihara, J. Comput. Appl. Math. 127 (2001)], whose nodes crowd
double-exponentially towards 0, so a t^s singularity costs few more nodes
than a smooth weight.  Nodes below 2**-1022, the smallest normal double,
are dropped; the integral of that cut part is estimated from g(2**-1022)
and g(2**-1021) as for g ~ u^(p-1), and it is infinite where p <= 0, as for
1/t.  A moment whose cut tail alone exceeds its tolerance is indeterminate
at once, so a weight that cannot be integrated is reported in a few
evaluations.  A level's error estimate adds the changes of the sum at this
level and at the one before, the tail and a roundoff floor.  Every weight is
a FuncDef, read through two Sources, h and h_R (``FuncDef.on`` and
``FuncDef.reflected_on``), and a level is evaluated by their batch forms,
with the same operations per node, and node by node where they raise.
Levels up to _KEPT_LEVELS are kept once built; a deeper one is built for
each integral that reaches it.  A weight with an interior kink, such as
|t - w|, converges only algebraically: its moments end indeterminate when
the budget runs out, or meet the tolerance late; counting the level before
keeps two levels that agree by chance from passing for convergence.

For a FuncDef integrand the domain check is decided once per integral,
through ``FuncDef.on(a, b)``.  That rests on one invariant: every node of an
integral over [a, b] lies in [a, b], where the check would call the
unchecked source.  A panel [pa, pb] places its nodes from its ends, at pa + d
and pb - d, where 0 <= d <= the half-width 0.5*pb - 0.5*pa <= pb - pa, and
its centre, which is also its bisection point, at pa plus the half-width.
Rounding is monotone, so no node leaves its panel, for any floats pa < pb
(pinned by tests/test_quad.py::TestNodesStayInTheirPanel), and no node,
centre or half-width overflows, even at ends near the largest double.  The
tanh-sinh nodes lie in [2**-1022, 1/2] by construction.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import IntegrandError, OrientationError
from .funcdsl import BATCH_ERRORS, FuncDef, Source

__all__ = [
    "Integral", "integrate", "h_moment", "h_moments", "MOMENTS",
    "DEFAULT_TOL", "DEFAULT_BUDGET",
]

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 1_000_000

MOMENTS = ("m1", "m2", "mx")
# Sweeps and reduction checks reuse a handful of distinct weights, so a small
# bound keeps their hits and caps what the memo holds.
_MOMENT_MEMO_SIZE = 128

# 15-point Kronrod extension of the 7-point Gauss-Legendre rule on [-1, 1]:
# symmetric, with its centre, x = 0, as its eighth node and no node at an
# endpoint.  Its positive abscissae x_i are held as 1 - x_i, to 33 digits:
# node i lies half * (1 - x_i) from its panel's nearer end.  1 - float(x_i)
# would carry the rounding of x_i, up to 16 ulps of 1 - x_0.
_CGK = (
    0.008544628879187360793145302473671,  # 1 - 0.991455371120812639206854697526329
    0.050892087657241475473810315952149,  # 1 - 0.949107912342758524526189684047851
    0.135135576640230927210287211359074,  # 1 - 0.864864423359769072789712788640926
    0.258468814400605560136135226719212,  # 1 - 0.741531185599394439863864773280788
    0.413912764532308869705855161741270,  # 1 - 0.586087235467691130294144838258730
    0.594154848622602833093393587923039,  # 1 - 0.405845151377397166906606412076961
    0.792215044992101532399310596226755,  # 1 - 0.207784955007898467600689403773245
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# Gauss weights belong to the odd-indexed Kronrod abscissae.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EVALS_PER_PANEL = 15

# (index, 1 - abscissa) of the nodes left of the centre; the node right of it
# takes index 14 - index.
_NODES = tuple(enumerate(_CGK))
# (left index, right index, Kronrod weight, Gauss weight or None) for each
# symmetric pair of nodes, in summation order.
_PAIRS = tuple((i, 14 - i, _WGK[i], _WG[i // 2] if i % 2 == 1 else None) for i in range(7))


@dataclass(frozen=True)
class Integral:
    """Quadrature result: value, absolute-error estimate, evaluation count.

    ``indeterminate`` is set when the error estimate did not reach the
    tolerance within the node budget; the value is the best available but
    its precision claim is void.  A moment whose cut tail exceeds the
    tolerance, or whose budget cannot pay for a first level, has a NaN value
    and an infinite error (module docstring).
    """

    value: float
    abs_err: float
    evaluations: int
    indeterminate: bool = False


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [a, b] -> (kronrod value, error estimate).

    Every node is placed from an end of [a, b], so none leaves it (module
    docstring)."""
    half = 0.5 * b - 0.5 * a
    isfinite = math.isfinite
    fv = [0.0] * 15
    for i, c in _NODES:
        d = half * c
        u = a + d
        v = fn(u)
        if not isfinite(v):
            raise IntegrandError(f"integrand returned {v!r}", u)
        fv[i] = v
        u = b - d
        v = fn(u)
        if not isfinite(v):
            raise IntegrandError(f"integrand returned {v!r}", u)
        fv[14 - i] = v
    center = a + half
    v = fn(center)
    if not isfinite(v):
        raise IntegrandError(f"integrand returned {v!r}", center)

    resk = _WGK[7] * v
    resg = _WG[3] * v
    resabs = _WGK[7] * abs(v)
    for i, j, wk, wg in _PAIRS:
        lo_val, hi_val = fv[i], fv[j]
        pair = lo_val + hi_val
        resk += wk * pair
        resabs += wk * (abs(lo_val) + abs(hi_val))
        if wg is not None:
            resg += wg * pair
    value = resk * half
    # |K - G| is a conservative surrogate for the Kronrod error; the floor
    # keeps the estimate honest once it reaches roundoff scale.
    err = abs((resk - resg) * half)
    floor = 50.0 * math.ulp(1.0) * abs(resabs * half)
    return value, max(err, floor)


def _check_tol(tol: float) -> None:
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")


def integrate(
    f: Callable[[float], float] | FuncDef,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Integral:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Raises OrientationError when a >= b (orientation is the caller's
    responsibility), and IntegrandError when f is non-finite at a node, or
    when the integral or its error estimate overflows the float range.
    EvalDomainError from a FuncDef propagates untouched; whether a FuncDef
    is evaluated through its domain check is decided once, by
    ``FuncDef.on(a, b)``, since every node lies in [a, b] (module docstring).
    """
    if not (a < b):
        raise OrientationError(f"need a < b, got a={a!r}, b={b!r}")
    _check_tol(tol)

    if isinstance(f, FuncDef):
        f = f.on(a, b).fn
    value, err = _gk15(f, a, b)
    evaluations = _EVALS_PER_PANEL
    # heap of (-err, insertion counter, a, b, value, err)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_err = err
    while total_err > tol and evaluations + 2 * _EVALS_PER_PANEL <= budget:
        _, _, pa, pb, _, perr = heap[0]
        mid = pa + (0.5 * pb - 0.5 * pa)  # the panel's centre, as _gk15 places it
        if mid <= pa or mid >= pb:
            break  # the worst panel is one ulp wide: it cannot be bisected
        heapq.heappop(heap)
        lv, le = _gk15(f, pa, mid)
        rv, re = _gk15(f, mid, pb)
        evaluations += 2 * _EVALS_PER_PANEL
        counter += 2
        heapq.heappush(heap, (-le, counter - 1, pa, mid, lv, le))
        heapq.heappush(heap, (-re, counter, mid, pb, rv, re))
        total_err += le + re - perr

    # fsum rounds the exact sum once, so the heap's order cannot change the
    # value, and the running total's drift is shed.  Sums beyond the float
    # range make it raise, or leave an inf or NaN that no tolerance test sees.
    try:
        value = math.fsum(panel[4] for panel in heap)
        total_err = math.fsum(panel[5] for panel in heap)
        finite = math.isfinite(value) and math.isfinite(total_err)
    except (OverflowError, ValueError):  # "intermediate overflow", "-inf + inf"
        finite = False
    if not finite:
        raise IntegrandError(f"the integral over [{a!r}, {b!r}] overflows the float range")
    return Integral(
        value=value,
        abs_err=total_err,
        evaluations=evaluations,
        indeterminate=total_err > tol,
    )


# --------------------------------------------------------------------------
# The weight moments: a tanh-sinh (double-exponential) rule on [0, 1/2]
# --------------------------------------------------------------------------
#
# u = (1/2) e^x / (1 + e^x) with x = pi sinh(tau) maps the tau axis onto
# (0, 1/2), and the rule is the trapezoidal sum in tau of g(u) du/dtau.
# Level 0 takes every tau = j * _STEP in [-_TAU_LO, _TAU_HI]; each further
# level halves the step and adds only the odd multiples of it, so that
# S_k = S_(k-1) / 2 + the sum over the new nodes.  Every node below _CUT is
# dropped; _TAU_LO is where the nodes reach it, and past _TAU_HI they are
# within 2**-66 of 1/2.

_CUT = 2.0**-1022  # the smallest normal double
_STEP = 1.0
_TAU_LO = math.asinh(710.0 / math.pi)
_TAU_HI = math.asinh(45.0 / math.pi)
# Levels up to this one are kept once built: level k adds about 4.7 * 2**k
# nodes, so they hold 2 424 in all, and smooth and endpoint-singular weights
# stop by level 5.  A deeper level, which a weight with an interior kink such
# as |t - w| reaches, is built again for each integral that needs it instead
# of being held for the life of the process (levels 0-16 hold 620 413 nodes).
_KEPT_LEVELS = 8


def _level(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The nodes level k adds, and their weights times the level's step."""
    return _kept_level(k) if k <= _KEPT_LEVELS else _build_level(k)


def _build_level(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    step = _STEP / 2**k
    nodes, weights = [], []
    for j in range(math.ceil(-_TAU_LO / step), math.floor(_TAU_HI / step) + 1):
        if k and j % 2 == 0:
            continue
        tau = j * step
        x = math.pi * math.sinh(tau)
        e = math.exp(-abs(x))  # u, or 1/2 - u for x > 0, is (1/2) e / (1 + e)
        u = 0.5 * (e if x < 0.0 else 1.0) / (1.0 + e)
        if u < _CUT:
            continue
        nodes.append(u)
        weights.append(step * 0.5 * math.pi * math.cosh(tau) * e / (1.0 + e) ** 2)
    return tuple(nodes), tuple(weights)


_kept_level = functools.cache(_build_level)


# The halves evaluate a Source at a level's nodes by its batch form, at most
# _COLUMN nodes per call, so that the lists it builds stay small at a deep
# level (level 16 adds 310 000 nodes); every kept level takes one call.
_COLUMN = 2048


def _values(g: Source, us: Sequence[float]) -> Iterable[float]:
    """g at the nodes ``us``, in order: by ``g.batch``, which does g's
    operations per node, part by part, and by ``g.fn`` node by node where a
    part raises one of BATCH_ERRORS, so that g's own error is raised.  The
    values have the bits of ``g.fn`` applied node by node, the reference in
    tests/test_quad.py::TestBatchLevelsMatchPointwise."""
    fn, batch = g.fn, g.batch

    def parts():
        for start in range(0, len(us), _COLUMN):
            part = us[start:start + _COLUMN]
            try:
                values = batch(part)
            except BATCH_ERRORS:  # no node before this part raises
                values = [fn(u) for u in part]
            yield values

    return chain.from_iterable(parts())


def _cut_tail(g: Source) -> float:
    """An estimate of |int g| over [0, U], U = _CUT, from g(U) and g(2U).

    Where g ~ c u^(p-1), g(2U)/g(U) = 2^(p-1) and the tail is U g(U) / p;
    twice that is returned.  It is infinite where p <= 0, as for a weight
    that diverges at 0, and where g(U) or g(2U) is not finite.
    """
    at_cut, at_twice = map(abs, _values(g, (_CUT, 2.0 * _CUT)))
    if at_cut == 0.0:
        return 0.0
    ratio = at_twice / at_cut
    p = 1.0 + math.log2(ratio) if ratio > 0.0 else -math.inf  # a NaN ratio gives -inf
    return 2.0 * _CUT * at_cut / p if p > 0.0 else math.inf


def _half(g: Source, tol: float, budget: int) -> Integral:
    """int g over [0, 1/2] by the tanh-sinh levels, to absolute tolerance
    tol.

    Level k's error is |S_k - S_(k-1)| + |S_(k-1) - S_(k-2)| + the cut tail
    + 50 ulp of the sum of |w g|, and the first level k >= 2 whose error
    meets tol ends the integral.  The change of the level before is counted
    because an interior kink of g can make two levels agree by chance, far
    closer than either is to the integral.  When the budget cannot pay for
    level 0 and the two evaluations of the tail, or the tail alone exceeds
    tol, no level is evaluated: the value is NaN, the error infinite.

    Raises IntegrandError where g is not finite at a node, or a level's sum
    overflows the float range.
    """
    value, abs_err = math.nan, math.inf
    nodes, weights = _level(0)
    if budget < 2 + len(nodes):
        return Integral(value, abs_err, 0, True)
    tail = _cut_tail(g)
    if tail > tol:
        return Integral(value, abs_err, 2, True)
    evaluations = 2
    value = magnitude = change = 0.0
    k = 0
    while True:
        terms = list(map(mul, weights, _values(g, nodes)))
        evaluations += len(nodes)
        try:
            level_sum, level_magnitude = math.fsum(terms), math.fsum(map(abs, terms))
            finite = math.isfinite(level_sum) and math.isfinite(level_magnitude)
        except (OverflowError, ValueError):  # "intermediate overflow", "-inf + inf"
            finite = False
        if not finite:
            for u, term in zip(nodes, terms):
                if not math.isfinite(term):
                    raise IntegrandError(f"integrand returned {term!r}", u)
            raise IntegrandError("the integral over [0.0, 0.5] overflows the float range")
        previous = value
        value = 0.5 * value + level_sum
        magnitude = 0.5 * magnitude + level_magnitude
        if k:
            change, last_change = abs(value - previous), change
            abs_err = change + last_change + tail + 50.0 * math.ulp(1.0) * magnitude
        if k >= 2 and abs_err <= tol:
            break
        k += 1
        nodes, weights = _level(k)
        if evaluations + len(nodes) > budget:
            break
    return Integral(value, abs_err, evaluations, abs_err > tol)


def _compute_moment(h: FuncDef, moment: str, tol: float, budget: int) -> Integral:
    """One moment of h from integrals over [0, 1/2] of h and of its
    reflection h_R(u) = h(1 - u): m1 and m2 are the sums of the halves of
    h and h_R, or of their squares, each at tol/2 and budget/2, and mx,
    whose integrand h(t)h(1-t) is symmetric about 1/2, is twice the
    integral of h h_R at tol/2.

    h is read through the sources ``h.on(0.0, 0.5)`` and
    ``h.reflected_on(0.0, 0.5)``, since every node lies in [0, 1/2]; each
    level is evaluated by their batch forms, and node by node where they
    raise.
    """
    if moment not in MOMENTS:
        raise ValueError(f"unknown moment {moment!r}; expected one of {MOMENTS}")
    source, mirror = h.on(0.0, 0.5), h.reflected_on(0.0, 0.5)
    half_tol = 0.5 * tol
    if moment == "mx":
        fn, fn_r, batch, batch_r = source.fn, mirror.fn, source.batch, mirror.batch
        cross = Source(lambda u: fn(u) * fn_r(u), "cross",
                       _batch=lambda us: list(map(mul, batch(us), batch_r(us))))
        half = _half(cross, half_tol, budget)
        # doubling is exact, so the half at tol/2 meets tol exactly when the
        # whole does
        value, abs_err, evaluations = 2.0 * half.value, 2.0 * half.abs_err, half.evaluations
    else:
        if moment == "m2":
            source, mirror = _squared(source), _squared(mirror)
        left = _half(source, half_tol, budget // 2)
        right = _half(mirror, half_tol, budget // 2)
        value, abs_err = left.value + right.value, left.abs_err + right.abs_err
        evaluations = left.evaluations + right.evaluations
    if math.isinf(value):  # finite halves whose sum or double overflows
        raise IntegrandError("the integral over [0.0, 1.0] overflows the float range")
    return Integral(value, abs_err, evaluations, abs_err > tol)


def _squared(g: Source) -> Source:
    fn, batch = g.fn, g.batch

    def squared(u: float) -> float:
        v = fn(u)
        return v * v  # '*' yields inf on overflow, which _half sees

    def squared_batch(us):
        v = batch(us)
        return list(map(mul, v, v))

    return Source(squared, "squared", _batch=squared_batch)


@functools.lru_cache(maxsize=_MOMENT_MEMO_SIZE)
def _memo_moment(h: FuncDef, moment: str, tol: float, budget: int) -> Integral:
    return _compute_moment(h, moment, tol, budget)


def h_moment(
    h: Callable[[float], float] | FuncDef,
    moment: str,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Integral:
    """One unit-interval moment of a weight function h.

    ``moment`` is ``"m1"`` (int h(t) dt), ``"m2"`` (int h(t)^2 dt) or
    ``"mx"`` (int h(t)h(1-t) dt), each over (0,1), by the tanh-sinh rule on
    [0, 1/2] (module docstring).  m1 and m2 add the halves of h and of
    h_R(u) = h(1 - u), each at tol/2 with budget // 2 evaluations, and add
    their errors and evaluations; mx is twice the half of h h_R at tol/2,
    with twice its error estimate and the evaluations of that half.  Nodes
    below 2**-1022 are cut, and the integral over the cut part is estimated
    and added to the error; where it exceeds the tolerance, as for a weight
    that diverges at an end, the moment is indeterminate with a NaN value.
    A weight with an interior kink converges slowly and may end
    indeterminate.  Results for a hashable FuncDef are memoised per (h,
    moment, tol, budget) in a bounded LRU memo, so a FuncDef is taken to be
    a pure function of its value.  Any other callable becomes the FuncDef of
    its values on [0, 1] and is integrated afresh on every call.  A tol that
    is not positive, NaN included, raises ValueError before the memo is
    consulted.  Exceptions propagate and are never memoised.
    """
    _check_tol(tol)
    if not isinstance(h, FuncDef):
        return _compute_moment(FuncDef(Source(h, "weight"), (0.0, 1.0)), moment, tol, budget)
    try:
        hash(h)
    except TypeError:  # e.g. a derived source wrapping an unhashable callable
        return _compute_moment(h, moment, tol, budget)
    return _memo_moment(h, moment, tol, budget)


def h_moments(
    h: Callable[[float], float] | FuncDef,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Integral, Integral, Integral]:
    """The three unit-interval moments of a weight function h.

    Returns (m1, m2, mx) = (int h(t) dt, int h(t)^2 dt, int h(t)h(1-t) dt),
    each over (0,1) with its own error estimate and evaluations.  These are
    the only h-integrals any verifier needs; each comes from
    :func:`h_moment`.
    """
    m1, m2, mx = (h_moment(h, moment, tol, budget) for moment in MOMENTS)
    return m1, m2, mx
