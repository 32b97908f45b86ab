"""Adaptive Gauss-Kronrod quadrature with an absolute error estimate.

The engine behind every inequality verifier.  A 7/15-point Gauss-Kronrod
pair is applied per panel; the panel with the largest error estimate is
bisected until the summed estimate meets the tolerance or the evaluation
budget runs out.  All nodes are interior, so integrands may be singular at
the endpoints (t^s weights with -1 < s < 0 need this), and orientation is a
precondition: ``a < b``, never a sign convention.  A weight that cannot be
integrated, such as 1/t on (0, 1), is not told apart from a hard one: at the
default budget the bisection reaches nodes so close to 0 that it raises
(EvalDomainError "pow overflow" for the catalog weight, "non-finite value
inf" for the DSL one) before the budget runs out.

A FuncDef integrand is evaluated through its domain check only on the
panels that need it.  Every node of a panel with centre c and half-width r
lies in [fl(c - r), fl(c + r)], because rounding is monotone and
|r * x_k| <= r; when that range lies inside the domain, the panel calls the
FuncDef's unchecked ``source.fn``, which is what the check would call there.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import IntegrandError, OrientationError
from .funcdsl import FuncDef

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

# 15-point Kronrod extension of the 7-point Gauss-Legendre rule on [-1, 1].
# Positive abscissae; the rule is symmetric and evaluates no endpoint.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
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

# (index, abscissa) of the nodes left of the centre; the node right of it
# takes index 14 - index.
_NODES = tuple(enumerate(_XGK[:7]))
# (left index, right index, Kronrod weight, Gauss weight or None) for each
# symmetric pair of nodes, in summation order.
_PAIRS = tuple((i, 14 - i, _WGK[i], _WG[i // 2] if i % 2 == 1 else None) for i in range(7))


@dataclass(frozen=True)
class Integral:
    """Quadrature result: value, absolute-error estimate, evaluation count.

    ``indeterminate`` is set when the node budget was exhausted before the
    error estimate reached the tolerance; the value is the best available
    but its precision claim is void.  A non-integrable integrand such as
    1/t on (0,1) ends this way only under a small budget; at the default
    one it raises first (see the module docstring).
    """

    value: float
    abs_err: float
    evaluations: int
    indeterminate: bool = False


@dataclass(frozen=True)
class _Windowed:
    """An integrand that carries ``fn``, a form of it without a domain
    check that equals it at every point of the window [lo, hi]."""

    checked: Callable[[float], float]
    fn: Callable[[float], float]
    lo: float
    hi: float


def _windowed(f) -> _Windowed:
    if isinstance(f, _Windowed):
        return f
    if isinstance(f, FuncDef):
        return _Windowed(f._evaluator, f.source.fn, *f.domain)
    return _Windowed(f, f, -math.inf, math.inf)


def _gk15(f: _Windowed, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [a, b] -> (kronrod value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # every node lies in [center - half, center + half] (module docstring)
    fn = f.fn if f.lo <= center - half and center + half <= f.hi else f.checked
    isfinite = math.isfinite
    fv = [0.0] * 15
    for i, x in _NODES:
        u = center - half * x
        v = fn(u)
        if not isfinite(v):
            raise IntegrandError(f"integrand returned {v!r}", u)
        fv[i] = v
        u = center + half * x
        v = fn(u)
        if not isfinite(v):
            raise IntegrandError(f"integrand returned {v!r}", u)
        fv[14 - i] = v
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


def integrate(
    f: Callable[[float], float] | FuncDef,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Integral:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Raises OrientationError when a >= b (orientation is the caller's
    responsibility) and IntegrandError when f is non-finite at a node.
    EvalDomainError from a FuncDef propagates untouched; a FuncDef's domain
    is checked once per panel, and only the panels that reach past it
    evaluate through the check.
    """
    if not (a < b):
        raise OrientationError(f"need a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")

    f = _windowed(f)
    value, err = _gk15(f, a, b)
    evaluations = _EVALS_PER_PANEL
    # heap of (-err, insertion counter, a, b, value, err)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_err = err
    while total_err > tol and evaluations + 2 * _EVALS_PER_PANEL <= budget:
        _, _, pa, pb, _, perr = heap[0]
        mid = 0.5 * (pa + pb)
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
    # value, and the running total's drift is shed
    total_err = math.fsum(panel[5] for panel in heap)
    return Integral(
        value=math.fsum(panel[4] for panel in heap),
        abs_err=total_err,
        evaluations=evaluations,
        indeterminate=total_err > tol,
    )


def _squared(h: Callable[[float], float]) -> Callable[[float], float]:
    def h_squared(t: float) -> float:
        v = h(t)
        return v * v  # '*' yields inf on overflow, so the node check fires
    return h_squared


def _cross(h: Callable[[float], float]) -> Callable[[float], float]:
    return lambda t: h(t) * h(1.0 - t)


def _moment_integrand(h: Callable[[float], float] | FuncDef, moment: str):
    """The integrand of one moment, for :func:`integrate` over [0, 1].

    m1 is h itself.  For a FuncDef weight whose domain covers [0, 1], m2 and
    mx also carry their form over the unchecked ``h.source.fn``, valid on
    the window [0, 1]: fl(1 - t) lies in [0, 1] whenever t does.
    """
    if moment == "m1":
        return h
    if moment == "m2":
        form = _squared
    elif moment == "mx":
        form = _cross
    else:
        raise ValueError(f"unknown moment {moment!r}; expected one of {MOMENTS}")
    if not isinstance(h, FuncDef):
        return form(h)
    lo, hi = h.domain
    if lo <= 0.0 and 1.0 <= hi:
        return _Windowed(form(h._evaluator), form(h.source.fn), 0.0, 1.0)
    return form(h._evaluator)


def _compute_moment(h, moment: str, tol: float, budget: int) -> Integral:
    return integrate(_moment_integrand(h, moment), 0.0, 1.0, tol, budget)


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
    ``"mx"`` (int h(t)h(1-t) dt), each over (0,1).  Results for a hashable
    FuncDef are memoised per (h, moment, tol, budget) in a bounded LRU memo,
    so a FuncDef is taken to be a pure function of its value.  Any other
    callable is integrated afresh on every call.  Exceptions propagate and
    are never memoised.
    """
    if isinstance(h, FuncDef):
        try:
            hash(h)
        except TypeError:  # e.g. a derived source wrapping an unhashable callable
            pass
        else:
            return _memo_moment(h, moment, tol, budget)
    return _compute_moment(h, moment, tol, budget)


def h_moments(
    h: Callable[[float], float] | FuncDef,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Integral, Integral, Integral]:
    """The three unit-interval moments of a weight function h.

    Returns (m1, m2, mx) = (int h(t) dt, int h(t)^2 dt, int h(t)h(1-t) dt),
    each over (0,1) with its own error estimate.  These are the only
    h-integrals any verifier needs; each comes from :func:`h_moment`.
    """
    m1, m2, mx = (h_moment(h, moment, tol, budget) for moment in MOMENTS)
    return m1, m2, mx
