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

Of the weight moments, the cross moment mx = int h(t)h(1-t) dt over [0, 1]
has an integrand symmetric about 1/2, so it is computed as twice the
integral over [0, 1/2] at half the tolerance: half the evaluations, and
no node near t = 1, where a t^s singularity of h(1 - t) could be resolved
only in steps of ulp(1).

For a FuncDef integrand the domain check is decided once per integral,
through ``FuncDef.on(a, b)``.  That rests on one invariant: the GK15 nodes
of a panel [pa, pb] lie in [pa, pb], and bisection keeps each midpoint
strictly inside its panel, so the nodes of an integral over [a, b] lie in
[a, b], where the check would call the unchecked source.  Rounding breaks
the invariant at two kinds of end (``_holds_nodes``, pinned by
tests/test_quad.py::TestNodesStayInTheirPanel): just above a positive power
of two, where the float spacing halves and a node of a one-ulp panel rounds
below the end; and below 2**-960, where half-width products lose bits as
subnormals.  Past such an end the nodes are taken to reach without bound,
so the integral evaluates a FuncDef through its check.  An integral with an
end past 2**1022 is refused before any node is evaluated: panel sums there
overflow, so a node could be inf and a wrong value pass as converged.
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


def _holds_nodes(a: float) -> bool:
    """Whether no GK15 node of a panel [a, b] can round below a; the end b
    holds them when -b does (module docstring)."""
    return a == 0.0 or (2.0**-960 <= abs(a) and math.frexp(a)[0] != 0.5)


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [a, b] -> (kronrod value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
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
    responsibility), and IntegrandError when an end lies past 2**1022, when
    f is non-finite at a node, or when the integral or its error estimate
    overflows the float range.
    EvalDomainError from a FuncDef propagates untouched; whether a FuncDef
    is evaluated through its domain check is decided once, by
    ``FuncDef.on(a, b)`` (module docstring).

    Where an end does not hold the nodes, a plain callable can be called up
    to one ulp outside [a, b], and its own error propagates unwrapped:
    ``integrate(lambda u: math.sqrt(u - 1), 1.0, 1.0 + 2**-52)`` raises
    ValueError from the node 1 - 2**-53.  A FuncDef is evaluated through
    its domain check there.
    """
    if not (a < b):
        raise OrientationError(f"need a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max(abs(a), abs(b)) > 2.0**1022:  # panel sums would overflow
        raise IntegrandError(f"the integral over [{a!r}, {b!r}] reaches past 2**1022")

    if isinstance(f, FuncDef):  # on the range the nodes can reach
        f = f.on(a if _holds_nodes(a) else -math.inf, b if _holds_nodes(-b) else math.inf)
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


def _compute_moment(h: Callable[[float], float] | FuncDef, moment: str, tol: float,
                    budget: int) -> Integral:
    """One moment of h: m1 and m2 integrate h and h^2 over [0, 1]; mx,
    whose integrand h(t)h(1-t) is symmetric about 1/2, is twice the integral
    over [0, 1/2] at tol/2.

    A FuncDef weight is read through ``h.on(0.0, 1.0)``: the ends 0 and 1
    hold every node in [0, 1], and so do 0 and 1/2 in [0, 1/2] (module
    docstring); fl(1 - t) lies in [0, 1] whenever t does.
    """
    if moment not in MOMENTS:
        raise ValueError(f"unknown moment {moment!r}; expected one of {MOMENTS}")
    if isinstance(h, FuncDef):
        h = h.on(0.0, 1.0)
    if moment == "m1":
        return integrate(h, 0.0, 1.0, tol, budget)
    if moment == "m2":
        def h_squared(t: float) -> float:
            v = h(t)
            return v * v  # '*' yields inf on overflow, so the node check fires
        return integrate(h_squared, 0.0, 1.0, tol, budget)
    # Doubling is exact, so the half at tol/2 meets tol exactly when the
    # whole does.
    half = integrate(lambda t: h(t) * h(1.0 - t), 0.0, 0.5, 0.5 * tol, budget)
    value, abs_err = 2.0 * half.value, 2.0 * half.abs_err
    if not (math.isfinite(value) and math.isfinite(abs_err)):
        raise IntegrandError("the integral over [0.0, 1.0] overflows the float range")
    return Integral(value, abs_err, half.evaluations, abs_err > tol)


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
    ``"mx"`` (int h(t)h(1-t) dt), each over (0,1).  mx is twice the
    integral over (0, 1/2) at tol/2, with twice its error estimate and the
    evaluations of that half.  Results for a hashable FuncDef are memoised
    per (h, moment, tol, budget) in a bounded LRU memo, so a FuncDef is
    taken to be a pure function of its value.  Any other callable is
    integrated afresh on every call.  Exceptions propagate and are never
    memoised.
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
    each over (0,1) with its own error estimate; mx is twice the integral
    over (0, 1/2) at tol/2, and its ``evaluations`` are those of the half.
    These are the only h-integrals any verifier needs; each comes from
    :func:`h_moment`.
    """
    m1, m2, mx = (h_moment(h, moment, tol, budget) for moment in MOMENTS)
    return m1, m2, mx
