"""Numerical verification of the Hermite-Hadamard-type inequalities.

Each ``verify_*`` function computes both sides of one displayed inequality
and returns a :class:`Verdict` with the margin (rhs - lhs), the quadrature
error propagated to that margin, and a pass/fail/indeterminate status:

    pass          margin >= -(quad_err + report_tol)
    fail          margin <  -(quad_err + report_tol)
    indeterminate some contributing integral never reached its tolerance,
                  or an integrand/domain error occurred (diagnosis in notes)

The four main bounds, for a weight h, modulus m in (0,1] and deformation
phi with px = phi(x), py = phi(y), and moments m1 = int h, m2 = int h^2,
mx = int h(t)h(1-t):

    T2_1     avg of f(u)f(px+m*py-u) over [px, m*py]
                 <= [f(px)^2 + m^2 f(py)^2]*mx + f(px)f(py)(m+1)*m2
    T2_2dot  avg of f over [px, m*py] <= [f(px)+f(py)]*m1
    T2_2     ((avg of f over [m*px, py]) + (avg of f over [px, m*py]))/(m+1)
                 <= [f(px)+f(py)]*m1
    T2_3     avg of f*g over [px, m*py] <= M*m2 + m*N*mx,
             M = f(px)g(px) + m^2 f(py)g(py),  N = f(px)g(py) + f(py)g(px)

Background bounds: HC (classic two-sided), T1_9 (h-weighted two-sided),
T1_11 (two-average bound, no deformation), T1_13/T1_14 (deformed product
bounds with the free evaluation points tied to the interval ends).  The
``check_reduction`` pairs confirm numerically that each main bound
degenerates into its background counterpart at the appropriate parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import EvalDomainError, IntegrandError, OrientationError
from .funcdsl import FuncDef, identity_on
from .quad import DEFAULT_BUDGET, DEFAULT_TOL, Integral, h_moment, integrate

__all__ = [
    "Verdict",
    "ReductionReport",
    "verify_t2_1",
    "verify_t2_2dot",
    "verify_t2_2",
    "verify_t2_3",
    "verify_background",
    "check_reduction",
    "BACKGROUND_IDS",
    "MAIN_IDS",
    "REDUCTION_PAIRS",
    "DEFAULT_REPORT_TOL",
    "REDUCTION_TOL",
]

DEFAULT_REPORT_TOL = 1e-9
REDUCTION_TOL = 1e-12

BACKGROUND_IDS = ("HC", "T1_9", "T1_11", "T1_13", "T1_14")
MAIN_IDS = ("T2_1", "T2_2dot", "T2_2", "T2_3")
REDUCTION_PAIRS = ("T2_1_vs_T1_13", "T2_2dot_vs_T1_9", "T2_2_vs_T1_11", "T2_3_vs_T1_14")

_ENDPOINT_BINDING_NOTE = (
    "free evaluation points are bound to the interval ends (x=a, y=b)"
)
_BUDGET_NOTE = (
    "quadrature budget exhausted before reaching tolerance; "
    "weight may be non-integrable"
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one inequality verification.

    For two-sided bounds (HC, T1_9) ``lhs``/``rhs`` are the lower and upper
    bound values, ``mean`` the integral average they sandwich, and ``margin``
    the binding (smaller) of the two one-sided margins, so the pass rule is
    the conjunction of both sides.
    """

    theorem_id: str
    lhs: float
    rhs: float
    margin: float
    quad_err: float
    status: str
    inputs: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    mean: float | None = None
    margin_lower: float | None = None
    margin_upper: float | None = None


def _status(margin: float, quad_err: float, report_tol: float, indeterminate: bool) -> str:
    if indeterminate or not math.isfinite(margin):
        return "indeterminate"
    return "pass" if margin >= -(quad_err + report_tol) else "fail"


def _indeterminate_verdict(theorem_id, inputs, exc) -> Verdict:
    nan = math.nan
    return Verdict(
        theorem_id=theorem_id,
        lhs=nan,
        rhs=nan,
        margin=nan,
        quad_err=nan,
        status="indeterminate",
        inputs=inputs,
        notes=(f"{type(exc).__name__}: {exc}",),
    )


def _budget_notes(*integrals: Integral) -> tuple[str, ...]:
    return (_BUDGET_NOTE,) if any(i.indeterminate for i in integrals) else ()


def _as_phi(phi: FuncDef | None, f: FuncDef) -> FuncDef:
    return phi if phi is not None else identity_on(f.domain)


def verify_t2_1(
    f: FuncDef,
    h: FuncDef,
    m: float = 1.0,
    phi: FuncDef | None = None,
    x: float = 0.0,
    y: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Reflected-product mean bound over [phi(x), m*phi(y)]."""
    phi = _as_phi(phi, f)
    px, py = phi(x), phi(y)
    lo, hi = px, m * py
    if not (lo < hi):
        raise OrientationError(f"need phi(x) < m*phi(y), got {lo!r} >= {hi!r}")
    inputs = {"f": f.label, "h": h.label, "m": m, "phi": phi.label, "x": x, "y": y}
    try:
        fpx, fpy = f(px), f(py)
        prod = integrate(lambda u: f(u) * f((lo + hi) - u), lo, hi, quad_tol, budget)
        m2 = h_moment(h, "m2", quad_tol, budget)
        mx = h_moment(h, "mx", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T2_1", inputs, exc)
    lhs = prod.value / (hi - lo)
    coeff_sq = fpx * fpx + m * m * fpy * fpy
    coeff_cross = fpx * fpy * (m + 1.0)
    rhs = coeff_sq * mx.value + coeff_cross * m2.value
    quad_err = (
        prod.abs_err / (hi - lo)
        + abs(coeff_sq) * mx.abs_err
        + abs(coeff_cross) * m2.abs_err
    )
    margin = rhs - lhs
    indeterminate = prod.indeterminate or m2.indeterminate or mx.indeterminate
    return Verdict(
        theorem_id="T2_1",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=_budget_notes(prod, m2, mx),
    )


def verify_t2_2dot(
    f: FuncDef,
    h: FuncDef,
    m: float = 1.0,
    phi: FuncDef | None = None,
    x: float = 0.0,
    y: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Single-integral mean bound over [phi(x), m*phi(y)]."""
    phi = _as_phi(phi, f)
    px, py = phi(x), phi(y)
    lo, hi = px, m * py
    if not (lo < hi):
        raise OrientationError(f"need phi(x) < m*phi(y), got {lo!r} >= {hi!r}")
    inputs = {"f": f.label, "h": h.label, "m": m, "phi": phi.label, "x": x, "y": y}
    try:
        fpx, fpy = f(px), f(py)
        mean = integrate(f, lo, hi, quad_tol, budget)
        m1 = h_moment(h, "m1", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T2_2dot", inputs, exc)
    lhs = mean.value / (hi - lo)
    coeff = fpx + fpy
    rhs = coeff * m1.value
    quad_err = mean.abs_err / (hi - lo) + abs(coeff) * m1.abs_err
    margin = rhs - lhs
    indeterminate = mean.indeterminate or m1.indeterminate
    return Verdict(
        theorem_id="T2_2dot",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=_budget_notes(mean, m1),
    )


def verify_t2_2(
    f: FuncDef,
    h: FuncDef,
    m: float = 1.0,
    phi: FuncDef | None = None,
    x: float = 0.0,
    y: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Two-average bound; needs the chain 0 <= m*px <= px < m*py <= py.

    Zero-length integration intervals are rejected as degenerate, so
    px < m*py must be strict; m=1 collapses both averages onto [px, py].
    """
    phi = _as_phi(phi, f)
    px, py = phi(x), phi(y)
    if px < 0.0:
        raise OrientationError(f"need phi(x) >= 0, got {px!r}")
    if not (px < m * py):
        raise OrientationError(f"need phi(x) < m*phi(y), got {px!r} >= {m * py!r}")
    inputs = {"f": f.label, "h": h.label, "m": m, "phi": phi.label, "x": x, "y": y}
    try:
        fpx, fpy = f(px), f(py)
        wide = integrate(f, m * px, py, quad_tol, budget)
        narrow = integrate(f, px, m * py, quad_tol, budget)
        m1 = h_moment(h, "m1", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T2_2", inputs, exc)
    lhs = (wide.value / (py - m * px) + narrow.value / (m * py - px)) / (m + 1.0)
    coeff = fpx + fpy
    rhs = coeff * m1.value
    quad_err = (
        wide.abs_err / (py - m * px) + narrow.abs_err / (m * py - px)
    ) / (m + 1.0) + abs(coeff) * m1.abs_err
    margin = rhs - lhs
    indeterminate = wide.indeterminate or narrow.indeterminate or m1.indeterminate
    return Verdict(
        theorem_id="T2_2",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=_budget_notes(wide, narrow, m1),
    )


def verify_t2_3(
    f: FuncDef,
    g: FuncDef,
    h: FuncDef,
    m: float = 1.0,
    phi: FuncDef | None = None,
    x: float = 0.0,
    y: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Product mean bound; M and N are echoed in the inputs."""
    phi = _as_phi(phi, f)
    px, py = phi(x), phi(y)
    lo, hi = px, m * py
    if not (lo < hi):
        raise OrientationError(f"need phi(x) < m*phi(y), got {lo!r} >= {hi!r}")
    inputs = {
        "f": f.label, "g": g.label, "h": h.label,
        "m": m, "phi": phi.label, "x": x, "y": y,
    }
    try:
        fpx, fpy, gpx, gpy = f(px), f(py), g(px), g(py)
        prod = integrate(lambda u: f(u) * g(u), lo, hi, quad_tol, budget)
        m2 = h_moment(h, "m2", quad_tol, budget)
        mx = h_moment(h, "mx", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T2_3", inputs, exc)
    big_m = fpx * gpx + m * m * fpy * gpy
    big_n = fpx * gpy + fpy * gpx
    inputs["M"] = big_m
    inputs["N"] = big_n
    lhs = prod.value / (hi - lo)
    rhs = big_m * m2.value + m * big_n * mx.value
    quad_err = (
        prod.abs_err / (hi - lo)
        + abs(big_m) * m2.abs_err
        + abs(m * big_n) * mx.abs_err
    )
    margin = rhs - lhs
    indeterminate = prod.indeterminate or m2.indeterminate or mx.indeterminate
    return Verdict(
        theorem_id="T2_3",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=_budget_notes(prod, m2, mx),
    )


# --------------------------------------------------------------------------
# Background (reduction-target) inequalities
# --------------------------------------------------------------------------

def verify_background(
    theorem_id: str,
    f: FuncDef,
    h: FuncDef | None = None,
    g: FuncDef | None = None,
    m: float = 1.0,
    phi: FuncDef | None = None,
    a: float = 0.0,
    b: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Verify one of HC, T1_9, T1_11, T1_13, T1_14 on [a, b]."""
    if theorem_id == "HC":
        return _verify_hc(f, a, b, quad_tol, report_tol, budget)
    if theorem_id == "T1_9":
        _require(h, "h")
        return _verify_t1_9(f, h, a, b, quad_tol, report_tol, budget)
    if theorem_id == "T1_11":
        _require(h, "h")
        return _verify_t1_11(f, h, m, a, b, quad_tol, report_tol, budget)
    if theorem_id == "T1_13":
        _require(h, "h")
        return _verify_t1_13(f, h, _as_phi(phi, f), a, b, quad_tol, report_tol, budget)
    if theorem_id == "T1_14":
        _require(h, "h")
        _require(g, "g")
        return _verify_t1_14(f, g, h, _as_phi(phi, f), a, b, quad_tol, report_tol, budget)
    raise ValueError(f"unknown background theorem id '{theorem_id}'")


def _require(value, name):
    if value is None:
        raise ValueError(f"this theorem needs the function '{name}'")


def _two_sided(theorem_id, lower, upper, integral, span, extra_err, inputs, report_tol, notes=()):
    mean = integral.value / span
    quad_err = integral.abs_err / span + extra_err
    margin_lower = mean - lower
    margin_upper = upper - mean
    margin = min(margin_lower, margin_upper)
    return Verdict(
        theorem_id=theorem_id,
        lhs=lower,
        rhs=upper,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, integral.indeterminate),
        inputs=inputs,
        notes=notes if not integral.indeterminate else notes + (_BUDGET_NOTE,),
        mean=mean,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
    )


def _verify_hc(f, a, b, quad_tol, report_tol, budget):
    if not (a < b):
        raise OrientationError(f"need a < b, got {a!r} >= {b!r}")
    inputs = {"f": f.label, "a": a, "b": b}
    try:
        lower = f(0.5 * (a + b))
        upper = 0.5 * (f(a) + f(b))
        integral = integrate(f, a, b, quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("HC", inputs, exc)
    return _two_sided("HC", lower, upper, integral, b - a, 0.0, inputs, report_tol)


def _verify_t1_9(f, h, a, b, quad_tol, report_tol, budget):
    if not (a < b):
        raise OrientationError(f"need a < b, got {a!r} >= {b!r}")
    h_half = h(0.5)
    if not (h_half > 0.0):
        raise ValueError(f"lower bound divides by h(1/2); need h(1/2) > 0, got {h_half!r}")
    inputs = {"f": f.label, "h": h.label, "a": a, "b": b}
    try:
        lower = f(0.5 * (a + b)) / (2.0 * h_half)
        m1 = h_moment(h, "m1", quad_tol, budget)
        upper = (f(a) + f(b)) * m1.value
        integral = integrate(f, a, b, quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T1_9", inputs, exc)
    extra = abs(f(a) + f(b)) * m1.abs_err
    verdict = _two_sided("T1_9", lower, upper, integral, b - a, extra, inputs, report_tol)
    if m1.indeterminate and verdict.status != "indeterminate":
        verdict = replace(verdict, status="indeterminate",
                          notes=verdict.notes + (_BUDGET_NOTE,))
    return verdict


def _verify_t1_11(f, h, m, a, b, quad_tol, report_tol, budget):
    if a < 0.0:
        raise OrientationError(f"need a >= 0, got {a!r}")
    if not (a < m * b):
        raise OrientationError(f"need a < m*b, got {a!r} >= {m * b!r}")
    inputs = {"f": f.label, "h": h.label, "m": m, "a": a, "b": b}
    try:
        fa, fb = f(a), f(b)
        narrow = integrate(f, a, m * b, quad_tol, budget)
        wide = integrate(f, m * a, b, quad_tol, budget)
        m1 = h_moment(h, "m1", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T1_11", inputs, exc)
    lhs = (narrow.value / (m * b - a) + wide.value / (b - m * a)) / (m + 1.0)
    coeff = fa + fb
    rhs = coeff * m1.value
    quad_err = (
        narrow.abs_err / (m * b - a) + wide.abs_err / (b - m * a)
    ) / (m + 1.0) + abs(coeff) * m1.abs_err
    margin = rhs - lhs
    indeterminate = narrow.indeterminate or wide.indeterminate or m1.indeterminate
    return Verdict(
        theorem_id="T1_11",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=_budget_notes(narrow, wide, m1),
    )


def _verify_t1_13(f, h, phi, a, b, quad_tol, report_tol, budget):
    pa, pb = phi(a), phi(b)
    if not (pa < pb):
        raise OrientationError(f"need phi(a) < phi(b), got {pa!r} >= {pb!r}")
    inputs = {"f": f.label, "h": h.label, "phi": phi.label, "a": a, "b": b}
    try:
        fpa, fpb = f(pa), f(pb)
        prod = integrate(lambda u: f(u) * f((pa + pb) - u), pa, pb, quad_tol, budget)
        m2 = h_moment(h, "m2", quad_tol, budget)
        mx = h_moment(h, "mx", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T1_13", inputs, exc)
    lhs = prod.value / (pb - pa)
    coeff_sq = fpa * fpa + fpb * fpb
    coeff_cross = 2.0 * fpa * fpb
    rhs = coeff_sq * mx.value + coeff_cross * m2.value
    quad_err = (
        prod.abs_err / (pb - pa)
        + abs(coeff_sq) * mx.abs_err
        + abs(coeff_cross) * m2.abs_err
    )
    margin = rhs - lhs
    indeterminate = prod.indeterminate or m2.indeterminate or mx.indeterminate
    return Verdict(
        theorem_id="T1_13",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=(_ENDPOINT_BINDING_NOTE,) + _budget_notes(prod, m2, mx),
    )


def _verify_t1_14(f, g, h, phi, a, b, quad_tol, report_tol, budget):
    pa, pb = phi(a), phi(b)
    if not (pa < pb):
        raise OrientationError(f"need phi(a) < phi(b), got {pa!r} >= {pb!r}")
    inputs = {"f": f.label, "g": g.label, "h": h.label, "phi": phi.label, "a": a, "b": b}
    try:
        fpa, fpb, gpa, gpb = f(pa), f(pb), g(pa), g(pb)
        prod = integrate(lambda u: f(u) * g(u), pa, pb, quad_tol, budget)
        m2 = h_moment(h, "m2", quad_tol, budget)
        mx = h_moment(h, "mx", quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        return _indeterminate_verdict("T1_14", inputs, exc)
    big_m = fpa * gpa + fpb * gpb
    big_n = fpa * gpb + fpb * gpa
    inputs["M"] = big_m
    inputs["N"] = big_n
    lhs = prod.value / (pb - pa)
    rhs = big_m * m2.value + big_n * mx.value
    quad_err = (
        prod.abs_err / (pb - pa)
        + abs(big_m) * m2.abs_err
        + abs(big_n) * mx.abs_err
    )
    margin = rhs - lhs
    indeterminate = prod.indeterminate or m2.indeterminate or mx.indeterminate
    return Verdict(
        theorem_id="T1_14",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quad_err=quad_err,
        status=_status(margin, quad_err, report_tol, indeterminate),
        inputs=inputs,
        notes=(_ENDPOINT_BINDING_NOTE,) + _budget_notes(prod, m2, mx),
    )


# --------------------------------------------------------------------------
# Reduction checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Agreement between a parameterized verifier and its reduction target
    over a probe set: max |LHS difference| and |RHS difference|, passing iff
    every probe deviates by at most REDUCTION_TOL + that probe's combined
    quadrature error."""

    pair: str
    probes: int
    max_dev_lhs: float
    max_dev_rhs: float
    max_allowance: float
    passed: bool
    indeterminate: bool = False


def check_reduction(
    pair: str,
    probes: list[dict],
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
) -> ReductionReport:
    """Run both verifiers of a reduction pair on each probe and compare.

    Probe keys: f, h (FuncDefs), optional g, phi, m (m only meaningful for
    T2_2_vs_T1_11; the other pairs reduce at m=1), and the points x, y.
    """
    if pair not in REDUCTION_PAIRS:
        raise ValueError(f"unknown reduction pair '{pair}'")
    if not probes:
        raise ValueError("probe set must be nonempty")
    max_dev_lhs = 0.0
    max_dev_rhs = 0.0
    max_allowance = 0.0
    passed = True
    indeterminate = False
    for probe in probes:
        f = probe["f"]
        h = probe["h"]
        g = probe.get("g")
        phi = probe.get("phi")
        m = float(probe.get("m", 1.0))
        x = float(probe["x"])
        y = float(probe["y"])
        if pair == "T2_1_vs_T1_13":
            v1 = verify_t2_1(f, h, 1.0, phi, x, y, quad_tol, report_tol)
            v2 = verify_background("T1_13", f, h=h, phi=phi, a=x, b=y,
                                   quad_tol=quad_tol, report_tol=report_tol)
            lhs1, rhs1, lhs2, rhs2 = v1.lhs, v1.rhs, v2.lhs, v2.rhs
        elif pair == "T2_2dot_vs_T1_9":
            v1 = verify_t2_2dot(f, h, 1.0, None, x, y, quad_tol, report_tol)
            v2 = verify_background("T1_9", f, h=h, a=x, b=y,
                                   quad_tol=quad_tol, report_tol=report_tol)
            # the reduction hits the mean <= upper-bound half of the target
            lhs1, rhs1, lhs2, rhs2 = v1.lhs, v1.rhs, v2.mean, v2.rhs
        elif pair == "T2_2_vs_T1_11":
            v1 = verify_t2_2(f, h, m, None, x, y, quad_tol, report_tol)
            v2 = verify_background("T1_11", f, h=h, m=m, a=x, b=y,
                                   quad_tol=quad_tol, report_tol=report_tol)
            lhs1, rhs1, lhs2, rhs2 = v1.lhs, v1.rhs, v2.lhs, v2.rhs
        else:  # T2_3_vs_T1_14
            if g is None:
                raise ValueError("T2_3_vs_T1_14 probes need the function 'g'")
            v1 = verify_t2_3(f, g, h, 1.0, phi, x, y, quad_tol, report_tol)
            v2 = verify_background("T1_14", f, g=g, h=h, phi=phi, a=x, b=y,
                                   quad_tol=quad_tol, report_tol=report_tol)
            lhs1, rhs1, lhs2, rhs2 = v1.lhs, v1.rhs, v2.lhs, v2.rhs
        if v1.status == "indeterminate" or v2.status == "indeterminate":
            indeterminate = True
            passed = False
            continue
        dev_lhs = abs(lhs1 - lhs2)
        dev_rhs = abs(rhs1 - rhs2)
        allowance = REDUCTION_TOL + v1.quad_err + v2.quad_err
        max_dev_lhs = max(max_dev_lhs, dev_lhs)
        max_dev_rhs = max(max_dev_rhs, dev_rhs)
        max_allowance = max(max_allowance, allowance)
        if dev_lhs > allowance or dev_rhs > allowance:
            passed = False
    return ReductionReport(
        pair=pair,
        probes=len(probes),
        max_dev_lhs=max_dev_lhs,
        max_dev_rhs=max_dev_rhs,
        max_allowance=max_allowance,
        passed=passed,
        indeterminate=indeterminate,
    )
