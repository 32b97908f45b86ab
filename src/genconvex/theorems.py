"""Numerical verification of the Hermite-Hadamard-type inequalities.

Every bound has one shape: averages of integrals of f on the left, and a
linear combination of weight moments on the right.  Each bound is therefore
one row of :data:`BOUNDS`, whose formulas take the values they read as
arguments, and :func:`verify` evaluates any row.  It computes both sides and
returns a :class:`Verdict` with the margin (rhs - lhs), the quadrature error
propagated to that margin, and a pass/fail/indeterminate status:

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
bounds with the free evaluation points tied to the interval ends).  Each
background row is written from its own statement, never as a main row at
m=1, so the :data:`REDUCTIONS` pairs that ``check_reduction`` runs confirm
numerically that each main bound degenerates into its background
counterpart at the appropriate parameters.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from .algebra import check_modulus
from .errors import EvalDomainError, IntegrandError, OrientationError, WeightError
from .funcdsl import FuncDef, identity_on
from .quad import DEFAULT_BUDGET, DEFAULT_TOL, MOMENTS, h_moment, integrate

__all__ = [
    "Verdict",
    "ReductionReport",
    "BOUNDS",
    "REDUCTIONS",
    "verify",
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

_ENDPOINT_BINDING_NOTE = (
    "free evaluation points are bound to the interval ends (x=a, y=b)"
)


# The default phi of a bound that reads phi: one identity per domain, keyed by
# the signs of its ends too, since 0.0 == -0.0.
@functools.lru_cache(maxsize=32)
def _identity_on(domain: tuple[float, float], signs: tuple[float, float]) -> FuncDef:
    return identity_on(domain)


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


# --------------------------------------------------------------------------
# The bound table
# --------------------------------------------------------------------------
#
# A row's formulas take what they read as arguments, every formula of one
# kind the same ones: f, g, h, the modulus m, the points px, py (phi(x),
# phi(y) for a row that takes phi, else x, y, which background rows call
# a, b), and fx, fy, gx, gy = f, g at px, py.

@dataclass(frozen=True)
class Bound:
    """One displayed inequality as data.

    The left side is the sum of the averages of the ``integrals`` (m, px,
    py -> (kind, lower end, upper end) triples, where the kind builds the
    integrand from f and g), divided by ``scale`` (of m) if given.  The
    right side is the sum, in order, of each term's coefficient * moment:
    ``terms`` names each term's moment (None: the coefficient alone), and
    ``rhs`` (fx, fy, gx, gy, m) gives the coefficients in term order and a
    dict of values the verdict echoes after the ``inputs``.  ``checks`` (h,
    m, px, py) raise when a precondition fails.  A two-sided bound gives
    ``lower`` (f, h, px, py), and its verdict sandwiches the average
    between ``lower`` and the right side.
    """

    inputs: tuple[str, ...]
    checks: tuple[Callable, ...]
    integrals: Callable
    terms: tuple[str | None, ...]
    rhs: Callable
    scale: Callable | None = None
    notes: tuple[str, ...] = ()
    lower: Callable | None = None

    @functools.cached_property
    def roles(self) -> tuple[str, ...]:
        """The functions the bound needs: those its inputs echo, bar phi."""
        return tuple(key for key in self.inputs if key in ("f", "g", "h"))

    @functools.cached_property
    def moments(self) -> tuple[str, ...]:
        """The weight moments the right side uses, in the order m1, m2, mx,
        so the first to fail is the one a note names."""
        return tuple(name for name in MOMENTS if name in self.terms)


def _ordered(lo_name: str, hi_name: str, hi: Callable) -> Callable:
    """Precondition px < hi(m, py): the averaged interval is nonempty."""
    def check(h, m, px, py):
        if not (px < hi(m, py)):
            raise OrientationError(f"need {lo_name} < {hi_name}, got {px!r} >= {hi(m, py)!r}")
    return check


def _nonnegative(name: str) -> Callable:
    def check(h, m, px, py):
        if px < 0.0:
            raise OrientationError(f"need {name} >= 0, got {px!r}")
    return check


def _positive_half_weight(h, m, px, py) -> None:
    h_half = h(0.5)
    if not (h_half > 0.0):
        raise WeightError(f"lower bound divides by h(1/2); need h(1/2) > 0, got {h_half!r}")


# The kinds of integral: each takes (f, g, lo, hi) and returns the integrand
# over [lo, hi].  They read f and g through ``FuncDef.on`` over the window
# their points reach.  Every node u lies in [lo, hi], and rounding is
# monotone, so s - u lies in [s - hi, s - lo], both rounded.

def _plain(f, g, lo, hi):
    return f  # integrate reads a FuncDef through f.on(lo, hi) itself


def _reflected(f, g, lo, hi):
    s = lo + hi
    fn, fn_r = f.on(lo, hi).fn, f.on(s - hi, s - lo).fn
    return lambda u: fn(u) * fn_r(s - u)


def _product(f, g, lo, hi):
    f, g = f.on(lo, hi).fn, g.on(lo, hi).fn
    return lambda u: f(u) * g(u)


def _products(M: float, N: float, n_scale: float):
    """Coefficients M and n_scale*N of a product bound, echoing M and N."""
    return (M, n_scale * N), {"M": M, "N": N}


_MAIN_INPUTS = ("f", "h", "m", "phi", "x", "y")
_MAIN_ORDER = _ordered("phi(x)", "m*phi(y)", lambda m, py: m * py)

BOUNDS: dict[str, Bound] = {
    "T2_1": Bound(
        inputs=_MAIN_INPUTS,
        checks=(_MAIN_ORDER,),
        integrals=lambda m, px, py: [(_reflected, px, m * py)],
        terms=("mx", "m2"),
        rhs=lambda fx, fy, gx, gy, m: ((fx * fx + m * m * fy * fy, fx * fy * (m + 1.0)), {}),
    ),
    "T2_2dot": Bound(
        inputs=_MAIN_INPUTS,
        checks=(_MAIN_ORDER,),
        integrals=lambda m, px, py: [(_plain, px, m * py)],
        terms=("m1",),
        rhs=lambda fx, fy, gx, gy, m: ((fx + fy,), {}),
    ),
    # Needs the chain 0 <= m*px <= px < m*py <= py; zero-length intervals
    # are degenerate, so px < m*py is strict, and m=1 collapses both
    # averages onto [px, py].
    "T2_2": Bound(
        inputs=_MAIN_INPUTS,
        checks=(_nonnegative("phi(x)"), _MAIN_ORDER),
        integrals=lambda m, px, py: [(_plain, m * px, py), (_plain, px, m * py)],
        scale=lambda m: m + 1.0,
        terms=("m1",),
        rhs=lambda fx, fy, gx, gy, m: ((fx + fy,), {}),
    ),
    "T2_3": Bound(
        inputs=("f", "g", "h", "m", "phi", "x", "y"),
        checks=(_MAIN_ORDER,),
        integrals=lambda m, px, py: [(_product, px, m * py)],
        terms=("m2", "mx"),
        rhs=lambda fx, fy, gx, gy, m: _products(fx * gx + m * m * fy * gy, fx * gy + fy * gx, m),
    ),
    "HC": Bound(
        inputs=("f", "a", "b"),
        checks=(_ordered("a", "b", lambda m, py: py),),
        lower=lambda f, h, px, py: f(0.5 * (px + py)),
        integrals=lambda m, px, py: [(_plain, px, py)],
        terms=(None,),
        rhs=lambda fx, fy, gx, gy, m: ((0.5 * (fx + fy),), {}),
    ),
    "T1_9": Bound(
        inputs=("f", "h", "a", "b"),
        checks=(_ordered("a", "b", lambda m, py: py), _positive_half_weight),
        lower=lambda f, h, px, py: f(0.5 * (px + py)) / (2.0 * h(0.5)),
        integrals=lambda m, px, py: [(_plain, px, py)],
        terms=("m1",),
        rhs=lambda fx, fy, gx, gy, m: ((fx + fy,), {}),
    ),
    "T1_11": Bound(
        inputs=("f", "h", "m", "a", "b"),
        checks=(_nonnegative("a"), _ordered("a", "m*b", lambda m, py: m * py)),
        integrals=lambda m, px, py: [(_plain, px, m * py), (_plain, m * px, py)],
        scale=lambda m: m + 1.0,
        terms=("m1",),
        rhs=lambda fx, fy, gx, gy, m: ((fx + fy,), {}),
    ),
    "T1_13": Bound(
        inputs=("f", "h", "phi", "a", "b"),
        checks=(_ordered("phi(a)", "phi(b)", lambda m, py: py),),
        integrals=lambda m, px, py: [(_reflected, px, py)],
        terms=("mx", "m2"),
        rhs=lambda fx, fy, gx, gy, m: ((fx * fx + fy * fy, 2.0 * fx * fy), {}),
        notes=(_ENDPOINT_BINDING_NOTE,),
    ),
    "T1_14": Bound(
        inputs=("f", "g", "h", "phi", "a", "b"),
        checks=(_ordered("phi(a)", "phi(b)", lambda m, py: py),),
        integrals=lambda m, px, py: [(_product, px, py)],
        terms=("m2", "mx"),
        rhs=lambda fx, fy, gx, gy, m: _products(fx * gx + fy * gy, fx * gy + fy * gx, 1.0),
        notes=(_ENDPOINT_BINDING_NOTE,),
    ),
}


# --------------------------------------------------------------------------
# The evaluator
# --------------------------------------------------------------------------

def _sum(values) -> float:
    """Left-to-right float sum from the first term, so a lone -0.0 stays -0.0."""
    return functools.reduce(operator.add, values)


# A sweep's cells differ in one axis value and a reduction pair's two bounds
# share their integral, so a repeat comes within a few integrals.  A small
# bound keeps those hits and releases the functions of finished jobs.
_INTEGRAL_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_INTEGRAL_MEMO_SIZE)
def _memo_integral(kind, f, g, lo, hi, lo_sign, hi_sign, tol, budget):
    return integrate(kind(f, g, lo, hi), lo, hi, tol, budget)


def _integral(kind, f, g, lo, hi, tol, budget):
    """The integral of ``kind`` over [lo, hi]: memoised per kind, f, g (for
    a product only), the ends and their signs, since 0.0 == -0.0, the
    tolerance and the budget."""
    if kind is not _product:
        g = None
    try:
        hash((f, g))
    except TypeError:  # e.g. a derived source wrapping an unhashable callable
        return integrate(kind(f, g, lo, hi), lo, hi, tol, budget)
    return _memo_integral(kind, f, g, lo, hi, math.copysign(1.0, lo), math.copysign(1.0, hi),
                          tol, budget)


def verify(
    theorem_id: str,
    f: FuncDef,
    *,
    g: FuncDef | None = None,
    h: FuncDef | None = None,
    m: float = 1.0,
    phi: FuncDef | None = None,
    x: float = 0.0,
    y: float = 1.0,
    quad_tol: float = DEFAULT_TOL,
    report_tol: float = DEFAULT_REPORT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Verify the bound ``theorem_id`` (a key of :data:`BOUNDS`).

    Background bounds read x, y as their interval ends a, b, and every bound
    ignores the functions and parameters its statement does not have.  An
    unknown id or a missing function raises ValueError, a modulus m outside
    (0, 1] CatalogError before anything is evaluated, for a bound that has
    m, and a failed precondition OrientationError or WeightError; a domain
    or integrand error while evaluating gives an indeterminate verdict.

    Each left-side integral comes from a bounded LRU memo of 8 entries,
    keyed by the integrand's kind, f, g (for a product only), the ends and
    their signs, quad_tol and budget, so a FuncDef is taken to be a pure
    function of its value, as for the weight moments.  An unhashable f or g
    skips the memo, and errors are never memoised.  A sweep's cells run in
    row-major order, the last axis fastest, and s moves no integral: an
    integral recurs after the cells of the axes declared after s, one or two
    integrals each, and hits only when those hold at most 8 integrals.  A
    sweep of T2_2 declared (m, s, x) hits for up to four x values; declared
    (s, m, x), it repeats an integral only after 2*n_m*n_x integrals, and
    misses once n_m*n_x exceeds four.
    """
    bound = BOUNDS.get(theorem_id)
    if bound is None:
        raise ValueError(f"unknown theorem id '{theorem_id}'")
    functions = {"f": f, "g": g, "h": h}
    for role in bound.roles:
        if functions[role] is None:
            raise ValueError(f"this theorem needs the function '{role}'")
    if "m" in bound.inputs:
        check_modulus(m)
    if "phi" in bound.inputs:
        if phi is None:
            phi = _identity_on(tuple(f.domain), tuple(math.copysign(1.0, end) for end in f.domain))
        px, py = phi(x), phi(y)
    else:
        px, py = x, y
    for check in bound.checks:
        check(h, m, px, py)
    given = {**functions, "phi": phi, "m": m, "x": x, "y": y, "a": x, "b": y}
    inputs = {key: given[key].label if key in ("f", "g", "h", "phi") else given[key]
              for key in bound.inputs}

    try:
        # Every bound evaluates its lower side, f and g at the ends, its
        # integrals, then the weight moments.  The order decides which error
        # an indeterminate verdict names.
        lower = None if bound.lower is None else bound.lower(f, h, px, py)
        fx, fy = f(px), f(py)
        gx, gy = (g(px), g(py)) if "g" in bound.roles else (None, None)
        integrals = [(_integral(kind, f, g, lo, hi, quad_tol, budget), hi - lo)
                     for kind, lo, hi in bound.integrals(m, px, py)]
        moments = {name: h_moment(h, name, quad_tol, budget) for name in bound.moments}
    except (EvalDomainError, IntegrandError) as exc:
        nan = math.nan
        return Verdict(theorem_id, nan, nan, nan, nan, "indeterminate", inputs,
                       (f"{type(exc).__name__}: {exc}",))

    coefficients, echoed = bound.rhs(fx, fy, gx, gy, m)
    inputs.update(echoed)
    scale = 1.0 if bound.scale is None else bound.scale(m)  # dividing by 1.0 is exact
    lhs = _sum(integral.value / length for integral, length in integrals) / scale
    lhs_err = _sum(integral.abs_err / length for integral, length in integrals) / scale
    terms = list(zip(coefficients, bound.terms))
    rhs = _sum(k if name is None else k * moments[name].value for k, name in terms)
    quad_err = _sum([lhs_err] + [abs(k) * moments[name].abs_err
                                 for k, name in terms if name is not None])
    parts = [integral for integral, _ in integrals] + list(moments.values())
    indeterminate = any(part.indeterminate for part in parts)
    notes = bound.notes + ((_BUDGET_NOTE,) if indeterminate else ())
    margin = rhs - lhs
    sides = {}
    if lower is not None:  # lhs is the mean that lower and rhs sandwich
        sides = dict(mean=lhs, margin_lower=lhs - lower, margin_upper=margin)
        lhs, margin = lower, min(lhs - lower, margin)
    if indeterminate or not math.isfinite(margin):
        status = "indeterminate"
    else:
        status = "pass" if margin >= -(quad_err + report_tol) else "fail"
    return Verdict(theorem_id, lhs, rhs, margin, quad_err, status, inputs, notes, **sides)


def _fh_verifier(theorem_id: str, doc: str) -> Callable[..., Verdict]:
    """The public verifier ``verify_<theorem_id>`` of a main bound of f and h."""
    def verifier(
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
        return verify(theorem_id, f, h=h, m=m, phi=phi, x=x, y=y,
                      quad_tol=quad_tol, report_tol=report_tol, budget=budget)

    # the module attribute of this name holds it, so it pickles by reference
    verifier.__name__ = verifier.__qualname__ = f"verify_{theorem_id.lower()}"
    verifier.__doc__ = doc
    return verifier


verify_t2_1 = _fh_verifier("T2_1", "Reflected-product mean bound over [phi(x), m*phi(y)].")
verify_t2_2dot = _fh_verifier("T2_2dot", "Single-integral mean bound over [phi(x), m*phi(y)].")
verify_t2_2 = _fh_verifier("T2_2", "Two-average bound; needs the chain 0 <= m*px <= px < m*py <= py.")


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
    return verify("T2_3", f, g=g, h=h, m=m, phi=phi, x=x, y=y,
                  quad_tol=quad_tol, report_tol=report_tol, budget=budget)


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
    if theorem_id not in BACKGROUND_IDS:
        raise ValueError(f"unknown background theorem id '{theorem_id}'")
    return verify(theorem_id, f, g=g, h=h, m=m, phi=phi, x=a, y=b,
                  quad_tol=quad_tol, report_tol=report_tol, budget=budget)


# --------------------------------------------------------------------------
# Reduction checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """A main bound and the background bound it degenerates into.

    Both run at m = 1 when ``unit_m`` (else at the probe's m), with the
    probe's phi only when ``deformed``; the main lhs is compared with the
    background's ``side`` ("lhs", or "mean" for a two-sided target).  A
    probe needs the functions of the main bound's roles.
    """

    main: str
    background: str
    unit_m: bool
    deformed: bool
    side: str


REDUCTIONS: dict[str, Reduction] = {
    "T2_1_vs_T1_13": Reduction("T2_1", "T1_13", unit_m=True, deformed=True, side="lhs"),
    # the reduction hits the mean <= upper-bound half of the target
    "T2_2dot_vs_T1_9": Reduction("T2_2dot", "T1_9", unit_m=True, deformed=False, side="mean"),
    "T2_2_vs_T1_11": Reduction("T2_2", "T1_11", unit_m=False, deformed=False, side="lhs"),
    "T2_3_vs_T1_14": Reduction("T2_3", "T1_14", unit_m=True, deformed=True, side="lhs"),
}
REDUCTION_PAIRS = tuple(REDUCTIONS)


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
    reduction = REDUCTIONS.get(pair)
    if reduction is None:
        raise ValueError(f"unknown reduction pair '{pair}'")
    if not probes:
        raise ValueError("probe set must be nonempty")
    verdicts = []
    for probe in probes:
        for role in BOUNDS[reduction.main].roles:
            if probe.get(role) is None:
                raise ValueError(f"{pair} probes need the function '{role}'")
        m = float(probe.get("m", 1.0))
        shared = dict(
            g=probe.get("g"), h=probe["h"], m=1.0 if reduction.unit_m else m,
            phi=probe.get("phi") if reduction.deformed else None,
            x=float(probe["x"]), y=float(probe["y"]), quad_tol=quad_tol, report_tol=report_tol,
        )
        verdicts.append((verify(reduction.main, probe["f"], **shared),
                         verify(reduction.background, probe["f"], **shared)))
    settled = [(v1, v2) for v1, v2 in verdicts if "indeterminate" not in (v1.status, v2.status)]
    # (lhs, rhs, allowance) per settled probe, after a zero row for the maxima
    deviations = [(0.0, 0.0, 0.0)] + [
        (abs(v1.lhs - getattr(v2, reduction.side)), abs(v1.rhs - v2.rhs),
         REDUCTION_TOL + v1.quad_err + v2.quad_err) for v1, v2 in settled]
    indeterminate = len(settled) < len(verdicts)
    return ReductionReport(
        pair=pair,
        probes=len(probes),
        max_dev_lhs=max(lhs for lhs, _, _ in deviations),
        max_dev_rhs=max(rhs for _, rhs, _ in deviations),
        max_allowance=max(cap for _, _, cap in deviations),
        passed=not indeterminate and not any(lhs > cap or rhs > cap for lhs, rhs, cap in deviations),
        indeterminate=indeterminate,
    )
