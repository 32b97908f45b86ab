import heapq
import math
import random
import struct
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from genconvex import funcdsl, quad
from genconvex.algebra import combine, compose_phi
from genconvex.cli import normalize_scenario, run_scenario
from genconvex.errors import (
    CatalogError, EvalDomainError, GenConvexError, IntegrandError, OrientationError,
)
from genconvex.funcdsl import DerivedSource, FuncDef, catalog, domain_slack, func_from_expr
from genconvex.quad import h_moments, integrate
from genconvex.theorems import check_reduction


def poly_integral_oracle(coeffs, a, b):
    """Exact rational antiderivative of sum(c_k u^k) over [a, b]."""
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return float(total)


class TestIntegrate:
    def test_square_on_unit_interval(self):
        r = integrate(lambda u: u * u, 0.0, 1.0, 1e-10)
        assert abs(r.value - poly_integral_oracle([0, 0, 1], 0, 1)) <= 1e-10
        assert r.abs_err <= 1e-10
        assert not r.indeterminate

    def test_constant_over_2_5(self):
        r = integrate(lambda u: 1.0, 2.0, 5.0, 1e-10)
        assert abs(r.value - 3.0) <= 1e-12 * (1.0 + 3.0)

    def test_weight_cross_term(self):
        r = integrate(lambda t: t * (1.0 - t), 0.0, 1.0, 1e-10)
        assert abs(r.value - poly_integral_oracle([0, 1, -1], 0, 1)) <= 1e-10

    @pytest.mark.parametrize("degree", [5, 13, 19, 22])
    def test_polynomial_exactness(self, degree):
        coeffs = [((-1) ** k) * (k + 1) / 7.0 for k in range(degree + 1)]

        def p(u):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * u + c
            return acc

        exact = poly_integral_oracle(coeffs, 0, 1)
        r = integrate(p, 0.0, 1.0, 1e-10)
        assert abs(r.value - exact) <= 1e-12 * (1.0 + abs(exact))

    def test_funcdef_integrand(self):
        f = catalog("power", (2,), (0.0, 1.0))
        r = integrate(f, 0.0, 1.0, 1e-10)
        assert abs(r.value - 1 / 3) <= 1e-10

    def test_endpoint_singularity_converges(self):
        r = integrate(lambda u: u ** -0.5, 0.0, 1.0, 1e-9)
        assert abs(r.value - 2.0) <= 1e-8
        assert not r.indeterminate

    def test_orientation_error(self):
        with pytest.raises(OrientationError):
            integrate(lambda u: u, 1.0, 1.0)
        with pytest.raises(OrientationError):
            integrate(lambda u: u, 2.0, 1.0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate(lambda u: u, 0.0, 1.0, tol=0.0)

    def test_a_non_finite_value_at_the_panel_centre_is_named(self):
        with pytest.raises(IntegrandError) as err:
            integrate(lambda u: math.inf if u == 0.5 else 1.0, 0.0, 1.0)
        assert str(err.value) == "integrand returned inf at u=0.5"
        assert err.value.point == 0.5

    def test_non_finite_integrand_reports_abscissa(self):
        def f(u):
            return math.nan if u > 0.5 else 1.0

        with pytest.raises(IntegrandError) as err:
            integrate(f, 0.0, 1.0)
        assert 0.5 < err.value.point < 1.0

    @pytest.mark.parametrize("f, b", [
        (lambda u: 1e308, 4.0),  # the first panel's value is inf and its error NaN
        (lambda u: 8e307, 3.0),  # finite panels whose sum overflows in fsum
        (lambda u: 1.5e308 if u < 3.0 else -1.5e308, 6.0),  # fsum meets -inf + inf
    ], ids=["inf-panel", "fsum-overflow", "fsum-inf-minus-inf"])
    def test_overflowing_integral_raises(self, f, b):
        with pytest.raises(IntegrandError) as err:
            integrate(f, 0.0, b)
        assert str(err.value) == f"the integral over [0.0, {b!r}] overflows the float range"
        assert err.value.point is None

    def test_budget_exhaustion_is_flagged(self):
        r = integrate(lambda t: 1.0 / t, 0.0, 1.0, 1e-10, budget=2000)
        assert r.indeterminate
        assert r.abs_err > 1e-10
        assert r.evaluations <= 2000

    def test_evaluation_count(self):
        r = integrate(lambda u: u, 0.0, 1.0)
        assert r.evaluations >= 15
        assert r.evaluations % 15 == 0

    def test_the_node_offsets_are_the_complements_of_the_abscissae(self):
        # QUADPACK's qk15 abscissae x_i to 33 digits; 1 - x_i rounded once
        xgk = ("0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
               "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
               "0.586087235467691130294144838258730", "0.405845151377397166906606412076961",
               "0.207784955007898467600689403773245")
        assert quad._CGK == tuple(float(Decimal(1) - Decimal(x)) for x in xgk)


class TestProperties:
    def test_linearity(self):
        f = lambda u: math.exp(u)
        g = lambda u: u ** 3 - u
        alpha, beta = 2.5, -1.25
        rf = integrate(f, 0.0, 1.0)
        rg = integrate(g, 0.0, 1.0)
        rc = integrate(lambda u: alpha * f(u) + beta * g(u), 0.0, 1.0)
        allowed = abs(alpha) * rf.abs_err + abs(beta) * rg.abs_err + rc.abs_err
        assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= allowed + 1e-13

    @pytest.mark.parametrize("c", [0.3, 0.5, 1 / 3, 0.9])
    def test_interval_additivity(self, c):
        f = lambda u: math.sqrt(u) + u * u
        whole = integrate(f, 0.0, 1.0)
        left = integrate(f, 0.0, c)
        right = integrate(f, c, 1.0)
        allowed = whole.abs_err + left.abs_err + right.abs_err
        assert abs(whole.value - (left.value + right.value)) <= allowed + 1e-13

    @given(c=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_interval_additivity_any_split(self, c):
        f = lambda u: math.exp(-u) * (1.0 + u * u)
        whole = integrate(f, 0.0, 1.0)
        left = integrate(f, 0.0, c)
        right = integrate(f, c, 1.0)
        allowed = whole.abs_err + left.abs_err + right.abs_err
        assert abs(whole.value - (left.value + right.value)) <= allowed + 1e-13

    def test_cross_moment_symmetry(self):
        h = catalog("power", (2,), (0.0, 1.0))
        h_flipped = func_from_expr("(1-t)^2", "t", (0.0, 1.0))
        _, _, mx = h_moments(h)
        _, _, mx_flipped = h_moments(h_flipped)
        assert abs(mx.value - mx_flipped.value) <= 2.0 * (mx.abs_err + mx_flipped.abs_err) + 1e-13

    @pytest.mark.parametrize(
        "h",
        [
            catalog("identity", (), (0.0, 1.0)),
            catalog("constant", (1,), (0.0, 1.0)),
            catalog("power", (2,), (0.0, 1.0)),
            catalog("sqrt", (), (0.0, 1.0)),
            catalog("affine", (1.0, 1.0), (0.0, 1.0)),
        ],
    )
    def test_cauchy_schwarz_moment_bound(self, h):
        m1, m2, _ = h_moments(h)
        assert m2.value >= m1.value ** 2 - (m2.abs_err + 2.0 * m1.abs_err) - 1e-13


class TestHMoments:
    def test_linear_weight(self):
        h = catalog("identity", (), (0.0, 1.0))
        m1, m2, mx = h_moments(h)
        assert abs(m1.value - 0.5) <= 1e-10
        assert abs(m2.value - 1 / 3) <= 1e-10
        assert abs(mx.value - 1 / 6) <= 1e-10

    def test_constant_weight(self):
        h = catalog("constant", (1,), (0.0, 1.0))
        m1, m2, mx = h_moments(h)
        assert abs(m1.value - 1.0) <= 1e-10
        assert abs(m2.value - 1.0) <= 1e-10
        assert abs(mx.value - 1.0) <= 1e-10

    def test_square_weight(self):
        # oracle: int t^2 = 1/3, int t^4 = 1/5, int t^2 (1-t)^2 = 1/30 by expansion
        expansion = poly_integral_oracle([0, 0, 1, -2, 1], 0, 1)
        assert expansion == float(Fraction(1, 30))
        h = catalog("power", (2,), (0.0, 1.0))
        m1, m2, mx = h_moments(h)
        assert abs(m1.value - 1 / 3) <= 1e-10
        assert abs(m2.value - 1 / 5) <= 1e-10
        assert abs(mx.value - expansion) <= 1e-10

    def test_each_moment_carries_error_estimate(self):
        h = catalog("sqrt", (), (0.0, 1.0))
        for integral in h_moments(h):
            assert integral.abs_err >= 0.0
            assert integral.evaluations >= 15

    def test_non_integrable_weight_is_surfaced(self):
        h = catalog("recip_power", (1,), (0.0, 1.0))
        m1 = integrate(h, 0.0, 1.0, 1e-10, budget=2000)
        assert m1.indeterminate


class TestMomentMemo:
    @pytest.fixture
    def computations(self, monkeypatch):
        """Records each moment the moment helpers compute, from a cold memo."""
        calls = []
        compute = quad._compute_moment

        def counting(h, moment, tol, budget):
            calls.append(moment)
            return compute(h, moment, tol, budget)

        quad._memo_moment.cache_clear()
        monkeypatch.setattr(quad, "_compute_moment", counting)
        yield calls
        quad._memo_moment.cache_clear()

    @pytest.mark.parametrize("theorem,moments_used", [("T2_2dot", 1), ("T2_2", 1), ("T2_1", 2)])
    def test_sweep_computes_each_moment_once_per_weight(self, computations, theorem, moments_used):
        scenario = normalize_scenario({
            "name": "m-s-sweep", "command": "sweep", "theorem": theorem,
            "functions": {"f": "x^2", "h": {"family": "power", "params": [1]}},
            "points": {"x": 0.0, "y": 1.0},
            "axes": [
                {"param": "m", "values": [0.25, 0.5, 0.75, 1.0]},
                {"param": "s", "values": [0.5, 1.0, 2.0]},
            ],
        })
        report = run_scenario(scenario)
        assert len(report["items"]) == 12
        assert len(computations) == 3 * moments_used

    def test_reduction_computes_m2_and_mx_once(self, computations):
        h = catalog("power", (2,), (0.0, 1.0))
        probes = [dict(f=catalog("identity", (), (0.0, 1.0)), h=h, x=0.0, y=1.0)]
        assert check_reduction("T2_1_vs_T1_13", probes).passed
        assert len(computations) == 2
        assert quad._memo_moment.cache_info().hits == 2

    def test_memoised_moment_equals_a_fresh_one(self, computations):
        h = catalog("sqrt", (), (0.0, 1.0))
        for moment in quad.MOMENTS:
            cold = quad.h_moment(h, moment)
            assert quad.h_moment(h, moment) is cold
            assert quad._compute_moment(h, moment, quad.DEFAULT_TOL, quad.DEFAULT_BUDGET) == cold
        assert h_moments(h) == tuple(quad.h_moment(h, k) for k in quad.MOMENTS)

    def test_key_includes_tol_and_budget(self, computations):
        h = catalog("sqrt", (), (0.0, 1.0))
        quad.h_moment(h, "m1", 1e-10)
        quad.h_moment(h, "m1", 1e-8)
        quad.h_moment(h, "m1", 1e-8, budget=1000)
        assert len(computations) == 3

    def test_plain_callable_is_recomputed(self, computations):
        weight = lambda t: t  # noqa: E731
        first = quad.h_moment(weight, "m1")
        second = quad.h_moment(weight, "m1")
        assert first == second
        assert len(computations) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_unhashable_source_is_recomputed(self, computations):
        class Unhashable:
            __hash__ = None

            def __call__(self, t):
                return t

        h = FuncDef(DerivedSource(Unhashable(), "unhashable"), (0.0, 1.0))
        assert quad.h_moment(h, "m2").value == pytest.approx(1 / 3)
        quad.h_moment(h, "m2")
        assert len(computations) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_exceptions_are_not_memoised(self, computations):
        h = func_from_expr("ln(t - 0.5)", "t", (0.0, 1.0))
        for _ in range(2):
            with pytest.raises(EvalDomainError):
                quad.h_moment(h, "m1")
        assert len(computations) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_unknown_moment_is_rejected(self):
        with pytest.raises(ValueError):
            quad.h_moment(catalog("identity", (), (0.0, 1.0)), "m3")

    def test_memo_size_is_bounded(self, computations):
        maxsize = quad._memo_moment.cache_info().maxsize
        assert maxsize is not None and maxsize <= 128
        for k in range(maxsize + 10):
            quad.h_moment(catalog("constant", (k,), (0.0, 1.0)), "m1")
            assert quad._memo_moment.cache_info().currsize <= maxsize
        assert quad._memo_moment.cache_info().currsize == maxsize


# --------------------------------------------------------------------------
# The adaptive GK15 rule as it was before the per-panel domain check, kept
# as the reference the production rule must match bit for bit: every node
# goes through the integrand (a FuncDef through its checked __call__) and
# then through the finiteness check.  It reads the rule's tables from quad.
# --------------------------------------------------------------------------

def _reference_eval_checked(f, x):
    value = f(x)
    if not math.isfinite(value):
        raise IntegrandError(f"integrand returned {value!r}", x)
    return value


def _reference_gk15(f, a, b):
    half = 0.5 * b - 0.5 * a
    fv = [0.0] * 15
    for i, c in enumerate(quad._CGK):
        lo_val = _reference_eval_checked(f, a + half * c)
        hi_val = _reference_eval_checked(f, b - half * c)
        fv[i] = lo_val
        fv[14 - i] = hi_val
    fv[7] = _reference_eval_checked(f, a + half)

    resk = quad._WGK[7] * fv[7]
    resg = quad._WG[3] * fv[7]
    resabs = quad._WGK[7] * abs(fv[7])
    for i in range(7):
        pair = fv[i] + fv[14 - i]
        resk += quad._WGK[i] * pair
        resabs += quad._WGK[i] * (abs(fv[i]) + abs(fv[14 - i]))
        if i % 2 == 1:
            resg += quad._WG[i // 2] * pair
    value = resk * half
    err = abs((resk - resg) * half)
    floor = 50.0 * math.ulp(1.0) * abs(resabs * half)
    return value, max(err, floor)


def reference_integrate(f, a, b, tol=quad.DEFAULT_TOL, budget=quad.DEFAULT_BUDGET):
    if not (a < b):
        raise OrientationError(f"need a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")

    value, err = _reference_gk15(f, a, b)
    evaluations = 15
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_err = err
    while total_err > tol and evaluations + 2 * 15 <= budget:
        neg_err, _, pa, pb, pvalue, perr = heapq.heappop(heap)
        mid = pa + (0.5 * pb - 0.5 * pa)
        if mid <= pa or mid >= pb:
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pvalue, perr))
            counter += 1
            break
        lv, le = _reference_gk15(f, pa, mid)
        rv, re = _reference_gk15(f, mid, pb)
        evaluations += 2 * 15
        counter += 2
        heapq.heappush(heap, (-le, counter - 1, pa, mid, lv, le))
        heapq.heappush(heap, (-re, counter, mid, pb, rv, re))
        total_value += lv + rv - pvalue
        total_err += le + re - perr

    panels = sorted((pa, pb, pvalue, perr) for _, _, pa, pb, pvalue, perr in heap)
    return quad.Integral(
        value=math.fsum(p[2] for p in panels),
        abs_err=math.fsum(p[3] for p in panels),
        evaluations=evaluations,
        indeterminate=math.fsum(p[3] for p in panels) > tol,
    )


def reference_cross_integrand(h):
    """mx's integrand over [0, 1], for the unfolded reference rule."""
    return lambda t: h(t) * h(1.0 - t)


def _bits(x):
    return struct.pack("d", x)


def _outcome(run):
    """Value and error bits, count and flag, or the error's type, message
    and point bits."""
    try:
        r = run()
    except Exception as exc:  # the comparison covers every error type
        point = getattr(exc, "point", None)
        return (type(exc), str(exc), None if point is None else _bits(point))
    return (_bits(r.value), _bits(r.abs_err), r.evaluations, r.indeterminate)


def _same_as_reference(f, a, b, tol=quad.DEFAULT_TOL, budget=quad.DEFAULT_BUDGET):
    expected = _outcome(lambda: reference_integrate(f, a, b, tol, budget))
    assert _outcome(lambda: integrate(f, a, b, tol, budget)) == expected
    return expected


def _step(u):
    return 0.0 if u < 0.3 else 1e20


# integrands built on a domain: DSL text or a catalog (family, params)
_INTEGRANDS = [
    "x^2", "sqrt(x + 2)", "exp(x)*sqrt(x + 3)", "ln(x + 2)", "1/x",
    "abs(x - 0.3)", "x^(-0.3)", "1e20*abs(x - 0.3)/(x - 0.3)",
    ("power", (0.5,)), ("recip_power", (0.5,)), ("poly", (1.0, 2.0, 3.0)), ("sqrt", ()),
]


def _integrand_on(spec, domain):
    if isinstance(spec, str):
        return func_from_expr(spec, "x", domain)
    try:
        return catalog(spec[0], spec[1], domain)
    except CatalogError:  # the domain misses the family's natural domain
        assume(False)


@st.composite
def _domain_and_interval(draw):
    """A domain [lo, hi] and an interval [a, b] equal to it, inside it,
    around it, or a few slack units (1/16 of the 16-ulp clamp) off each end,
    inside or past the clamp."""
    lo = draw(st.sampled_from([0.0, -1.0, 0.25, 1e-3, -2.5]))
    hi = lo + draw(st.sampled_from([1.0, 0.5, 3.0, 2.0 ** -40]))
    unit = domain_slack(lo, hi) / 16.0
    shape = draw(st.sampled_from(["equal", "narrower", "wider", "slack"]))
    if shape == "equal":
        a, b = lo, hi
    elif shape == "narrower":
        p = draw(st.floats(min_value=0.0, max_value=0.9))
        q = draw(st.floats(min_value=p + 0.05, max_value=1.0))
        a, b = lo + p * (hi - lo), lo + q * (hi - lo)
    elif shape == "wider":
        a = lo - draw(st.floats(min_value=0.0, max_value=1.0))
        b = hi + draw(st.floats(min_value=0.0, max_value=1.0))
    else:
        a = lo + draw(st.integers(min_value=-40, max_value=40)) * unit
        b = hi + draw(st.integers(min_value=-40, max_value=40)) * unit
    if not a < b:
        a, b = lo, hi
    return (lo, hi), a, b


class TestMatchesReferenceRule:
    """The production rule against the reference above, bit for bit."""

    @given(
        spec=st.sampled_from(_INTEGRANDS),
        where=_domain_and_interval(),
        tol=st.sampled_from([1e-6, 1e-10]),
        budget=st.sampled_from([15, 465, 3000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_funcdef_on_any_domain(self, spec, where, tol, budget):
        domain, a, b = where
        _same_as_reference(_integrand_on(spec, domain), a, b, tol, budget)

    @given(
        s=st.floats(min_value=-0.95, max_value=2.0),
        moment=st.sampled_from(quad.MOMENTS),
        domain=st.sampled_from([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (0.1, 1.0), (0.0, 0.9)]),
        budget=st.sampled_from([465, 3000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_moment_of_any_power_weight(self, s, moment, domain, budget):
        # moments no longer use this rule: each is held to its closed form
        # instead, and a weight whose domain misses part of [0, 1] raises
        exact = _power_moment(s, moment)
        for h in (catalog("power", (s,), domain), func_from_expr(f"t^({s!r})", "t", domain)):
            def run():
                return quad._compute_moment(h, moment, quad.DEFAULT_TOL, budget)
            if not (h.domain[0] <= 0.0 and 1.0 <= h.domain[1]):
                with pytest.raises(EvalDomainError, match="outside domain"):
                    run()
            elif exact is None:  # m2 of s <= -1/2 diverges
                assert _claim_outcome(run, math.inf) in ("raised", "indeterminate")
            else:
                assert _claim_outcome(run, exact) in ("ok", "indeterminate")

    @pytest.mark.parametrize("f", [math.exp, _step, lambda u: 1.0 / u, lambda u: math.nan])
    def test_plain_callable(self, f):
        _same_as_reference(f, 0.0, 1.0, budget=20000)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0, 0.3, 1e-300])
    def test_one_ulp_panel(self, a):
        b = math.nextafter(a, math.inf)
        for lo, hi in ((a, b), (a, a), (b, b), (a - 1.0, a)):
            _same_as_reference(catalog("poly", (1.0, 2.0, 3.0), (lo, hi)), a, b)
            _same_as_reference(func_from_expr("1/x", "x", (lo, hi)), a, b)

    def test_bisection_down_to_one_ulp(self):
        # the jump sits 2 ulp into an 8-ulp interval: bisection reaches a
        # panel one ulp wide long before the budget, and stops there, after
        # three bisections, at the one just below the jump
        def jump(u):
            return 0.0 if u < 1.0 + 2.0**-51 else 1.0

        r = _same_as_reference(jump, 1.0, 1.0 + 2.0**-49, tol=1e-300)
        assert r[2:] == (105, True)

    def test_bisection_at_a_jump_stops_at_its_one_ulp_panel(self):
        # neither the panel holding the jump nor a wide one of the constant
        # 1e20, whose roundoff floor exceeds the tolerance, gets within it:
        # bisection goes on until the worst panel is the one ulp around the
        # jump, where a node from each end sees a side, long before the budget
        step = FuncDef(DerivedSource(_step, "step"), (0.0, 1.0))
        r = _same_as_reference(step, 0.0, 1.0)
        assert r[2:] == (87_435, True)
        _same_as_reference(_step, 0.0, 1.0)


# Evaluations the tanh-sinh levels spend on t^s moments at the default
# tolerance and budget: two halves for m1 and m2, one for mx.
_MOMENT_EVALUATIONS = {
    0.5: {"m1": 306, "m2": 306, "mx": 153},
    -0.3: {"m1": 306, "m2": 306, "mx": 153},
    -0.45: {"m1": 306, "m2": 306, "mx": 153},
}


class TestMomentsMatchReference:
    """Moments of t^s against their closed forms (_power_moment), strictly:
    each meets the tolerance and lies within its error estimate of the
    closed form, at the evaluations pinned above."""

    @pytest.mark.parametrize("s", sorted(_MOMENT_EVALUATIONS))
    @pytest.mark.parametrize("moment", quad.MOMENTS)
    @pytest.mark.parametrize("form", ["catalog", "dsl"])
    def test_power_weight(self, s, moment, form):
        h = catalog("power", (s,)) if form == "catalog" else func_from_expr(f"t^({s!r})", "t")
        r = quad._compute_moment(h, moment, quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)
        assert not r.indeterminate and r.abs_err <= quad.DEFAULT_TOL
        assert abs(r.value - _power_moment(s, moment)) <= r.abs_err
        assert r.evaluations == _MOMENT_EVALUATIONS[s][moment]

    def test_f2_cross_moment_error_point(self):
        # Over [0, 1] a GK15 node of a panel next to 1 rounds to t = 1.0, so
        # h(1 - t) = 0.0**-0.45 raises at 0.0.  The moments' nodes lie in
        # [0, 1/2], where 1 - t >= 1/2.
        h = catalog("power", (-0.45,))
        whole = reference_cross_integrand(h)
        with pytest.raises(EvalDomainError, match="zero raised to a negative power") as err:
            reference_integrate(whole, 0.0, 1.0)
        assert err.value.point == 0.0
        mx = quad._compute_moment(h, "mx", quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)
        assert not mx.indeterminate
        assert abs(mx.value - math.gamma(0.55) ** 2 / math.gamma(1.1)) <= mx.abs_err


# --------------------------------------------------------------------------
# Every moment's error claim against its closed form.  For h(t) = t^s, and
# for its mirror (1-t)^s, m1 = 1/(s+1), m2 = 1/(2s+1) for s > -1/2, and mx =
# B(s+1, s+1) = G(s+1)^2/G(2s+2); math.gamma's few-ulp error is far below
# every abs_err.  A moment may call itself indeterminate, but a value it
# vouches for must lie within its error estimate of the closed form.
# --------------------------------------------------------------------------

def _power_moment(s, moment):
    """The closed form of one moment of t^s, or None where it diverges."""
    if moment == "m1":
        return 1.0 / (s + 1.0)
    if moment == "m2":
        return 1.0 / (2.0 * s + 1.0) if s > -0.5 else None
    return math.gamma(s + 1.0) ** 2 / math.gamma(2.0 * s + 2.0)


# s = -0.98 + 0.0098k for k = 1..199, then 1.0, 1.1, ..., 2.9
_ORACLE_EXPONENTS = [round(-0.98 + 0.0098 * k, 4) for k in range(1, 200)] \
    + [round(1.0 + 0.1 * k, 4) for k in range(20)]


def _claim_outcome(run, exact):
    """'ok' when the value lies within its error estimate of ``exact``,
    'raised' or 'indeterminate' otherwise, else the size of the miss."""
    try:
        r = run()
    except GenConvexError:
        return "raised"
    if r.indeterminate:
        return "indeterminate"
    miss = abs(r.value - exact)
    return "ok" if miss <= r.abs_err else f"error {miss!r} beyond the claimed {r.abs_err!r}"


def _power_weight(s, form):
    if form == "catalog":
        return catalog("power", (s,))
    return func_from_expr(f"t^({s!r})" if form == "dsl" else f"(1-t)^({s!r})", "t")


class TestErrorClaimsMatchClosedForms:
    @pytest.mark.parametrize("s, moment, form", [
        pytest.param(s, moment, form, id=f"{moment}-{form}-{s!r}")
        for s in _ORACLE_EXPONENTS for moment in quad.MOMENTS
        for form in ("catalog", "dsl", "mirror")
        if _power_moment(s, moment) is not None])
    def test_power_weight(self, s, moment, form):
        exact = _power_moment(s, moment)
        outcome = _claim_outcome(lambda: quad.h_moment(_power_weight(s, form), moment), exact)
        # only a cut tail above the tolerance, s near -1, leaves mx indeterminate
        allowed = ("ok",) if moment == "mx" and s >= -0.96 else ("ok", "indeterminate")
        assert outcome in allowed

    @pytest.mark.parametrize("moment", quad.MOMENTS)
    def test_mirror_power_weight(self, moment):
        # (1-t)^s has the moments of t^s; the reflected tree reaches its
        # singularity at 0, where GK15 met it at 1 in steps of ulp(1)
        exact = _power_moment(-0.4, moment)
        assert _claim_outcome(lambda: quad.h_moment(_power_weight(-0.4, "mirror"), moment),
                              exact) == "ok"


# Genz's C0 and kink families [Genz 1984], exp(-c|x - w|) with c = 5 and
# |x - w|, with their integrals over [0, 1].  GK15 and its Gauss rule are
# both exact on a line, so where w lies between a panel's end and its
# outermost node every node sees a line, the two rules agree, and the error
# estimate falls to the roundoff floor: at w = 0.25091506814631304, |x - w|
# is off by 8.4e-7 while claiming 3.5e-15, after 75 evaluations.
_GENZ_KINKED = {
    "kink": (lambda w: lambda x: abs(x - w), lambda w: (w * w + (1.0 - w) ** 2) / 2.0),
    "C0": (lambda w: lambda x: math.exp(-5.0 * abs(x - w)),
           lambda w: (2.0 - math.exp(-5.0 * w) - math.exp(-5.0 * (1.0 - w))) / 5.0),
}


class TestGenzKinks:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: a kink next to a panel's end fools the GK15 "
                              "error estimate")
    @pytest.mark.parametrize("family", sorted(_GENZ_KINKED))
    @pytest.mark.parametrize("w", [0.25091506814631304, 0.5014295859466933])
    def test_the_error_claim_covers_the_kink(self, family, w):
        integrand, exact = _GENZ_KINKED[family]
        assert _claim_outcome(lambda: integrate(integrand(w), 0.0, 1.0), exact(w)) in (
            "ok", "indeterminate")


class TestFoldedCrossMoment:
    """mx as twice the integral of h(t)h(1-t) over [0, 1/2] at tol/2; the
    unfolded GK15 rule over [0, 1] is the reference."""

    @pytest.mark.parametrize("h", [
        func_from_expr("exp(t)", "t"),
        func_from_expr("t^2+0.3*t", "t"),
        func_from_expr("sqrt(t+0.1)*exp(-t)", "t"),
        catalog("poly", (1.0, 2.0, 3.0)),
    ], ids=["exp", "quadratic", "sqrt-exp", "poly"])
    def test_agrees_with_the_unfolded_rule_on_weights_that_are_not_symmetric(self, h):
        mx = quad.h_moment(h, "mx")
        whole = reference_integrate(reference_cross_integrand(h), 0.0, 1.0)
        assert not (mx.indeterminate or whole.indeterminate)
        assert abs(mx.value - whole.value) <= mx.abs_err + whole.abs_err

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_indeterminate_means_the_doubled_error_exceeds_the_tolerance(self, tol):
        # at budget 100 the half stops before its level 3, at 465 it converges
        flags = set()
        for s in (-0.9, -0.6, -0.45, -0.3, 0.5, 2.0):
            for h in (catalog("power", (s,)), func_from_expr(f"t^({s!r})", "t")):
                for budget in (100, 465):
                    mx = quad.h_moment(h, "mx", tol, budget)
                    assert mx.indeterminate == (mx.abs_err > tol)
                    flags.add(mx.indeterminate)
        assert flags == {False, True}

    def test_an_overflowing_cross_moment_raises(self):
        # h(t)h(1-t) = 1e400 t(1-t) overflows at every node above 1e-92
        with pytest.raises(IntegrandError, match="integrand returned inf"):
            quad.h_moment(func_from_expr("1e200*t", "t"), "mx")
        # a product finite everywhere has a finite half: c**2 for h = c,
        # whose GK15 panel sums overflowed, at a tolerance its roundoff meets
        mx = quad.h_moment(catalog("constant", (1.2e154,)), "mx", tol=1e300)
        assert not mx.indeterminate and abs(mx.value - 1.2e154**2) <= mx.abs_err

    def test_an_overflowing_doubled_half_raises(self, monkeypatch):
        # a half holds at most about max/2, so only a stand-in reaches this
        monkeypatch.setattr(quad, "_half", lambda g, tol, budget: quad.Integral(1e308, 1e-3, 15))
        with pytest.raises(IntegrandError, match=r"over \[0\.0, 1\.0\] overflows the float range"):
            quad._compute_moment(catalog("constant", (1.0,)), "mx", 1e-10, 465)


# --------------------------------------------------------------------------
# The adaptive GK15 rule with the per-panel domain choice it made before the
# choice moved to FuncDef.on, kept as the reference the production rule must
# match bit for bit: a FuncDef panel called the unchecked source only where
# the panel, which holds its nodes, lay inside the domain, and the moment
# integrands carried a form over the source valid on the window [0, 1].
# Each panel is the reference pass above over the callable chosen for it.
# --------------------------------------------------------------------------

class _Windowed:
    def __init__(self, checked, fn, lo, hi):
        self.checked, self.fn, self.lo, self.hi = checked, fn, lo, hi


def _windowed(f):
    if isinstance(f, _Windowed):
        return f
    if isinstance(f, FuncDef):
        return _Windowed(f._evaluator, f.source.fn, *f.domain)
    return _Windowed(f, f, -math.inf, math.inf)


def _windowed_gk15(f, a, b):
    fn = f.fn if f.lo <= a and b <= f.hi else f.checked
    return _reference_gk15(fn, a, b)


def windowed_integrate(f, a, b, tol=quad.DEFAULT_TOL, budget=quad.DEFAULT_BUDGET):
    if not (a < b):
        raise OrientationError(f"need a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")

    f = _windowed(f)
    value, err = _windowed_gk15(f, a, b)
    evaluations = 15
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_err = err
    while total_err > tol and evaluations + 2 * 15 <= budget:
        _, _, pa, pb, _, perr = heap[0]
        mid = pa + (0.5 * pb - 0.5 * pa)
        if mid <= pa or mid >= pb:
            break
        heapq.heappop(heap)
        lv, le = _windowed_gk15(f, pa, mid)
        rv, re = _windowed_gk15(f, mid, pb)
        evaluations += 2 * 15
        counter += 2
        heapq.heappush(heap, (-le, counter - 1, pa, mid, lv, le))
        heapq.heappush(heap, (-re, counter, mid, pb, rv, re))
        total_err += le + re - perr

    try:
        value = math.fsum(panel[4] for panel in heap)
        total_err = math.fsum(panel[5] for panel in heap)
        finite = math.isfinite(value) and math.isfinite(total_err)
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        raise IntegrandError(f"the integral over [{a!r}, {b!r}] overflows the float range")
    return quad.Integral(value, total_err, evaluations, total_err > tol)


def _slack_units(domain, k):
    return k * domain_slack(*domain) / 16.0


# (integrand, domain): DSL text or a catalog (family, params)
_WINDOW_CASES = [
    ("x^2", (0.0, 1.0)), ("1/x", (0.5, 3.0)), ("sqrt(x + 2)", (-1.0, 1.0)),
    ("x^(-0.3)", (0.0, 2.0)), ("1e20*abs(x - 0.3)/(x - 0.3)", (0.0, 1.0)),
    (("power", (0.5,)), (0.0, 1.0)), (("recip_power", (0.5,)), (0.25, 4.0)),
    (("poly", (1.0, 2.0, 3.0)), (-2.5, 0.5)),
    # ends past which a node placed from the panel's centre would round: a
    # power of two below and above, subnormal ends, and an end past 2**1022,
    # where the centre's sum of the ends would overflow
    ("(x - 1 + 1e-300)^(-0.45)", (1.0, 2.0)), ("(-1 - x + 1e-300)^(-0.45)", (-2.0, -1.0)),
    ("sqrt(x - 1.5e-323)", (1.5e-323, 3e-323)), ("1/x", (1.0, 1.7e308)),
]


def _window_intervals(domain):
    """Intervals inside the domain, touching either end, and crossing an
    end by up to 16 ulps (inside the clamp) or a little past it."""
    lo, hi = domain
    inner = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
    below = [lo - _slack_units(domain, k) for k in (1, 8, 16, 17, 40)]
    above = [hi + _slack_units(domain, k) for k in (1, 8, 16, 17, 40)]
    return ([inner, (lo, hi), (lo, inner[1]), (inner[0], hi)]
            + [(a, hi) for a in below] + [(lo, b) for b in above]
            + [(a, inner[1]) for a in below] + [(inner[0], b) for b in above])


class TestMatchesWindowedRule:
    """The production rule against the per-panel windowed rule above, bit
    for bit, with every outcome (value, error, count, flag or exception)."""

    @pytest.mark.parametrize("spec, domain", _WINDOW_CASES)
    @pytest.mark.parametrize("budget", [465, quad.DEFAULT_BUDGET])
    def test_funcdef_inside_at_and_across_the_domain_ends(self, spec, domain, budget):
        f = _integrand_on(spec, domain)
        for a, b in _window_intervals(domain):
            expected = _outcome(lambda: windowed_integrate(f, a, b, budget=budget))
            assert _outcome(lambda: integrate(f, a, b, budget=budget)) == expected, (a, b)

    @pytest.mark.parametrize("weight", [
        (-0.45, lambda domain: catalog("power", (-0.45,), domain)),
        (-0.45, lambda domain: func_from_expr("t^(-0.45)", "t", domain)),
        (-0.4, lambda domain: func_from_expr("(1-t)^(-0.4)", "t", domain)),
    ], ids=["catalog t^-0.45", "dsl t^-0.45", "dsl (1-t)^-0.4"])
    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.0, 2.0)])
    @pytest.mark.parametrize("moment", quad.MOMENTS)
    def test_moments_of_endpoint_singular_weights(self, weight, domain, moment):
        # moments no longer use this rule: on the same weights and domains
        # each meets the tolerance within its error estimate of the closed form
        s, build = weight
        r = quad.h_moment(build(domain), moment)
        assert not r.indeterminate
        assert abs(r.value - _power_moment(s, moment)) <= r.abs_err <= quad.DEFAULT_TOL


def _ulps_from(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


# panels where a node placed from the centre, center - half*x, rounded past
# the lower end: one ulp above a power of two, and subnormal ends
_ONCE_ESCAPED = [
    (1.0, 1.0 + 2.0 ** -52),
    (-1.0 - 2.0 ** -52, -1.0),
    (0.0, 1.5e-323),
    (1.5e-323, 3e-323),
    (2.0 ** -1022 + 5e-324, 2.0 ** -1022 + 2e-323),
]


_MAX = 1.7976931348623157e308
_PANEL_ENDS = [0.0, -0.0, 1.0, -1.0, 0.75, 3.0, 0.1, 2.0 ** -960, -(2.0 ** -960), 1e-280,
               2.0 ** 52, -1e30, 1e300, -(2.0 ** 1022), 2.0 ** 1022, 5e-324, -1e-310, 2.0 ** -1022,
               _MAX, -_MAX, 1e308, -1.7e308, 2.0 ** 1023, -1e-323]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _panels(draw):
    """Panels between any two floats, panels of random extent at scales from
    1e-300 to 1e300, and panels 1-4 ulps wide at 0, at powers of two, and at
    negative, subnormal and huge ends, up to the largest double."""
    kind = draw(st.sampled_from(["ulps", "scaled", "any"]))
    if kind == "ulps":
        a = draw(st.sampled_from(_PANEL_ENDS))
        a = draw(st.sampled_from([a, math.nextafter(a, -math.inf)]))
        a = max(a, -_MAX)
        b = _ulps_from(a, draw(st.integers(min_value=1, max_value=4)))
        return (a, b) if b <= _MAX else (math.nextafter(_MAX, 0.0), _MAX)
    if kind == "scaled":
        scale = draw(st.sampled_from([1e-300, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e300]))
        u = draw(st.floats(min_value=-1.0, max_value=1.0)) * scale
        v = draw(st.floats(min_value=-1.0, max_value=1.0)) * scale
    else:
        u, v = draw(_FINITE), draw(_FINITE)
    assume(u != v)
    return min(u, v), max(u, v)


def _nodes_of(a, b, kink=None):
    """(pa, pb, node) for every node integrate's rule computes over [a, b]:
    one panel, or with a kink a bisection that the kink drives to one-ulp
    panels.  A step of height 1 over more than half the float range makes
    integrate raise at the end, after its nodes are recorded."""
    nodes = []
    panel = None

    def record(u):
        nodes.append((*panel, u))
        return 0.0 if kink is None or u < kink else 1.0

    def recorded(fn, pa, pb):
        nonlocal panel
        panel = (pa, pb)
        return rule(record, pa, pb)

    rule = quad._gk15
    with mock.patch.object(quad, "_gk15", recorded):
        try:
            integrate(record, a, b, tol=1e-300, budget=15 if kink is None else 1500)
        except IntegrandError:
            assert kink is not None
    return nodes


def _outside_their_panel(nodes):
    return [(pa, pb, u) for pa, pb, u in nodes if not pa <= u <= pb]


class TestNodesStayInTheirPanel:
    """The invariant integrate's FuncDef.on(a, b) rests on: the GK15 nodes
    of a panel [pa, pb] lie in [pa, pb], and bisection keeps every sub-panel
    inside it, for any floats pa < pb."""

    @given(panel=_panels())
    @settings(max_examples=800, deadline=None)
    def test_one_panel(self, panel):
        a, b = panel
        nodes = _nodes_of(a, b)
        assert len(nodes) == 15
        assert _outside_their_panel(nodes) == []

    @given(panel=_panels(), kink=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_every_panel_of_a_bisection(self, panel, kink):
        a, b = panel
        nodes = _nodes_of(a, b, kink=(1.0 - kink) * a + kink * b)
        assert _outside_their_panel(nodes) == []
        assert all(a <= pa < pb <= b for pa, pb, _ in nodes)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_panels_a_few_ulps_wide_at_every_power_of_two(self, sign):
        # one to five ulps up from +-2**e and from the float above it, for
        # every e from the smallest subnormal to the largest binade
        seen = []

        def record(u):
            seen.append(u)
            return 0.0

        for e in range(-1074, 1024):
            for start in (sign * 2.0 ** e, math.nextafter(sign * 2.0 ** e, math.inf)):
                end = start
                for _ in range(5):
                    end = math.nextafter(end, math.inf)
                    if end > _MAX:
                        break
                    seen.clear()
                    quad._gk15(record, start, end)
                    assert len(seen) == 15 and all(start <= u <= end for u in seen), (start, end)

    @pytest.mark.parametrize("a, b", _ONCE_ESCAPED)
    def test_the_once_escaped_ends_hold_every_node(self, a, b):
        # a node placed from the centre rounded past a here: just above a
        # power of two, and where the products were subnormal
        assert _outside_their_panel(_nodes_of(a, b)) == []
        assert _outside_their_panel(_nodes_of(a, b, kink=b)) == []

    def test_a_huge_panel_integrates_1_over_u(self):
        # ends past 2**1022, where 0.5*(a + b) would overflow: no node does
        for f in (lambda u: 1.0 / u, func_from_expr("1/x", "x", (1e308, 1.7e308))):
            r = integrate(f, 1e308, 1.7e308)
            assert not r.indeterminate and r.evaluations == 15
            assert abs(r.value - math.log(1.7)) <= math.ulp(math.log(1.7))

    def test_an_integral_beyond_the_float_range_overflows_at_once(self):
        seen = []
        with pytest.raises(IntegrandError, match="overflows the float range"):
            integrate(lambda u: seen.append(u) or 1.0, -1.7e308, 1.7e308)
        assert 0 < len(seen) <= 45 and all(math.isfinite(u) for u in seen)


class TestPlainCallablesStayInTheirInterval:
    """integrate evaluates a plain callable only in [a, b], at every end, so
    it integrates as its FuncDef does."""

    @pytest.mark.parametrize("a, b", _ONCE_ESCAPED)
    def test_every_argument_lies_in_the_interval(self, a, b):
        seen = []
        integrate(lambda u: seen.append(u) or 0.0, a, b, tol=1e-300, budget=15)
        assert len(seen) == 15 and all(a <= u <= b for u in seen)

    def test_a_square_root_at_a_power_of_two(self):
        # no node lies below 1, so sqrt(u - 1) is defined at each; the nodes
        # round onto a few floats, so the value, 1.48e-24 with an estimate
        # of 1.72e-25, misses the exact 2.21e-24 by more than its estimate,
        # though far inside the tolerance
        r = integrate(lambda u: math.sqrt(u - 1.0), 1.0, 1.0 + 2.0 ** -52)
        assert not r.indeterminate
        assert abs(r.value - 2.0 / 3.0 * 2.0 ** -78) <= quad.DEFAULT_TOL

    @pytest.mark.parametrize("a, b, expr", [
        (1.0, 1.0 + 2.0 ** -50, "sqrt(x - 1)"),
        (-1.0 - 2.0 ** -50, -1.0, "sqrt(-1 - x)"),
    ])
    def test_a_plain_callable_integrates_as_its_funcdef(self, a, b, expr):
        f = func_from_expr(expr, "x", (a, b))
        assert integrate(f.source.fn, a, b) == integrate(f, a, b)


# --------------------------------------------------------------------------
# The reflected weight, and what the tanh-sinh levels report at their limits
# --------------------------------------------------------------------------

# (weight, its mirror h(1 - t)): each one's reflected tree is the other's tree
_MIRRORS = [
    ("t^(-0.4)", "(1-t)^(-0.4)"),
    ("exp(t)*sqrt(t)", "exp(1-t)*sqrt(1-t)"),
    ("t*(1.0-t)^2", "(1-t)*t^2"),
    ("1/(t+0.5)", "1/(1-t+0.5)"),
]


def _kink_mx(w):
    """int |t - w| |1 - t - w| over [0, 1], exactly, piece by piece: the
    product is -t^2 + t - w(1-w) up to its sign on each piece."""
    ends = sorted({0.0, min(max(w, 0.0), 1.0), min(max(1.0 - w, 0.0), 1.0), 1.0})
    total = 0.0
    for a, b in zip(ends, ends[1:]):
        mid = 0.5 * (a + b)
        sign = math.copysign(1.0, (mid - w) * (1.0 - mid - w))
        total += sign * poly_integral_oracle([-w * (1.0 - w), 1.0, -1.0], a, b)
    return total


class TestReflectedWeights:
    @pytest.mark.parametrize("text, mirror", _MIRRORS)
    def test_a_dsl_weight_and_its_mirror_have_bit_identical_moments(self, text, mirror):
        h, h_mirror = func_from_expr(text, "t"), func_from_expr(mirror, "t")
        for moment in quad.MOMENTS:
            expected = _outcome(lambda: quad._compute_moment(h, moment, quad.DEFAULT_TOL, 20_000))
            assert _outcome(lambda: quad._compute_moment(h_mirror, moment, quad.DEFAULT_TOL,
                                                         20_000)) == expected

    @pytest.mark.parametrize("text, mirror", _MIRRORS)
    def test_the_reflected_tree_is_the_mirror_tree(self, text, mirror):
        assert funcdsl._reflect(funcdsl.parse(text, "t")) == funcdsl.parse(mirror, "t")

    @pytest.mark.parametrize("h", [
        catalog("power", (-0.3,)), catalog("poly", (1.0, -2.0, 0.5)),
        FuncDef(DerivedSource(lambda u: math.exp(-u) * u, "derived"), (0.0, 1.0)),
    ], ids=["catalog power", "catalog poly", "derived"])
    def test_any_other_source_is_read_at_1_minus_u(self, h):
        reflected = h.reflected_on(0.0, 0.5)
        assert reflected is h.source.mirror  # built once per source
        for u in (2.0 ** -1022, 1e-17, 0.1, 0.3, 0.5):
            assert _bits(reflected.fn(u)) == _bits(h.source.fn(1.0 - u))

    def test_a_domain_that_misses_1_is_checked_at_1_minus_u(self):
        h = func_from_expr("(1-t)^(-0.4)", "t", (0.0, 0.9))
        with pytest.raises(EvalDomainError, match="outside domain") as err:
            h.reflected_on(0.0, 0.5).fn(2.0 ** -1022)
        assert err.value.point == 1.0


def _pointwise(g, us):
    """The Source g evaluated node by node at ``us``: the reference that the
    batch forms are tested against."""
    return [g.fn(u) for u in us]


class TestTanhSinhLimits:
    @pytest.mark.parametrize("budget", [0, 1, 11, 23, 40])
    @pytest.mark.parametrize("h", [
        catalog("power", (0.5,)), func_from_expr("1/t", "t"), lambda t: t,
    ], ids=["catalog", "dsl 1/t", "callable"])
    def test_a_budget_below_the_first_levels_is_indeterminate(self, budget, h):
        # level 0 and the tail take 12 evaluations, levels 0-2 take 40; m1
        # and m2 give each half budget // 2
        for moment in quad.MOMENTS:
            r = quad.h_moment(h, moment, budget=budget)
            assert r.indeterminate and r.evaluations <= budget
            if budget < (12 if moment == "mx" else 24):
                assert math.isnan(r.value) and r.abs_err == math.inf and r.evaluations == 0

    @pytest.mark.parametrize("w", [0.25091506814631304, 0.3] + random.Random(20).sample(
        [k / 1000.0 for k in range(1, 1000)], 12))
    def test_a_kinked_weight_never_claims_less_error_than_it_has(self, w):
        # the ROADMAP's example, 0.3 and twelve kinks drawn once: |t - w| is
        # indeterminate or honest, although two levels may agree by chance
        # at a kink, so the level before is counted in the error
        h = func_from_expr(f"abs(t - {w!r})", "t")
        exact = {"m1": (w * w + (1.0 - w) ** 2) / 2.0, "mx": _kink_mx(w)}
        for moment, value in exact.items():
            assert _claim_outcome(lambda: quad.h_moment(h, moment, budget=100_000), value) in (
                "ok", "indeterminate")

    @pytest.mark.parametrize("h", [catalog("recip_power", (1,)), func_from_expr("1/t", "t")],
                             ids=["catalog", "dsl"])
    def test_a_weight_that_diverges_at_0_is_indeterminate(self, h):
        for moment in quad.MOMENTS:
            r = quad._compute_moment(h, moment, quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)
            assert r.indeterminate and r.abs_err == math.inf

    @pytest.mark.parametrize("g", [
        lambda u: 1.0 / u, lambda u: (1.0 / u) * (1.0 / u), lambda u: u ** -0.97,
        lambda u: u ** -0.965,
    ], ids=["1/t: p = 0", "m2 of 1/t: inf at the cut", "m1 of t^-0.97", "m2 of t^-0.4825"])
    def test_a_tail_above_the_tolerance_ends_the_half_at_once(self, g):
        # divergent, or convergent so slowly that the part below 2**-1022
        # exceeds tol: only g(U) and g(2U) are evaluated
        r = quad._half(funcdsl.Source(g, "g"), 0.5e-10, quad.DEFAULT_BUDGET)
        assert math.isnan(r.value)
        assert (r.abs_err, r.evaluations, r.indeterminate) == (math.inf, 2, True)


def _moment_outcome(h, moment, tol=quad.DEFAULT_TOL, budget=quad.DEFAULT_BUDGET):
    """The bits of a moment's value and error, its evaluations and flag, or
    the error's type and message."""
    try:
        r = quad._compute_moment(h, moment, tol, budget)
    except GenConvexError as exc:
        return type(exc), str(exc)
    return _bits(r.value), _bits(r.abs_err), r.evaluations, r.indeterminate


class TestBatchLevelsMatchPointwise:
    """Each level of a FuncDef weight's moments is evaluated by its batch
    form; evaluated node by node instead, every moment has the same bits."""

    WEIGHTS = [
        *(catalog("power", (s,)) for s in (-0.97, -0.6, -0.45, -0.3, 0.5, 1.0, 1.5, 2.0, 3.0)),
        *(func_from_expr(f"t^({s!r})", "t") for s in (-0.6, -0.4, 0.5, 2.5)),
        *(func_from_expr(f"(1-t)^({s!r})", "t") for s in (-0.45, 0.5)),
        func_from_expr("exp(t)*sqrt(t) - ln(1.5 - t)", "t"),
        func_from_expr("1/t", "t"),
        func_from_expr("1e200*t", "t"),
        catalog("poly", (1.0, -2.0, 3.0)),
        catalog("recip_power", (0.5,)),
        catalog("constant", (1.2e154,)),
        catalog("power", (2.0,), (0.0, 0.75)),  # read through its check
        func_from_expr("ln(t - 0.2)", "t", (0.2, 1.0)),
        combine(catalog("sqrt"), func_from_expr("t^2", "t"), 0.5, 2.0),
        compose_phi(func_from_expr("exp(x)", "x"), catalog("power", (0.5,))),
        FuncDef(DerivedSource(lambda u: math.exp(-u) * u, "derived"), (0.0, 1.0)),
    ]

    @pytest.mark.parametrize("h", WEIGHTS, ids=lambda h: h.label)
    @pytest.mark.parametrize("moment", quad.MOMENTS)
    def test_same_bits(self, h, moment, monkeypatch):
        # a budget that the weights whose roundoff floor exceeds the
        # tolerance (1e200 t, a constant 1.2e154) spend quickly
        got = _moment_outcome(h, moment, budget=50_000)
        monkeypatch.setattr(quad, "_values", _pointwise)
        assert got == _moment_outcome(h, moment, budget=50_000)

    def test_a_level_longer_than_a_column_goes_part_by_part(self):
        source = func_from_expr("ln(t - 0.3)", "t").source
        nodes = [0.31 + 1e-4 * k for k in range(2 * quad._COLUMN + 900)]
        assert list(map(_bits, quad._values(source, nodes))) == [_bits(source.fn(u)) for u in nodes]
        # the first node that raises raises, in whichever part it lies
        for bad in ([4500], [100, 4500], [3000, 2100]):
            points = list(nodes)
            for i in bad:
                points[i] = 0.2 - 1e-3 * i
            with pytest.raises(EvalDomainError) as err:
                list(quad._values(source, points))
            assert err.value.point == points[min(bad)]

    @given(s=st.floats(-0.98, 3.0), moment=st.sampled_from(quad.MOMENTS), dsl=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_bits_for_power_weights(self, s, moment, dsl):
        h = func_from_expr(f"t^({s!r})", "t") if dsl else catalog("power", (s,))
        got = _moment_outcome(h, moment)
        with mock.patch.object(quad, "_values", _pointwise):
            assert got == _moment_outcome(h, moment)


_ONE_NODE = quad._level(0)[0][5]


def _raises_at_one_node(t):
    if t == _ONE_NODE:
        raise ZeroDivisionError("at one node")
    return t


class TestOneMomentPath:
    """A plain-callable weight becomes the FuncDef of a Source on [0, 1],
    whose batch form maps it over the nodes: it takes the path of a FuncDef
    weight, and nothing on that path calls a Source itself."""

    @pytest.mark.parametrize("fn", [
        lambda t: t * t + 1.0, lambda t: math.sqrt(t) * math.exp(-t), lambda t: (1.0 - t) ** -0.45,
        lambda t: 1.0 / t, _raises_at_one_node,
    ], ids=["poly", "smooth", "singular at 1", "1/t", "raises at one node"])
    def test_a_plain_callable_has_the_moments_of_its_derived_funcdef(self, fn):
        h = FuncDef(DerivedSource(fn, "w"), (0.0, 1.0))
        for moment in quad.MOMENTS:
            expected = _outcome(lambda: quad._compute_moment(h, moment, quad.DEFAULT_TOL,
                                                             quad.DEFAULT_BUDGET))
            assert _outcome(lambda: quad.h_moment(fn, moment)) == expected

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("weight", [lambda t: t, catalog("power", (0.5,))], ids=["callable", "funcdef"])
    def test_a_tolerance_that_is_not_positive_raises_at_once(self, weight, tol):
        quad._memo_moment.cache_clear()
        evaluated = []
        h = weight if isinstance(weight, FuncDef) else (lambda t: evaluated.append(t) or weight(t))
        for run in (lambda: quad.h_moment(h, "m1", tol=tol), lambda: h_moments(h, tol=tol)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == f"tol must be positive, got {tol!r}"
        assert evaluated == [] and quad._memo_moment.cache_info().currsize == 0

    def test_infinities_of_both_signs_in_one_level_are_named(self):
        # finite at 2**-1022 and 2**-1021, so the cut tail passes, but +inf
        # and -inf at two nodes of level 0 make its fsum meet -inf + inf
        nodes = quad._level(0)[0]
        first, second = nodes[len(nodes) // 2], nodes[len(nodes) // 2 + 1]

        def weight(t):
            return math.inf if t == first else -math.inf if t == second else 1.0

        with pytest.raises(IntegrandError) as err:
            quad.h_moment(weight, "m1")
        assert str(err.value) == f"integrand returned inf at u={first!r}"

    def test_the_weights_that_fail_fail_as_expected(self):
        assert math.isnan(quad.h_moment(lambda t: 1.0 / t, "m1").value)
        with pytest.raises(ZeroDivisionError, match="at one node"):
            quad.h_moment(_raises_at_one_node, "mx")

    def test_moments_do_not_call_a_source(self, monkeypatch):
        weights = [
            func_from_expr("t^0.5 + (1-t)^2", "t"), catalog("power", (-0.3,)),
            catalog("power", (2.0,), (0.0, 0.75)),  # read through its check
            combine(catalog("sqrt"), func_from_expr("t^2", "t"), 0.5, 2.0),
            FuncDef(DerivedSource(lambda u: math.exp(-u) * u, "derived"), (0.0, 1.0)),
        ]

        def moments():
            quad._memo_moment.cache_clear()
            return [_outcome(lambda: quad.h_moment(h, moment))
                    for h in weights for moment in quad.MOMENTS]

        expected = moments()

        def called(self, u):
            raise AssertionError(f"Source.__call__({u!r})")

        monkeypatch.setattr(funcdsl.Source, "__call__", called)
        assert moments() == expected


class TestLevelCache:
    def test_deep_levels_are_not_kept(self):
        # |t - 0.3| takes mx to level 16 (620 415 evaluations); only levels
        # up to _KEPT_LEVELS stay cached, and the moments keep their bits
        h = func_from_expr("abs(t-0.3)", "t")
        assert [_moment_outcome(h, moment) for moment in quad.MOMENTS] == [
            (_bits(float.fromhex("0x1.28f5c28f8d7aap-2")), _bits(float.fromhex("0x1.2861f00000005p-33")),
             310362, True),
            (_bits(float.fromhex("0x1.f92c5f92c5f92p-4")), _bits(float.fromhex("0x1.1fd3f2aaaaaabp-38")),
             306, False),
            (_bits(float.fromhex("0x1.08dfea2749cefp-4")), _bits(float.fromhex("0x1.da68d77777759p-37")),
             620415, False),
        ]
        assert quad._kept_level.cache_info().currsize <= quad._KEPT_LEVELS + 1

    @pytest.mark.parametrize("k", [0, 1, 8, 9, 12])
    def test_every_level_is_built_alike(self, k):
        assert quad._level(k) == quad._build_level(k)
