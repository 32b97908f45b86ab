import heapq
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from genconvex import quad
from genconvex.cli import normalize_scenario, run_scenario
from genconvex.errors import CatalogError, EvalDomainError, IntegrandError, OrientationError
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

    def test_non_finite_integrand_reports_abscissa(self):
        def f(u):
            return math.nan if u > 0.5 else 1.0

        with pytest.raises(IntegrandError) as err:
            integrate(f, 0.0, 1.0)
        assert 0.5 < err.value.point < 1.0

    def test_budget_exhaustion_is_flagged(self):
        r = integrate(lambda t: 1.0 / t, 0.0, 1.0, 1e-10, budget=2000)
        assert r.indeterminate
        assert r.abs_err > 1e-10
        assert r.evaluations <= 2000

    def test_evaluation_count(self):
        r = integrate(lambda u: u, 0.0, 1.0)
        assert r.evaluations >= 15
        assert r.evaluations % 15 == 0


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
    def integrate_calls(self, monkeypatch):
        """Records each integral the moment helpers start, from a cold memo.

        ``theorems`` binds its own ``integrate``, so only moment integrals
        pass through ``quad.integrate``.
        """
        calls = []

        def counting(f, a, b, tol=quad.DEFAULT_TOL, budget=quad.DEFAULT_BUDGET):
            calls.append((a, b))
            return integrate(f, a, b, tol, budget)

        quad._memo_moment.cache_clear()
        monkeypatch.setattr(quad, "integrate", counting)
        yield calls
        quad._memo_moment.cache_clear()

    @pytest.mark.parametrize("theorem,moments_used", [("T2_2dot", 1), ("T2_2", 1), ("T2_1", 2)])
    def test_sweep_computes_each_moment_once_per_weight(self, integrate_calls, theorem, moments_used):
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
        assert len(integrate_calls) == 3 * moments_used

    def test_reduction_computes_m2_and_mx_once(self, integrate_calls):
        h = catalog("power", (2,), (0.0, 1.0))
        probes = [dict(f=catalog("identity", (), (0.0, 1.0)), h=h, x=0.0, y=1.0)]
        assert check_reduction("T2_1_vs_T1_13", probes).passed
        assert len(integrate_calls) == 2
        assert quad._memo_moment.cache_info().hits == 2

    def test_memoised_moment_equals_a_fresh_one(self, integrate_calls):
        h = catalog("sqrt", (), (0.0, 1.0))
        for moment in quad.MOMENTS:
            cold = quad.h_moment(h, moment)
            assert quad.h_moment(h, moment) is cold
            assert quad._compute_moment(h, moment, quad.DEFAULT_TOL, quad.DEFAULT_BUDGET) == cold
        assert h_moments(h) == tuple(quad.h_moment(h, k) for k in quad.MOMENTS)

    def test_key_includes_tol_and_budget(self, integrate_calls):
        h = catalog("sqrt", (), (0.0, 1.0))
        quad.h_moment(h, "m1", 1e-10)
        quad.h_moment(h, "m1", 1e-8)
        quad.h_moment(h, "m1", 1e-8, budget=1000)
        assert len(integrate_calls) == 3

    def test_plain_callable_is_recomputed(self, integrate_calls):
        weight = lambda t: t  # noqa: E731
        first = quad.h_moment(weight, "m1")
        second = quad.h_moment(weight, "m1")
        assert first == second
        assert len(integrate_calls) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_unhashable_source_is_recomputed(self, integrate_calls):
        class Unhashable:
            __hash__ = None

            def __call__(self, t):
                return t

        h = FuncDef(DerivedSource(Unhashable(), "unhashable"), (0.0, 1.0))
        assert quad.h_moment(h, "m2").value == pytest.approx(1 / 3)
        quad.h_moment(h, "m2")
        assert len(integrate_calls) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_exceptions_are_not_memoised(self, integrate_calls):
        h = func_from_expr("ln(t - 0.5)", "t", (0.0, 1.0))
        for _ in range(2):
            with pytest.raises(EvalDomainError):
                quad.h_moment(h, "m1")
        assert len(integrate_calls) == 2
        assert quad._memo_moment.cache_info().currsize == 0

    def test_unknown_moment_is_rejected(self):
        with pytest.raises(ValueError):
            quad.h_moment(catalog("identity", (), (0.0, 1.0)), "m3")

    def test_memo_size_is_bounded(self, integrate_calls):
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
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = [0.0] * 15
    for i, x in enumerate(quad._XGK[:7]):
        lo_val = _reference_eval_checked(f, center - half * x)
        hi_val = _reference_eval_checked(f, center + half * x)
        fv[i] = lo_val
        fv[14 - i] = hi_val
    fv[7] = _reference_eval_checked(f, center)

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
        mid = 0.5 * (pa + pb)
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


def reference_moment_integrand(h, moment):
    if moment == "m1":
        return lambda t: h(t)
    if moment == "m2":
        def h_squared(t):
            v = h(t)
            return v * v
        return h_squared
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
        for h in (catalog("power", (s,), domain), func_from_expr(f"t^({s!r})", "t", domain)):
            expected = _outcome(lambda: reference_integrate(
                reference_moment_integrand(h, moment), 0.0, 1.0, quad.DEFAULT_TOL, budget))
            assert _outcome(lambda: quad._compute_moment(h, moment, quad.DEFAULT_TOL, budget)) \
                == expected

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
        # panel one ulp wide long before the budget, and stops there
        def jump(u):
            return 0.0 if u < 1.0 + 2.0**-51 else 1.0

        r = _same_as_reference(jump, 1.0, 1.0 + 2.0**-49, tol=1e-300)
        assert r[2:] == (225, True)

    def test_bisection_at_a_jump_runs_out_of_budget(self):
        # the panel holding the jump never gets within the tolerance, so the
        # bisection spends the whole budget before any panel is one ulp wide
        step = FuncDef(DerivedSource(_step, "step"), (0.0, 1.0))
        r = _same_as_reference(step, 0.0, 1.0)
        assert r[2:] == (999_975, True)
        _same_as_reference(_step, 0.0, 1.0)


# Evaluations the GK15 bisection spends on t^s moments at the default
# tolerance and budget; None is an error.
_MOMENT_EVALUATIONS = {
    0.5: {"m1": 465, "m2": 15, "mx": 885},
    -0.3: {"m1": 1185, "m2": 2325, "mx": 2415},
    -0.45: {"m1": 1605, "m2": 11535, "mx": None},
}


class TestMomentsMatchReference:
    @pytest.mark.parametrize("s", sorted(_MOMENT_EVALUATIONS))
    @pytest.mark.parametrize("moment", quad.MOMENTS)
    @pytest.mark.parametrize("form", ["catalog", "dsl"])
    def test_power_weight(self, s, moment, form):
        h = catalog("power", (s,)) if form == "catalog" else func_from_expr(f"t^({s!r})", "t")
        expected = _outcome(lambda: reference_integrate(reference_moment_integrand(h, moment), 0.0, 1.0))
        assert _outcome(lambda: quad._compute_moment(h, moment, quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)) \
            == expected
        count = _MOMENT_EVALUATIONS[s][moment]
        if count is None:
            assert expected[0] is EvalDomainError
            assert expected[1] == "zero raised to a negative power"
        else:
            assert expected[2] == count

    def test_f2_cross_moment_error_point(self):
        h = catalog("power", (-0.45,))
        with pytest.raises(EvalDomainError, match="zero raised to a negative power") as err:
            quad._compute_moment(h, "mx", quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)
        assert err.value.point == 0.0
