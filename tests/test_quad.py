import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genconvex import quad
from genconvex.cli import normalize_scenario, run_scenario
from genconvex.errors import EvalDomainError, IntegrandError, OrientationError
from genconvex.funcdsl import DerivedSource, FuncDef, catalog, func_from_expr
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
