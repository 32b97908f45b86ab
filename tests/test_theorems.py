import dataclasses
import gc
import math
import pickle
import time
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from genconvex.errors import CatalogError, EvalDomainError, GenConvexError, OrientationError
from genconvex import funcdsl, theorems
from genconvex.funcdsl import FuncDef, Source, catalog, func_from_expr, identity_on
from genconvex.classes import certify_sampled, class_spec
from genconvex.quad import DEFAULT_BUDGET, DEFAULT_TOL
from genconvex.theorems import (
    BACKGROUND_IDS,
    DEFAULT_REPORT_TOL,
    MAIN_IDS,
    REDUCTION_PAIRS,
    Verdict,
    check_reduction,
    verify,
    verify_background,
    verify_t2_1,
    verify_t2_2,
    verify_t2_2dot,
    verify_t2_3,
)


def unit(name, *params):
    return catalog(name, params, (0.0, 1.0))


SQUARE = unit("power", 2)
IDENT = unit("identity")
ROOT = unit("sqrt")
ZERO = unit("constant", 0)
H_LINEAR = unit("identity")
H_ONE = unit("constant", 1)
H_SQUARE = unit("power", 2)


def linear_mean_oracle(lo, hi):
    """Exact average of f(u) = u over [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    return float((lo + hi) / 2)


class TestT2_1:
    def test_tight_at_unit_modulus(self):
        v = verify_t2_1(IDENT, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(1 / 6, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 6, abs=1e-9)
        assert abs(v.margin) <= 1e-9
        assert v.status == "pass"

    def test_tight_at_half_modulus(self):
        v = verify_t2_1(IDENT, H_LINEAR, 0.5, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(1 / 24, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 24, abs=1e-9)
        assert v.status == "pass"

    def test_zero_function(self):
        v = verify_t2_1(ZERO, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == 0.0
        assert v.rhs == 0.0
        assert v.status == "pass"

    def test_orientation(self):
        with pytest.raises(OrientationError):
            verify_t2_1(IDENT, H_LINEAR, 1.0, None, 1.0, 0.0)
        with pytest.raises(OrientationError):
            verify_t2_1(IDENT, H_LINEAR, 0.5, None, 0.6, 1.0)  # phi(x) > m*phi(y)

    def test_reflection_symmetry_of_lhs(self):
        # substituting u -> (lo + hi) - u must not move the integral
        from genconvex.quad import integrate

        v = verify_t2_1(SQUARE, H_LINEAR, 1.0, None, 0.0, 1.0)
        reflected = integrate(lambda u: SQUARE(1.0 - u) * SQUARE(u), 0.0, 1.0)
        assert abs(v.lhs - reflected.value) <= 2.0 * v.quad_err + 1e-13

    def test_squared_homogeneity(self):
        lam = 3.5
        scaled = catalog("poly", (0.0, 0.0, lam), (0.0, 1.0))
        v1 = verify_t2_1(SQUARE, H_LINEAR, 1.0, None, 0.0, 1.0)
        v2 = verify_t2_1(scaled, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v2.lhs == pytest.approx(lam * lam * v1.lhs, rel=1e-12)
        assert v2.rhs == pytest.approx(lam * lam * v1.rhs, rel=1e-12)
        assert v2.status == v1.status


class TestT2_2dot:
    def test_square(self):
        v = verify_t2_2dot(SQUARE, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(1 / 3, abs=1e-9)
        assert v.rhs == pytest.approx(0.5, abs=1e-12)
        assert v.margin == pytest.approx(1 / 6, abs=1e-9)
        assert v.status == "pass"

    def test_linear_tightness(self):
        v = verify_t2_2dot(IDENT, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(linear_mean_oracle(0, 1), abs=1e-10)
        assert abs(v.margin) <= v.quad_err + 1e-9

    def test_constant_tightness(self):
        const = unit("constant", 0.7)
        v = verify_t2_2dot(const, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(0.7, abs=1e-10)
        assert v.rhs == pytest.approx(0.7, abs=1e-10)

    def test_non_member_fails(self):
        v = verify_t2_2dot(ROOT, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(2 / 3, abs=1e-8)
        assert v.rhs == pytest.approx(0.5, abs=1e-12)
        assert v.status == "fail"

    def test_scaling_homogeneity(self):
        lam = 2.25
        scaled = catalog("poly", (0.0, 0.0, lam), (0.0, 1.0))
        v1 = verify_t2_2dot(SQUARE, H_LINEAR, 1.0, None, 0.0, 1.0)
        v2 = verify_t2_2dot(scaled, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v2.lhs == pytest.approx(lam * v1.lhs, rel=1e-13)
        assert v2.rhs == pytest.approx(lam * v1.rhs, rel=1e-13)
        assert v2.status == v1.status

    def test_non_integrable_weight_is_indeterminate(self):
        h_bad = catalog("recip_power", (1,), (0.0, 1.0))
        v = verify_t2_2dot(SQUARE, h_bad, 1.0, None, 0.0, 1.0, budget=50_000)
        assert v.status == "indeterminate"
        assert v.notes

    @pytest.mark.parametrize("h_bad", [catalog("recip_power", (1,)), func_from_expr("1/t", "t")],
                             ids=["catalog", "dsl"])
    @pytest.mark.parametrize("theorem", ["T2_1", "T2_2dot", "T2_2", "T2_3", "T1_13"])
    def test_the_weight_1_over_t_gets_the_budget_note_at_once(self, h_bad, theorem):
        # every moment of 1/t has an infinite cut tail: m1 and mx diverge
        # like 1/t, m2's integrand overflows at the cut
        start = time.perf_counter()
        v = verify(theorem, SQUARE, g=IDENT, h=h_bad, m=1.0, x=0.0, y=1.0)
        assert time.perf_counter() - start < 0.05
        assert v.status == "indeterminate"
        assert v.notes[-1] == ("quadrature budget exhausted before reaching tolerance; "
                               "weight may be non-integrable")


def test_the_default_phi_is_built_once_per_domain():
    funcdsl._identities.cache_clear()
    wide = catalog("power", (2,), (0.0, 2.0))
    for f in (SQUARE, SQUARE, wide, SQUARE, wide):
        verdict = verify("T2_2dot", f, h=H_LINEAR, m=0.5, x=0.1, y=0.9)
        assert verdict == verify("T2_2dot", f, h=H_LINEAR, m=0.5, phi=identity_on(f.domain),
                                 x=0.1, y=0.9)
    assert funcdsl._identities.cache_info().misses == 2


def test_the_default_phi_keeps_the_sign_of_a_zero_end():
    # 0.0 == -0.0, so an identity memoised for [0, 1] must not serve [-0, 1]
    funcdsl._identities.cache_clear()
    verify("T2_2dot", SQUARE, h=H_LINEAR, x=0.5)
    f = catalog("power", (2,), (-0.0, 1.0))
    with pytest.raises(EvalDomainError, match=r"outside domain \[-0\.0, 1\.0\] of identity"):
        verify("T2_2dot", f, h=H_LINEAR, x=-0.5)


class TestT2_2:
    def test_half_modulus_tightness(self):
        v = verify_t2_2(IDENT, H_LINEAR, 0.5, None, 0.4, 1.0)
        assert v.lhs == pytest.approx(0.7, abs=1e-9)
        assert v.rhs == pytest.approx(0.7, abs=1e-12)
        assert abs(v.margin) <= 1e-9
        assert v.status == "pass"

    def test_unit_modulus_square(self):
        v = verify_t2_2(SQUARE, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(1 / 3, abs=1e-9)
        assert v.rhs == pytest.approx(0.5, abs=1e-12)

    def test_zero_function(self):
        v = verify_t2_2(ZERO, H_LINEAR, 0.5, None, 0.2, 1.0)
        assert v.lhs == 0.0 and v.rhs == 0.0
        assert v.status == "pass"

    def test_linear_is_tight_for_every_modulus(self):
        for m in (0.25, 0.5, 0.75, 1.0):
            v = verify_t2_2(IDENT, H_LINEAR, m, None, 0.0, 1.0)
            assert abs(v.margin) <= v.quad_err + 1e-9

    def test_chain_violations(self):
        with pytest.raises(OrientationError):
            verify_t2_2(IDENT, H_LINEAR, 0.5, None, 0.6, 1.0)  # x >= m*y
        shifted = catalog("affine", (-0.5, 1.0), (0.0, 1.0))  # phi(u) = u - 1/2 < 0
        with pytest.raises(OrientationError):
            verify_t2_2(IDENT, H_LINEAR, 0.5, shifted, 0.2, 1.0)


class TestT2_3:
    def test_identity_pair_is_tight(self):
        v = verify_t2_3(IDENT, IDENT, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(1 / 3, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 3, abs=1e-12)
        assert abs(v.margin) <= v.quad_err + 1e-9
        assert v.inputs["M"] == 1.0
        assert v.inputs["N"] == 0.0

    def test_square_times_identity(self):
        v = verify_t2_3(SQUARE, IDENT, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == pytest.approx(0.25, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 3, abs=1e-12)
        assert v.status == "pass"

    def test_zero_pair(self):
        v = verify_t2_3(ZERO, ZERO, H_LINEAR, 1.0, None, 0.0, 1.0)
        assert v.lhs == 0.0 and v.rhs == 0.0
        assert v.status == "pass"

    def test_orientation(self):
        with pytest.raises(OrientationError):
            verify_t2_3(IDENT, IDENT, H_LINEAR, 1.0, None, 1.0, 0.5)


class TestBackground:
    def test_classic_two_sided(self):
        v = verify_background("HC", SQUARE, a=0.0, b=1.0)
        assert v.lhs == 0.25
        assert v.mean == pytest.approx(1 / 3, abs=1e-10)
        assert v.rhs == 0.5
        assert v.margin_lower == pytest.approx(1 / 12, abs=1e-10)
        assert v.margin_upper == pytest.approx(1 / 6, abs=1e-10)
        assert v.margin == min(v.margin_lower, v.margin_upper)
        assert v.quad_err <= 1e-10
        assert v.status == "pass"

    def test_weighted_two_sided_reduces_to_classic(self):
        v = verify_background("T1_9", SQUARE, h=H_LINEAR, a=0.0, b=1.0)
        assert v.lhs == pytest.approx(0.25, abs=1e-12)  # f(1/2) / (2 h(1/2))
        assert v.rhs == pytest.approx(0.5, abs=1e-10)
        assert v.mean == pytest.approx(1 / 3, abs=1e-10)
        assert v.status == "pass"

    def test_vanishing_half_weight_is_an_error(self):
        h = func_from_expr("(2*t-1)^2", "t", (0.0, 1.0))
        with pytest.raises(ValueError):
            verify_background("T1_9", SQUARE, h=h, a=0.0, b=1.0)

    def test_two_average_bound(self):
        # f = id, h = t, m = 1/2 on [0, 1]:
        # lhs = (2/3) [ 2*int_0^.5 u du + int_0^1 u du ] = 0.5, rhs = 0.5
        v = verify_background("T1_11", IDENT, h=H_LINEAR, m=0.5, a=0.0, b=1.0)
        assert v.lhs == pytest.approx(0.5, abs=1e-9)
        assert v.rhs == pytest.approx(0.5, abs=1e-12)
        assert v.status == "pass"

    def test_two_average_preconditions(self):
        with pytest.raises(OrientationError):
            verify_background("T1_11", IDENT, h=H_LINEAR, m=0.5, a=0.6, b=1.0)
        with pytest.raises(OrientationError):
            verify_background("T1_11", IDENT, h=H_LINEAR, m=0.5, a=-0.1, b=1.0)

    def test_deformed_product_bound(self):
        v = verify_background("T1_13", IDENT, h=H_LINEAR, a=0.0, b=1.0)
        assert v.lhs == pytest.approx(1 / 6, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 6, abs=1e-9)
        assert v.status == "pass"
        assert any("bound to the interval ends" in note for note in v.notes)

    def test_deformed_product_pair_bound(self):
        v = verify_background("T1_14", IDENT, g=IDENT, h=H_LINEAR, a=0.0, b=1.0)
        assert v.lhs == pytest.approx(1 / 3, abs=1e-9)
        assert v.rhs == pytest.approx(1 / 3, abs=1e-12)
        assert v.inputs["M"] == 1.0
        assert v.inputs["N"] == 0.0

    def test_missing_functions_are_rejected(self):
        with pytest.raises(ValueError):
            verify_background("T1_9", SQUARE, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            verify_background("T1_14", SQUARE, h=H_LINEAR, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            verify_background("T9_99", SQUARE, a=0.0, b=1.0)

    def test_orientation(self):
        with pytest.raises(OrientationError):
            verify_background("HC", SQUARE, a=1.0, b=1.0)


class TestAffineTightness:
    """With h(t) = t and unit modulus, every verifier is tight on
    nonnegative affine functions."""

    AFFINE = catalog("affine", (0.3, 0.7), (0.0, 1.0))

    def test_all_four_main_bounds(self):
        f = self.AFFINE
        g = catalog("affine", (0.1, 0.9), (0.0, 1.0))
        checks = [
            verify_t2_1(f, H_LINEAR, 1.0, None, 0.0, 1.0),
            verify_t2_2dot(f, H_LINEAR, 1.0, None, 0.0, 1.0),
            verify_t2_2(f, H_LINEAR, 1.0, None, 0.0, 1.0),
            verify_t2_3(f, g, H_LINEAR, 1.0, None, 0.0, 1.0),
        ]
        for v in checks:
            assert abs(v.margin) <= v.quad_err + 1e-9, v.theorem_id
            assert v.status == "pass"


class TestCertifiedImpliesPass:
    """Sampled class membership must never contradict a verifier."""

    @pytest.mark.parametrize(
        "f,h,m",
        [
            (SQUARE, H_LINEAR, 1.0),
            (SQUARE, H_ONE, 1.0),
            (SQUARE, H_LINEAR, 0.5),
            (IDENT, H_LINEAR, 0.7),
            (catalog("poly", (0.0, 1.0, 1.0), (0.0, 2.0)), H_LINEAR, 1.0),
        ],
    )
    def test_members_pass_every_applicable_bound(self, f, h, m):
        bound = f.domain[1]
        spec = class_spec(
            "phi_hm_convex", h=h, m=m,
            phi=catalog("identity", (), f.domain), bound=bound,
        )
        report = certify_sampled(f, spec, n=3_000, seed=0)
        assert report.certified
        x, y = 0.0, bound
        verdicts = [
            verify_t2_1(f, h, m, None, x, y),
            verify_t2_2dot(f, h, m, None, x, y),
            verify_t2_2(f, h, m, None, x, y),
            verify_t2_3(f, f, h, m, None, x, y),
        ]
        for v in verdicts:
            assert v.status == "pass", (v.theorem_id, v.margin)


class TestReductions:
    def _probes(self, pair):
        base = [
            dict(f=IDENT, h=H_LINEAR, x=0.0, y=1.0),
            dict(f=SQUARE, h=H_LINEAR, x=0.1, y=0.9),
            dict(f=SQUARE, h=H_SQUARE, x=0.0, y=1.0),
            dict(f=ROOT, h=H_ONE, x=0.25, y=1.0),
        ]
        if pair == "T2_3_vs_T1_14":
            return [dict(p, g=IDENT) for p in base]
        if pair == "T2_2_vs_T1_11":
            return [dict(p, m=m) for p, m in zip(base, (0.5, 0.8, 1.0, 0.6))]
        return base

    @pytest.mark.parametrize("pair", REDUCTION_PAIRS)
    def test_pairs_agree(self, pair):
        report = check_reduction(pair, self._probes(pair))
        assert report.passed
        assert report.max_dev_lhs <= report.max_allowance
        assert report.max_dev_rhs <= report.max_allowance

    def test_empty_probe_set_rejected(self):
        with pytest.raises(ValueError):
            check_reduction("T2_1_vs_T1_13", [])

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            check_reduction("T2_1_vs_T2_2", self._probes("T2_1_vs_T1_13"))

    def test_missing_g_rejected(self):
        with pytest.raises(ValueError):
            check_reduction("T2_3_vs_T1_14", [dict(f=IDENT, h=H_LINEAR, x=0.0, y=1.0)])

    def test_indeterminate_probe_fails_the_report(self):
        h_bad = catalog("recip_power", (1,), (0.0, 1.0))
        report = check_reduction(
            "T2_2dot_vs_T1_9", [dict(f=SQUARE, h=h_bad, x=0.0, y=1.0)]
        )
        assert report.indeterminate
        assert not report.passed

    def test_deformed_probe_agrees(self):
        phi = catalog("affine", (0.0, 0.5), (0.0, 1.0))
        probes = [dict(f=SQUARE, h=H_LINEAR, phi=phi, x=0.2, y=1.0)]
        report = check_reduction("T2_1_vs_T1_13", probes)
        assert report.passed


class TestWeightWithDivergentSquare:
    """h = t^s with -1 < s <= -1/2: m1 = 1/(1+s) is finite, m2 diverges."""

    @pytest.mark.parametrize("s", [-0.9, -0.6])
    def test_first_moment_bounds_give_a_verdict(self, s):
        h = unit("power", s)
        m1 = 1.0 / (1.0 + s)
        # (verdict, f(px) + f(py)) for f = x^2
        cases = [
            (verify_t2_2dot(SQUARE, h, 1.0, None, 0.0, 1.0), 1.0),
            (verify_t2_2(SQUARE, h, 0.5, None, 0.2, 1.0), 0.04 + 1.0),
            (verify_background("T1_9", SQUARE, h=h, a=0.0, b=1.0), 1.0),
            (verify_background("T1_11", SQUARE, h=h, m=0.5, a=0.2, b=1.0), 0.04 + 1.0),
        ]
        for v, coeff in cases:
            assert v.status == "pass", (v.theorem_id, v.notes)
            assert abs(v.rhs - coeff * m1) <= v.quad_err, v.theorem_id

    def test_reduction_passes(self):
        probes = [dict(f=SQUARE, h=unit("power", -0.6), x=0.0, y=1.0)]
        assert check_reduction("T2_2dot_vs_T1_9", probes).passed

    def test_second_moment_bound_stays_indeterminate(self):
        v = verify_t2_1(SQUARE, unit("power", -0.6), 1.0, None, 0.0, 1.0)
        assert v.status == "indeterminate"


class TestVerify:
    """The evaluator behind the public verifiers."""

    @pytest.mark.parametrize("theorem", MAIN_IDS + BACKGROUND_IDS)
    def test_wrappers_are_the_evaluator(self, theorem):
        g = unit("affine", 0.2, 0.6)
        if theorem in MAIN_IDS:
            wrapper = {"T2_1": verify_t2_1, "T2_2dot": verify_t2_2dot,
                       "T2_2": verify_t2_2, "T2_3": verify_t2_3}[theorem]
            extra = (g,) if theorem == "T2_3" else ()
            expected = wrapper(SQUARE, *extra, H_SQUARE, 0.8, None, 0.1, 0.9)
        else:
            expected = verify_background(theorem, SQUARE, h=H_SQUARE, g=g, m=0.8, a=0.1, b=0.9)
        assert verify(theorem, SQUARE, g=g, h=H_SQUARE, m=0.8, x=0.1, y=0.9) == expected

    def test_unknown_ids_are_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify("T9_99", SQUARE)
        with pytest.raises(ValueError, match="unknown background theorem id"):
            verify_background("T2_1", SQUARE, h=H_LINEAR)

    @pytest.mark.parametrize("m", [1.5, 0.0, math.nan])
    @pytest.mark.parametrize("theorem", ["T2_1", "T2_2dot", "T2_2", "T2_3", "T1_11"])
    def test_a_modulus_outside_0_1_is_rejected_before_any_evaluation(self, theorem, m):
        # T2_2dot with m = 1.5 read lhs 0.3033 > rhs 0.185 as a failed bound
        evaluated = []

        def recorded(name):
            fn = unit(name).source.fn
            return FuncDef(Source(lambda u: evaluated.append(u) or fn(u), name), (0.0, 1.0))

        f, g, h, phi = recorded("identity"), recorded("sqrt"), recorded("identity"), recorded("identity")
        with pytest.raises(CatalogError) as err:
            verify(theorem, f, g=g, h=h, m=m, phi=phi, x=0.1, y=0.6)
        assert str(err.value) == f"modulus m must be in (0, 1], got {m!r}"
        assert evaluated == []

    @pytest.mark.parametrize("theorem", ["HC", "T1_9", "T1_13", "T1_14"])
    def test_a_bound_without_m_ignores_it(self, theorem):
        g = unit("affine", 0.2, 0.6)
        assert verify(theorem, SQUARE, g=g, h=H_SQUARE, m=1.5, x=0.1, y=0.9) == \
            verify(theorem, SQUARE, g=g, h=H_SQUARE, m=1.0, x=0.1, y=0.9)

    def test_missing_function_is_named(self):
        with pytest.raises(ValueError, match="needs the function 'g'"):
            verify("T2_3", SQUARE, h=H_LINEAR)

    def test_vanishing_half_weight_is_a_genconvex_error(self):
        h = func_from_expr("abs(t-0.5)", "t", (0.0, 1.0))
        with pytest.raises(GenConvexError, match=r"need h\(1/2\) > 0"):
            verify("T1_9", SQUARE, h=h)

    def test_reduction_probe_missing_weight_is_named(self):
        with pytest.raises(ValueError, match="probes need the function 'h'"):
            check_reduction("T2_1_vs_T1_13", [dict(f=SQUARE, x=0.0, y=1.0)])

    @pytest.mark.parametrize("point", ["x", "y"])
    def test_reduction_probe_missing_point_is_named(self, point):
        probe = dict(f=SQUARE, h=H_LINEAR, x=0.0, y=1.0)
        del probe[point]
        with pytest.raises(ValueError, match=f"probes need the point '{point}'"):
            check_reduction("T2_1_vs_T1_13", [probe])

    @pytest.mark.parametrize("report_tol", [math.nan, -1.0, -math.inf])
    def test_a_negative_or_nan_report_tolerance_is_rejected(self, report_tol):
        # a NaN made every margin fail the `margin >= -(quad_err +
        # report_tol)` test: x^2 failed T2_2dot with a margin of +1/6
        message = r"^report_tol must be nonnegative, got "
        with pytest.raises(ValueError, match=message):
            verify("T2_2dot", SQUARE, h=H_LINEAR, report_tol=report_tol)
        with pytest.raises(ValueError, match=message):
            verify_t2_2dot(SQUARE, H_LINEAR, report_tol=report_tol)
        with pytest.raises(ValueError, match=message):
            check_reduction("T2_2dot_vs_T1_9", [dict(f=SQUARE, h=H_LINEAR, x=0.1, y=0.9)],
                            report_tol=report_tol)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -1])
    def test_a_negative_or_infinite_or_nan_budget_is_rejected(self, budget):
        # before anything is evaluated, and for a bound with no moment too
        message = rf"^budget must be finite and nonnegative, got {budget!r}$"
        calls = []
        f = FuncDef(Source(lambda u: calls.append(u) or u * u, "recorded"), (0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            verify("T2_2dot", f, h=H_LINEAR, budget=budget)
        with pytest.raises(ValueError, match=message):
            verify_t2_2dot(f, H_LINEAR, budget=budget)
        with pytest.raises(ValueError, match=message):
            verify("HC", f, x=0.1, y=0.9, budget=budget)
        assert calls == []

    def test_a_zero_report_tolerance_is_allowed(self):
        assert verify("T2_2dot", SQUARE, h=H_LINEAR, report_tol=0.0).status == "pass"


class TestEvaluationOrder:
    def test_f_and_its_integrals_come_before_the_moments(self):
        # f = ln x raises at the end 0, and every moment of this weight
        # raises near t = 0: the verdict names f's error, for a two-sided
        # bound as for a one-sided one
        f = func_from_expr("ln(x)", "x")
        h = func_from_expr("1 + sqrt(t - 0.25)", "t")
        for theorem in ("T1_9", "T2_2dot"):
            v = verify(theorem, f, h=h, x=0.0, y=1.0)
            assert (v.status, v.notes) == ("indeterminate", ("EvalDomainError: ln of non-positive 0.0",))
        # with f finite at the ends and on its integral, the weight's error
        v = verify("T1_9", f, h=h, x=0.5, y=1.0)
        assert v.notes == ("EvalDomainError: sqrt of negative -0.25",)


# --------------------------------------------------------------------------
# The integrands read f and g through FuncDef.on; the reference binds the
# checked evaluators, as they did before the choice moved to FuncDef.on.
# --------------------------------------------------------------------------

def _reference_reflected(f, g, lo, hi):
    f = f._evaluator
    return lambda u: f(u) * f((lo + hi) - u)


def _reference_product(f, g, lo, hi):
    f, g = f._evaluator, g._evaluator
    return lambda u: f(u) * g(u)


def _ulps(x, k):
    """x moved k ulps up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _function(kind, domain):
    a, b = domain
    if kind == "dsl":
        return func_from_expr("x^2 + exp(x)/3", "x", domain)
    if kind == "catalog":
        return catalog("affine", (0.5, 1.0), domain)
    # NaN outside its domain, which integrate rejects: its source must never
    # be called there
    return FuncDef(Source(lambda u: 1.0 + u * u if a <= u <= b else math.nan, "sensor"), domain)


_KINDS = st.sampled_from(["dsl", "catalog", "sensor"])
# phi for every deformed bound: the window is [x, y] wherever f's domain lies
_WIDE_PHI = catalog("identity", (), (-4.0, 4.0))


def _outcome(run):
    try:
        return repr(run())
    except GenConvexError as exc:
        return type(exc), str(exc)


@st.composite
def _windows(draw):
    """f's domain [a, b] and a window [lo, hi] inside it, at its ends or
    across them, each end drawn from [a - 1/2, b + 1/2] or within 3 ulps of
    a or b."""
    a = draw(st.floats(-2.0, 1.0))
    b = a + draw(st.floats(0.05, 2.0))

    def point():
        end = draw(st.sampled_from([a, b, None]))
        return draw(st.floats(a - 0.5, b + 0.5)) if end is None else _ulps(end, draw(st.integers(-3, 3)))

    return (a, b), *sorted((point(), point()))


class TestIntegrandsReadThroughOn:
    @given(window=_windows(), f_kind=_KINDS, g_kind=_KINDS, g_shift=st.tuples(
        st.integers(-2, 2), st.integers(-2, 2)))
    # the whole domain as the window, where s - hi rounds one ulp below a,
    # and where s - lo rounds one ulp above b
    @example(window=((0.1, 0.7), 0.1, 0.7), f_kind="sensor", g_kind="sensor", g_shift=(0, 0))
    @example(window=((0.1, 0.2), 0.1, 0.2), f_kind="sensor", g_kind="dsl", g_shift=(0, 0))
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match_the_checked_evaluators(self, window, f_kind, g_kind, g_shift):
        (a, b), lo, hi = window
        assume(lo < hi)
        f = _function(f_kind, (a, b))
        g = _function(g_kind, (_ulps(a, g_shift[0]), _ulps(b, g_shift[1])))
        runs = [lambda theorem=theorem: verify(theorem, f, g=g, h=H_LINEAR, phi=_WIDE_PHI, x=lo, y=hi)
                for theorem in ("T2_1", "T1_13", "T2_3", "T1_14")]
        got = [_outcome(run) for run in runs]
        with mock.patch.object(theorems, "_reflected", _reference_reflected), \
                mock.patch.object(theorems, "_product", _reference_product):
            assert got == [_outcome(run) for run in runs]

    @pytest.mark.parametrize("theorem", ["T2_1", "T2_3"])
    def test_a_window_inside_the_domains_never_reaches_the_check(self, theorem):
        # f and g are read at the ends 0.2 and 0.8 through the check, and the
        # integrands, whose nodes lie inside, through the sources alone
        f = catalog("power", (2,), (0.0, 1.0))
        g = func_from_expr("1 + x/4", "x", (0.1, 0.9))
        expected = verify(theorem, f, g=g, h=H_LINEAR, x=0.2, y=0.8)
        for function in (f, g):
            checked = function._evaluator

            def ends_only(u, checked=checked):
                if u not in (0.2, 0.8):
                    raise AssertionError(f"checked evaluator called at {u!r}")
                return checked(u)

            object.__setattr__(function, "_evaluator", ends_only)
        assert verify(theorem, f, g=g, h=H_LINEAR, x=0.2, y=0.8) == expected
        assert expected.status == "pass"


# --------------------------------------------------------------------------
# The integral table: a shared table gives the verdicts of fresh ones
# --------------------------------------------------------------------------

class _Unhashable:
    """A callable that defines equality and so has no hash."""

    def __eq__(self, other):
        return self is other

    def __call__(self, u):
        return u * u


def _table_functions():
    """The pool of f and g: equal-but-distinct pairs, f on [-0.0, 1] and on
    [0.0, 1], and a function that raises on (0.4, 0.6), inside its domain."""
    return [
        catalog("power", (2,), (0.0, 1.0)),
        catalog("power", (2,), (0.0, 1.0)),
        func_from_expr("x^2 + exp(x)/3", "x", (-0.0, 1.0)),
        func_from_expr("x^2 + exp(x)/3", "x", (0.0, 1.0)),
        func_from_expr("1 + sqrt(abs(x - 0.5) - 0.1)", "x", (0.0, 1.0)),
    ]


def _shared(table, theorem_id, f, g=None, h=None, m=1.0, phi=None, x=0.0, y=1.0):
    """``verify`` at its default tolerances and budget, taking its integrals
    from ``table``."""
    return theorems._verify(theorem_id, f, g, h, m, phi, x, y, DEFAULT_TOL, DEFAULT_REPORT_TOL,
                            DEFAULT_BUDGET, table)


def _count_integrals(monkeypatch):
    """The (lo, hi) of every integral ``verify`` computes, in order."""
    calls = []

    def counting(f, lo, hi, tol, budget):
        calls.append((lo, hi))
        return integrate(f, lo, hi, tol, budget)

    integrate = theorems.integrate
    monkeypatch.setattr(theorems, "integrate", counting)
    return calls


# calls of one f and g, which is what a table may be shared between
_TABLE_CALLS = st.lists(st.fixed_dictionaries({
    "theorem": st.sampled_from(["T2_1", "T2_2", "T2_3", "T1_13"]),
    "h": st.sampled_from([H_LINEAR, H_SQUARE]),
    "m": st.sampled_from([0.5, 1.0]),
    "phi": st.sampled_from([None, _WIDE_PHI]),
    "ends": st.lists(st.sampled_from([-0.0, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0]), min_size=2, max_size=2),
}), min_size=1, max_size=12)


class TestIntegralTable:
    @given(f=st.integers(0, 4), g=st.integers(0, 4), calls=_TABLE_CALLS)
    @example(f=4, g=0, calls=[{"theorem": "T2_2", "h": H_LINEAR, "m": 1.0, "phi": None,
                               "ends": [0.1, 0.9]}] * 2)
    @example(f=2, g=0, calls=[{"theorem": "T2_1", "h": H_LINEAR, "m": 1.0, "phi": None,
                               "ends": [x, 1.0]} for x in (-0.0, 0.0, -0.0)])
    @settings(max_examples=120, deadline=None)
    def test_a_shared_table_gives_the_verdicts_of_fresh_ones(self, f, g, calls):
        functions = _table_functions()
        f, g = functions[f], functions[g]
        table: dict = {}
        for call in calls:
            x, y = sorted(call["ends"])
            args = dict(g=g, h=call["h"], m=call["m"], phi=call["phi"], x=x, y=y)
            shared = _outcome(lambda: _shared(table, call["theorem"], f, **args))
            assert shared == _outcome(lambda: verify(call["theorem"], f, **args))

    def test_a_raising_integral_is_computed_again_and_names_the_same_error(self, monkeypatch):
        calls = _count_integrals(monkeypatch)
        f = _table_functions()[4]
        table: dict = {}
        first, second = (_shared(table, "T2_2dot", f, h=H_LINEAR, x=0.1, y=0.9) for _ in range(2))
        assert first == second
        assert first.status == "indeterminate"
        assert first.notes[0].startswith("EvalDomainError: sqrt of negative")
        assert len(calls) == 2
        assert table == {}

    def test_a_sweep_over_s_computes_each_integral_once(self, monkeypatch):
        from genconvex.cli import normalize_scenario, run_scenario

        calls = _count_integrals(monkeypatch)
        report = run_scenario(normalize_scenario({
            "name": "s-only", "command": "sweep", "theorem": "T2_2",
            "functions": {"f": "x^2", "h": {"family": "power", "params": [1.0]}},
            "m": 0.5, "points": {"x": 0.2, "y": 0.8},
            "axes": [{"param": "s", "values": [0.5, 1.0, 2.0, 3.0]}],
        }))
        assert [cell["result"]["status"] for cell in report["items"]] == ["pass"] * 3 + ["fail"]
        # T2_2 averages f over [m*px, py] and [px, m*py]
        assert sorted(calls) == [(0.1, 0.8), (0.2, 0.4)]

    def test_a_sweep_computes_each_integral_once_in_any_axis_order(self, monkeypatch):
        from genconvex.cli import normalize_scenario, run_scenario

        calls = _count_integrals(monkeypatch)
        values = {"m": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "s": [0.5, 1.0, 2.0], "x": [0.1, 0.2, 0.3]}
        runs = []
        for order in ("msx", "smx"):
            calls.clear()
            report = run_scenario(normalize_scenario({
                "name": order, "command": "sweep", "theorem": "T2_2",
                "functions": {"f": "x^2", "h": {"family": "power", "params": [1.0]}},
                "points": {"x": 0.1, "y": 0.9},
                "axes": [{"param": param, "values": values[param]} for param in order],
            }))
            cells = {tuple(sorted(cell["axes"].items())): cell["result"] for cell in report["items"]}
            runs.append((list(calls), cells))
        (calls_msx, cells_msx), (calls_smx, cells_smx) = runs
        # s moves no integral: the 54 cells need 32 distinct ones
        assert sorted(set(calls_smx)) == sorted(calls_smx) == sorted(calls_msx)
        assert len(calls_msx) == 32
        assert len(cells_smx) == 54 and cells_smx == cells_msx

    def test_an_unhashable_weight_needs_no_hash(self):
        h = FuncDef(Source(_Unhashable(), "unhashable"), (0.0, 1.0))
        with pytest.raises(TypeError):
            hash(h)
        table: dict = {}
        verdicts = [_shared(table, "T2_2dot", SQUARE, h=h, x=0.1, y=0.9) for _ in range(2)]
        assert verdicts[0] == verdicts[1] == verify("T2_2dot", SQUARE, h=h, x=0.1, y=0.9)
        assert verdicts[0].status in ("pass", "fail")
        assert len(table) == 1  # the integral; the weight's moments are not shared

    def test_a_reduction_pair_shares_its_integral(self, monkeypatch):
        calls = _count_integrals(monkeypatch)
        report = check_reduction("T2_2dot_vs_T1_9", [{"f": SQUARE, "h": H_LINEAR, "x": 0.1, "y": 0.9}])
        assert report.passed
        assert calls == [(0.1, 0.9)]

    def test_a_verified_function_is_released(self):
        f = func_from_expr("x^2 + 1", "x", (0.0, 1.0))
        released = weakref.ref(f)
        assert verify("T2_2dot", f, h=H_LINEAR, x=0.1, y=0.9).status == "pass"
        del f
        gc.collect()
        assert released() is None

    def test_an_unhashable_source_needs_no_hash(self, monkeypatch):
        calls = _count_integrals(monkeypatch)
        f = FuncDef(Source(_Unhashable(), "unhashable"), (0.0, 1.0))
        with pytest.raises(TypeError):
            hash(f)
        table: dict = {}
        verdicts = [_shared(table, theorem, f, g=f, h=H_LINEAR, x=0.1, y=0.9)
                    for theorem in ("T2_2dot", "T2_2dot", "T2_1", "T2_3")]
        assert verdicts[0] == verdicts[1]
        assert [v.status for v in verdicts] == ["pass"] * 4
        assert len(calls) == 3


class TestVerdictConstruction:
    """Verifiers build a Verdict by one update of its ``__dict__``
    (``theorems._verdict``); it must be the Verdict that the dataclass's own
    constructor builds."""

    FIELDS = [
        ("T2_2dot", 0.25, 0.5, 0.25, 1e-15, "pass", {"f": "x^2", "m": 1.0}, ()),
        ("HC", -0.0, 0.0, 0.0, 0.0, "pass", {}, ("a note",), 0.125, 0.0, 0.0),
        ("T1_9", math.nan, math.nan, math.nan, math.nan, "indeterminate", {"h": "t"},
         ("EvalDomainError: x",)),
    ]

    @pytest.mark.parametrize("fields", FIELDS, ids=["defaults", "two-sided", "indeterminate"])
    def test_it_is_the_dataclass_verdict(self, fields):
        built, reference = theorems._verdict(*fields), Verdict(*fields)
        assert type(built) is Verdict
        assert repr(built) == repr(reference)
        # fields in declaration order, as the report items list them; a NaN
        # field is the same object on both sides, so compares equal here
        assert list(vars(built).items()) == list(vars(reference).items())
        assert list(vars(built)) == [field.name for field in dataclasses.fields(Verdict)]
        assert built == reference
        with pytest.raises(TypeError):  # inputs is a dict, as for the dataclass's own
            hash(built)

    @pytest.mark.parametrize("fields", FIELDS, ids=["defaults", "two-sided", "indeterminate"])
    def test_it_is_immutable_and_pickles(self, fields):
        built = theorems._verdict(*fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.status = "fail"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del built.lhs
        copied = pickle.loads(pickle.dumps(built))
        assert repr(copied) == repr(built)
        assert list(vars(copied)) == list(vars(built))

    def test_every_verifier_verdict_is_one(self):
        verdicts = [verify("T2_2dot", SQUARE, h=H_LINEAR), verify("HC", SQUARE),
                    verify("T2_1", unit("recip_power", 1), h=unit("recip_power", 1))]
        assert [verdict.status for verdict in verdicts] == ["pass", "pass", "indeterminate"]
        for verdict in verdicts:
            assert repr(Verdict(**vars(verdict))) == repr(verdict)
            assert dataclasses.replace(verdict, status="fail").status == "fail"
