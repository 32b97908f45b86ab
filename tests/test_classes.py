import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from genconvex.errors import CatalogError, EvalDomainError, PhiRangeError
from genconvex.funcdsl import catalog, func_from_expr
from genconvex.classes import (
    CertificationReport,
    ClassSpec,
    certify_sampled,
    class_spec,
    defect,
    falsify,
)


def unit(name, *params):
    return catalog(name, params, (0.0, 1.0))


SQUARE = unit("power", 2)
IDENT = unit("identity")
ROOT = unit("sqrt")
H_LINEAR = unit("identity")
H_ONE = unit("constant", 1)
CONVEX = class_spec("convex")


def brute_force_min_defect(f, spec, grid=40):
    """Independent oracle: exhaustive scan of an even (x, y, t) grid."""
    lo, hi = spec.domain
    worst = math.inf
    for i in range(grid + 1):
        for j in range(grid + 1):
            for k in range(1, grid):
                x = lo + (hi - lo) * i / grid
                y = lo + (hi - lo) * j / grid
                t = k / grid
                try:
                    worst = min(worst, defect(f, spec, x, y, t))
                except EvalDomainError:
                    continue
    return worst


class TestDefect:
    def test_square_midpoint(self):
        assert defect(SQUARE, CONVEX, 0.0, 1.0, 0.5) == 0.25

    def test_linear_is_tight(self):
        for (x, y, t) in [(0.0, 1.0, 0.5), (0.2, 0.9, 0.3), (1.0, 0.0, 0.75)]:
            assert defect(IDENT, CONVEX, x, y, t) == 0.0

    def test_sqrt_witness(self):
        expected = 0.5 - math.sqrt(0.5)
        assert defect(ROOT, CONVEX, 0.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_square_fails_under_square_weight(self):
        spec = class_spec("h_convex", h=unit("power", 2))
        assert defect(SQUARE, spec, 0.5, 0.5, 0.5) == -0.125

    def test_probe_outside_domain_rejected(self):
        with pytest.raises(EvalDomainError):
            defect(SQUARE, CONVEX, -0.1, 1.0, 0.5)
        with pytest.raises(EvalDomainError):
            defect(SQUARE, CONVEX, 0.0, 1.2, 0.5)

    def test_t_must_be_interior(self):
        for t in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(EvalDomainError):
                defect(SQUARE, CONVEX, 0.0, 1.0, t)

    def test_blend_outside_f_domain_is_error_not_counterexample(self):
        narrow = catalog("power", (2,), (0.5, 1.0))
        spec = class_spec("m_convex", m=0.5)
        # blend = 0.25 + 0.35 t < 0.5 for small t, outside f's domain
        with pytest.raises(EvalDomainError):
            defect(narrow, spec, 0.6, 0.5, 0.1)

    def test_phi_escaping_domain_is_an_error(self):
        phi = catalog("affine", (0.5, 1.0), (0.0, 1.0))  # 0.5 + u, exits [0, 1]
        spec = class_spec("phi_hm_convex", h=H_LINEAR, m=1.0, phi=phi)
        with pytest.raises(PhiRangeError):
            defect(SQUARE, spec, 0.9, 0.2, 0.5)

    @given(
        lam=st.floats(min_value=0.01, max_value=10.0),
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_scaling_homogeneity(self, lam, x, y, t):
        scaled = catalog("poly", (0.0, 0.0, lam), (0.0, 1.0))
        d1 = defect(scaled, CONVEX, x, y, t)
        d0 = defect(SQUARE, CONVEX, x, y, t)
        assert d1 == pytest.approx(lam * d0, abs=1e-12 * max(1.0, lam))

    def test_weight_dominance_is_pointwise(self):
        # larger h can only increase the defect of a nonnegative function
        spec_small = class_spec("h_convex", h=H_LINEAR)
        spec_large = class_spec("h_convex", h=H_ONE)
        rng = random.Random(3)
        for f in (SQUARE, IDENT, ROOT, unit("constant", 0.6)):
            for _ in range(40):
                x, y = rng.uniform(0, 1), rng.uniform(0, 1)
                t = rng.uniform(0.01, 0.99)
                assert defect(f, spec_large, x, y, t) >= defect(f, spec_small, x, y, t)

    def test_reduced_tag_is_bit_identical(self):
        h = unit("power", 1.5)
        full = class_spec("phi_hm_convex", h=h, m=1.0)
        reduced = class_spec("h_convex", h=h)
        rng = random.Random(11)
        for _ in range(60):
            x, y = rng.uniform(0, 1), rng.uniform(0, 1)
            t = rng.uniform(0.01, 0.99)
            assert defect(SQUARE, full, x, y, t) == defect(SQUARE, reduced, x, y, t)

    def test_reduced_modulus_path_is_bit_identical(self):
        full = class_spec("phi_hm_convex", m=0.7)
        reduced = class_spec("m_convex", m=0.7)
        rng = random.Random(13)
        for _ in range(60):
            x, y = rng.uniform(0, 1), rng.uniform(0, 1)
            t = rng.uniform(0.01, 0.99)
            assert defect(SQUARE, full, x, y, t) == defect(SQUARE, reduced, x, y, t)


class TestClassSpec:
    def test_tag_forcing(self):
        with pytest.raises(CatalogError):
            class_spec("convex", m=0.5)
        with pytest.raises(CatalogError):
            class_spec("h_convex", h=H_ONE, m=0.5)
        with pytest.raises(CatalogError):
            class_spec("m_convex", h=unit("power", 2), m=0.5)
        with pytest.raises(CatalogError):
            class_spec("hm_convex", phi=unit("power", 2), m=0.5)

    # the parameters each tag pins, in the order ClassSpec checks them
    PINNED = {
        "convex": ("h", "m", "phi"),
        "m_convex": ("h", "phi"),
        "h_convex": ("m", "phi"),
        "hm_convex": ("phi",),
        "phi_convex": ("h", "m"),
        "phi_h_convex": ("m",),
        "phi_hm_convex": (),
    }
    WRONG = {"h": unit("power", 2), "m": 0.5, "phi": unit("power", 2)}
    MESSAGES = {
        "h": "forces h(t)=t, got h=power(2.0)",
        "m": "forces m=1, got m=0.5",
        "phi": "forces phi=identity, got phi=power(2.0)",
    }

    @pytest.mark.parametrize("tag, param", [
        (tag, param) for tag, pinned in PINNED.items() for param in pinned
    ])
    def test_forcing_message(self, tag, param):
        with pytest.raises(CatalogError) as err:
            class_spec(tag, **{param: self.WRONG[param]})
        assert str(err.value) == f"tag '{tag}' {self.MESSAGES[param]}"

    @pytest.mark.parametrize("tag", list(PINNED))
    def test_forcing_checks_h_then_m_then_phi(self, tag):
        pinned = self.PINNED[tag]
        if not pinned:
            spec = class_spec(tag, **self.WRONG)
            assert (spec.h, spec.m, spec.phi) == (self.WRONG["h"], 0.5, self.WRONG["phi"])
            return
        with pytest.raises(CatalogError) as err:
            class_spec(tag, **self.WRONG)
        assert str(err.value) == f"tag '{tag}' {self.MESSAGES[pinned[0]]}"

    @pytest.mark.parametrize("h", [unit("identity"), unit("power", 1), unit("power", 1.0)])
    def test_identity_catalog_weights_satisfy_the_pinned_h(self, h):
        assert class_spec("convex", h=h).h == h

    @pytest.mark.parametrize("h", [
        func_from_expr("t", "t"), unit("power", 2), unit("affine", 0.0, 1.0),
    ])
    def test_other_weights_equal_to_t_do_not(self, h):
        with pytest.raises(CatalogError):
            class_spec("convex", h=h)

    def test_modulus_range(self):
        with pytest.raises(CatalogError):
            class_spec("m_convex", m=0.0)
        with pytest.raises(CatalogError):
            class_spec("m_convex", m=1.5)

    def test_unknown_tag(self):
        with pytest.raises(CatalogError):
            class_spec("quasiconvex")

    def test_unknown_tag_built_directly(self):
        with pytest.raises(CatalogError, match=r"^unknown class tag 'quasiconvex'$"):
            ClassSpec(tag="quasiconvex", h=IDENT, m=1.0, phi=IDENT, bound=1.0)

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bound_must_be_finite_positive(self, bound):
        with pytest.raises(CatalogError) as err:
            ClassSpec(tag="convex", h=IDENT, m=1.0, phi=IDENT, bound=bound)
        assert str(err.value) == f"domain bound must be finite positive, got {bound!r}"

    def test_domain_property(self):
        assert class_spec("convex", bound=2.0).domain == (0.0, 2.0)


class TestCertify:
    def test_square_is_certified_convex(self):
        report = certify_sampled(SQUARE, CONVEX, n=10_000, seed=0)
        assert report.certified
        assert report.min_defect >= -1e-15
        assert report.samples_ok >= 10_000

    def test_constant_defect_vanishes_at_unit_modulus(self):
        const = unit("constant", 0.8)
        report = certify_sampled(const, CONVEX, n=2_000, seed=0)
        assert abs(report.min_defect) <= 1e-15

    def test_square_under_flat_weight_matches_brute_force(self):
        spec = class_spec("h_convex", h=H_ONE)
        report = certify_sampled(SQUARE, spec, n=5_000, seed=0)
        oracle = brute_force_min_defect(SQUARE, spec, grid=30)
        assert oracle >= 0.0
        assert report.certified
        assert report.min_defect >= oracle - 1e-12

    def test_sqrt_is_rejected(self):
        report = certify_sampled(ROOT, CONVEX, n=5_000, seed=0)
        assert not report.certified
        assert report.min_defect < -0.1

    def test_report_says_evidence_only(self):
        report = certify_sampled(SQUARE, CONVEX, n=100, seed=0)
        assert "not a proof" in report.note

    def test_deterministic_given_seed(self):
        a = certify_sampled(ROOT, CONVEX, n=3_000, seed=5)
        b = certify_sampled(ROOT, CONVEX, n=3_000, seed=5)
        assert a == b
        c = certify_sampled(ROOT, CONVEX, n=3_000, seed=6)
        assert isinstance(c, CertificationReport)

    def test_narrow_function_counts_skips(self):
        narrow = catalog("power", (2,), (0.25, 0.75))
        report = certify_sampled(narrow, CONVEX, n=2_000, seed=0)
        assert report.samples_skipped > 0


    def test_sample_count_validation(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            certify_sampled(SQUARE, CONVEX, n=0)

    def test_function_defined_off_every_probe(self):
        far = catalog("power", (2,), (2.0, 3.0))
        with pytest.raises(EvalDomainError) as err:
            certify_sampled(far, CONVEX, n=50, seed=0)
        assert str(err.value) == "every probe fell outside the domain of f"
        assert err.value.point == 0.0


class TestFalsify:
    def test_sqrt_yields_strong_witness(self):
        witness = falsify(ROOT, CONVEX, budget=10_000, seed=42)
        assert witness is not None
        assert witness.defect <= -0.2
        assert witness.defect == witness.rhs - witness.lhs
        # the analytic minimum is -1/4 at (x, y, t) = (0, 1, 3/4)
        assert witness.defect >= -0.25 - 1e-12

    def test_square_yields_nothing(self):
        assert falsify(SQUARE, CONVEX, budget=10_000, seed=42) is None

    def test_witness_validates_against_defect(self):
        witness = falsify(ROOT, CONVEX, budget=5_000, seed=1)
        assert witness is not None
        assert defect(ROOT, CONVEX, witness.x, witness.y, witness.t) == pytest.approx(
            witness.defect, abs=1e-15
        )

    def test_deterministic_given_seed(self):
        a = falsify(ROOT, CONVEX, budget=5_000, seed=9)
        b = falsify(ROOT, CONVEX, budget=5_000, seed=9)
        assert a == b

    def test_skip_diagnostics(self):
        narrow = catalog("power", (2,), (0.25, 0.75))
        stats = {}
        falsify(narrow, CONVEX, budget=2_000, seed=0, stats_out=stats)
        assert stats["probes_skipped"] > 0
        assert stats["probes_ok"] > 0

    def test_weighted_class_witness_matches_analysis(self):
        # under h(t) = t^2 the square function has defect -0.125 at (.5,.5,.5)
        spec = class_spec("h_convex", h=unit("power", 2))
        witness = falsify(SQUARE, spec, budget=8_000, seed=0)
        assert witness is not None
        assert witness.defect <= -0.125

    def test_function_defined_off_every_probe_yields_nothing(self):
        # no grid probe is usable, so there is no incumbent to refine
        far = catalog("power", (2,), (2.0, 3.0))
        stats = {}
        assert falsify(far, CONVEX, budget=2_000, seed=0, stats_out=stats) is None
        assert stats == {"probes_ok": 0, "probes_skipped": 7 * 7 * 5 + 10 ** 3}

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            falsify(SQUARE, CONVEX, budget=0)
