import math

import pytest

from genconvex.errors import CatalogError, EvalDomainError
from genconvex.funcdsl import catalog, func_from_expr
from genconvex.classes import certify_sampled, class_spec, defect
from genconvex.algebra import (
    combine,
    compose_phi,
    dominance_inclusion,
    is_increasing,
    is_strictly_linear,
    segment,
)


def unit(name, *params):
    return catalog(name, params, (0.0, 1.0))


SQUARE = unit("power", 2)
IDENT = unit("identity")
ROOT = unit("sqrt")
H_LINEAR = unit("identity")
H_ONE = unit("constant", 1)
CONVEX = class_spec("convex")


class TestCombine:
    def test_pointwise_sum(self):
        s = combine(SQUARE, IDENT, 1.0, 1.0)
        assert s(0.5) == 0.75

    def test_weighted(self):
        s = combine(SQUARE, IDENT, 2.0, 0.5)
        assert s(0.5) == 2.0 * 0.25 + 0.5 * 0.5

    def test_zero_weight_is_scaling(self):
        zero = unit("constant", 0)
        s = combine(SQUARE, zero, 3.0, 0.0)
        for u in (0.0, 0.3, 0.7, 1.0):
            assert s(u) == 3.0 * SQUARE(u)

    def test_mismatched_domains(self):
        wide = catalog("power", (2,), (0.0, 2.0))
        with pytest.raises(CatalogError):
            combine(SQUARE, wide)

    def test_negative_weight_rejected(self):
        with pytest.raises(CatalogError):
            combine(SQUARE, IDENT, -1.0, 1.0)

    @pytest.mark.parametrize("weights", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
    ])
    def test_a_weight_that_is_not_finite_is_rejected_when_built(self, weights):
        with pytest.raises(CatalogError, match="weights must be finite and nonnegative"):
            combine(SQUARE, IDENT, *weights)

    def test_label(self):
        f = func_from_expr("x^2 + 1", "x")
        assert combine(f, ROOT, 2.0, 0.5).label == "2.0*(x^2.0+1.0) + 0.5*(sqrt())"
        assert combine(SQUARE, IDENT).label == "1.0*(power(2.0)) + 1.0*(identity())"

    def test_calls_on_the_same_parts_compare_unequal(self):
        a, b = combine(SQUARE, IDENT), combine(SQUARE, IDENT)
        assert a.label == b.label
        assert a != b and a.source != b.source
        assert a == a and hash(a) == hash(a)

    def test_defect_additivity_spot_check(self):
        s = combine(SQUARE, IDENT, 1.0, 1.0)
        d = defect(s, CONVEX, 0.0, 1.0, 0.5)
        assert d == pytest.approx(0.25 + 0.0, abs=1e-15)

    def test_defect_distributes_exactly(self):
        import random

        rng = random.Random(21)
        for _ in range(200):
            lam, mu = rng.uniform(0, 3), rng.uniform(0, 3)
            s = combine(SQUARE, ROOT, lam, mu)
            x, y = rng.uniform(0, 1), rng.uniform(0, 1)
            t = rng.uniform(0.01, 0.99)
            expected = lam * defect(SQUARE, CONVEX, x, y, t) + mu * defect(ROOT, CONVEX, x, y, t)
            assert defect(s, CONVEX, x, y, t) == pytest.approx(expected, abs=1e-12)

    def test_membership_closed_under_combination(self):
        # sums and positive scalings of members stay members, including
        # under a weighted class with fractional modulus
        spec = class_spec("hm_convex", h=H_LINEAR, m=0.75)
        f, g = SQUARE, IDENT
        assert certify_sampled(f, spec, n=2_000, seed=0).certified
        assert certify_sampled(g, spec, n=2_000, seed=0).certified
        s = combine(f, g, 2.0, 0.5)
        assert certify_sampled(s, spec, n=2_000, seed=0).certified


class TestDominance:
    def test_linear_below_flat(self):
        report = dominance_inclusion(H_ONE, H_LINEAR)
        assert report.dominates
        assert report.worst_gap >= 0.0

    def test_reflexive(self):
        report = dominance_inclusion(H_LINEAR, H_LINEAR)
        assert report.dominates
        assert report.worst_gap == 0.0

    def test_flat_not_below_linear(self):
        report = dominance_inclusion(H_LINEAR, H_ONE)
        assert not report.dominates
        assert report.worst_gap <= -0.5  # the gap at t = 1/2 alone is -0.5
        assert H_LINEAR(0.5) - H_ONE(0.5) == -0.5

    def test_transitive_on_catalog_weights(self):
        chain = [unit("power", 2), H_LINEAR, unit("sqrt"), H_ONE]  # t^2 <= t <= sqrt(t) <= 1
        for low, high in zip(chain, chain[1:]):
            assert dominance_inclusion(high, low).dominates
        assert dominance_inclusion(chain[-1], chain[0]).dominates

    def test_membership_transfers_along_dominance(self):
        report = dominance_inclusion(H_ONE, H_LINEAR)
        assert report.dominates
        small = certify_sampled(SQUARE, class_spec("h_convex", h=H_LINEAR), n=2_000, seed=0)
        large = certify_sampled(SQUARE, class_spec("h_convex", h=H_ONE), n=2_000, seed=0)
        assert small.certified
        assert large.certified
        assert large.min_defect >= small.min_defect - 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dominance_inclusion(H_ONE, H_LINEAR, grid=2)


class TestCompose:
    def test_halving_map_stays_convex(self):
        phi = catalog("affine", (0.0, 0.5), (0.0, 2.0))  # u/2 on [0, 2]
        composed = compose_phi(SQUARE, phi)
        assert composed(1.0) == 0.25
        spec = class_spec("convex", phi=catalog("identity", (), (0.0, 2.0)), bound=2.0)
        assert certify_sampled(composed, spec, n=3_000, seed=0).certified

    def test_label(self):
        f = func_from_expr("x^2 + 1", "x")
        phi = catalog("affine", (0.0, 0.5), (0.0, 1.0))
        assert compose_phi(f, phi).label == "(x^2.0+1.0) o (affine(0.0,0.5))"

    def test_identity_composition_is_bit_identical(self):
        composed = compose_phi(SQUARE, IDENT)
        for i in range(101):
            u = i / 100.0
            assert composed(u) == SQUARE(u)

    def test_increasing_with_inner_convex(self):
        # sqrt is increasing, u^2 is convex (so 1-convex); sqrt(u^2) = u
        inner = SQUARE
        assert is_increasing(ROOT)
        assert certify_sampled(inner, CONVEX, n=2_000, seed=0).certified
        composed = compose_phi(ROOT, inner)
        assert certify_sampled(composed, CONVEX, n=3_000, seed=0).certified

    def test_range_violation_surfaces(self):
        narrow = catalog("power", (2,), (0.0, 0.5))
        with pytest.raises(EvalDomainError):
            compose_phi(narrow, IDENT)(0.9)

    def test_strictly_linear_map_preserves_fractional_modulus_class(self):
        # f is (h=t, m)-convex and phi(u) = u/2 is strictly linear, so the
        # composition stays in the class even for m < 1
        m = 0.5
        phi = catalog("affine", (0.0, 0.5), (0.0, 1.0))
        assert is_strictly_linear(phi)
        base_spec = class_spec("m_convex", m=m)
        assert certify_sampled(SQUARE, base_spec, n=2_000, seed=0).certified
        composed = compose_phi(SQUARE, phi)
        assert certify_sampled(composed, base_spec, n=3_000, seed=0).certified


class TestLinearityAndMonotonicity:
    def test_strict_linearity(self):
        assert is_strictly_linear(catalog("affine", (0.0, 0.5), (0.0, 1.0)))
        assert is_strictly_linear(IDENT)
        assert not is_strictly_linear(catalog("affine", (0.1, 0.5), (0.0, 1.0)))
        assert not is_strictly_linear(SQUARE)

    def test_monotonicity(self):
        assert is_increasing(IDENT)
        assert is_increasing(SQUARE)
        down = catalog("affine", (1.0, -1.0), (0.0, 1.0))
        assert not is_increasing(down)

    def test_strict_linearity_needs_0_in_the_domain_and_a_line_inside_the_grid(self):
        # x^2 is 0 at 0 and meets c*u at the end, and leaves it inside the grid
        assert not is_strictly_linear(func_from_expr("x^2", "x"))
        for domain in ((0.5, 1.0), (-1.0, 0.0)):
            assert not is_strictly_linear(catalog("identity", (), domain))

    def test_monotonicity_skips_the_points_where_f_raises(self):
        f = func_from_expr("sqrt(x - 0.5)", "x")
        with pytest.raises(EvalDomainError):
            f(0.25)
        assert is_increasing(f)
        assert not is_increasing(func_from_expr("sqrt(0.5 - x) + sqrt(x - 0.25)", "x"))


# each sampled predicate with the smallest grid it accepts
_GRID_CHECKS = {
    "dominance_inclusion": (lambda grid: dominance_inclusion(H_ONE, H_LINEAR, grid=grid), 3),
    "is_strictly_linear": (lambda grid: is_strictly_linear(func_from_expr("x^2", "x"), grid=grid), 1),
    "is_increasing": (lambda grid: is_increasing(SQUARE, grid=grid), 1),
}


class TestGridChecks:
    @pytest.mark.parametrize("name", list(_GRID_CHECKS))
    def test_a_grid_below_the_minimum_is_a_value_error(self, name):
        check, minimum = _GRID_CHECKS[name]
        for grid in (minimum - 1, 0, -5):
            with pytest.raises(ValueError) as err:
                check(grid)
            assert str(err.value) == f"grid must be >= {minimum}"
        check(minimum)

    @pytest.mark.parametrize("grid", [3.5, 4.0, "5", None, True, False])
    @pytest.mark.parametrize("name", list(_GRID_CHECKS))
    def test_a_grid_that_is_not_an_int_is_a_type_error(self, name, grid):
        with pytest.raises(TypeError) as err:
            _GRID_CHECKS[name][0](grid)
        assert str(err.value) == f"grid must be an integer, got {grid!r}"

    def test_an_empty_grid_no_longer_passes_a_square_as_linear(self):
        # with no interior point, x^2 passed: 0 at 0 and c*u at the end
        with pytest.raises(ValueError):
            is_strictly_linear(func_from_expr("x^2", "x"), grid=0)
        assert not is_strictly_linear(func_from_expr("x^2", "x"), grid=1)


class TestSegment:
    @pytest.mark.parametrize("m", [1.5, 0.0, -0.5, math.nan])
    def test_a_modulus_outside_0_1_is_rejected(self, m):
        with pytest.raises(CatalogError) as err:
            segment(SQUARE, IDENT, m, 0.0, 1.0)
        assert str(err.value) == f"modulus m must be in (0, 1], got {m!r}"

    def test_unit_modulus_square_segment(self):
        seg = segment(SQUARE, IDENT, 1.0, 0.0, 1.0)
        # g(t) = f(t*0 + (1-t)*1)? anchors: x=0, y=1 -> g(t) = (1-t)... careful:
        # blend = t*phi(x) + m(1-t)*phi(y) = (1-t), so g(t) = (1-t)^2
        assert seg(0.3) == pytest.approx(0.49, abs=1e-15)
        g = seg.as_funcdef()
        assert certify_sampled(g, CONVEX, n=3_000, seed=0).certified

    def test_segment_of_square_along_increasing_anchor(self):
        seg = segment(SQUARE, IDENT, 1.0, 1.0, 0.0)  # blend = t, g = t^2
        assert seg(0.5) == 0.25
        assert certify_sampled(seg.as_funcdef(), CONVEX, n=3_000, seed=0).certified

    def test_label(self):
        f = func_from_expr("x^2 + 1", "x")
        phi = catalog("affine", (0.0, 0.5), (0.0, 1.0))
        g = segment(f, phi, 0.5, 0.25, 1.0).as_funcdef()
        assert g.label == "segment(x^2.0+1.0; phi=affine(0.0,0.5), m=0.5, x=0.25, y=1.0)"
        assert g.domain == (0.0, 1.0)

    def test_constant_segment(self):
        const = unit("constant", 0.4)
        seg = segment(const, IDENT, 0.7, 0.2, 0.9)
        for t in (0.1, 0.5, 0.9):
            assert seg(t) == 0.4

    def test_construction_probes_catch_domain_violations(self):
        narrow = catalog("power", (2,), (0.5, 1.0))
        phi = catalog("identity", (), (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            segment(narrow, phi, 1.0, 0.0, 1.0)  # blend sweeps down to 0

    def test_modulus_validation(self):
        with pytest.raises(CatalogError):
            segment(SQUARE, IDENT, 0.0, 0.0, 1.0)

    def test_half_modulus_segment_matches_brute_force_truth(self):
        # f = u^2, phi = id, m = 1/2, anchors x = y = 1: g(t) = ((1+t)/2)^2.
        # g(0) = 1/4 > 0, and any candidate with g(0) > 0 has negative
        # modulus-m defect near the origin (g(0)*(1-m)(t-1) < 0), so the
        # certifier must reject g under (h=t, m=1/2).
        m = 0.5
        seg = segment(SQUARE, IDENT, m, 1.0, 1.0)
        assert seg(0.0) == 0.25
        g = seg.as_funcdef()
        spec = class_spec("m_convex", m=m)
        report = certify_sampled(g, spec, n=10_000, seed=0)
        assert not report.certified
        assert report.min_defect < -0.1
        # independent oracle: exhaustive grid scan finds the same failure,
        # and the infimum of the defect is -1/8 (approached as x, y, t -> 0)
        worst = math.inf
        for i in range(41):
            for j in range(41):
                for k in range(1, 40):
                    worst = min(worst, defect(g, spec, i / 40, j / 40, k / 40))
        assert worst < -0.1
        assert report.min_defect >= -0.125 - 1e-12

    def test_unit_modulus_segment_certifies_like_base(self):
        # membership of f transfers to its segment restriction at m = 1
        configs = [
            (SQUARE, H_LINEAR, 0.0, 1.0),
            (SQUARE, H_ONE, 0.2, 0.9),
            (catalog("poly", (0.0, 1.0, 2.0), (0.0, 1.0)), H_LINEAR, 0.1, 1.0),
        ]
        for f, h, x, y in configs:
            base_spec = class_spec("h_convex", h=h)
            assert certify_sampled(f, base_spec, n=3_000, seed=7).certified
            g = segment(f, IDENT, 1.0, x, y).as_funcdef()
            seg_spec = class_spec("h_convex", h=h)
            assert certify_sampled(g, seg_spec, n=3_000, seed=7).certified
