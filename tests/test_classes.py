import itertools
import math
import random
import struct
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genconvex.errors import CatalogError, EvalDomainError, PhiRangeError
from genconvex import classes
from genconvex.algebra import combine, compose_phi, segment
from genconvex.cli import dump_machine, load_scenario, normalize_scenario, run_scenario
from genconvex.funcdsl import (
    BATCH_ERRORS, FuncDef, Source, catalog, domain_slack, func_from_expr, identity_on,
)
from genconvex.classes import (
    CertificationReport,
    ClassSpec,
    certify_sampled,
    class_spec,
    defect,
    falsify,
)


_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_GOLDEN = Path(__file__).resolve().parent / "golden"


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
        func_from_expr("t^1", "t"), unit("power", 2), unit("affine", 0.0, 1.0),
    ])
    def test_other_weights_equal_to_t_do_not(self, h):
        with pytest.raises(CatalogError):
            class_spec("convex", h=h)

    @pytest.mark.parametrize("tag, param, variable", [("convex", "h", "t"), ("h_convex", "phi", "x")])
    def test_dsl_identity_satisfies_the_pinned_parameter(self, tag, param, variable):
        dsl, plain = class_spec(tag, **{param: func_from_expr(variable)}), class_spec(tag)
        grid = [(i / 8, j / 8, k / 8) for i in range(9) for j in range(9) for k in range(1, 8)]
        for f in (SQUARE, ROOT):
            assert ([defect(f, dsl, *p).hex() for p in grid]
                    == [defect(f, plain, *p).hex() for p in grid])
        with pytest.raises(CatalogError) as err:
            class_spec(tag, **{param: func_from_expr(f"{variable}^2")})
        wrong = self.MESSAGES[param].replace("power(2.0)", f"{variable}^2.0")
        assert str(err.value) == f"tag '{tag}' {wrong}"

    def test_the_default_h_and_phi_are_the_shared_identities(self):
        spec = class_spec("convex")
        assert spec.h is identity_on((0.0, 1.0)) and spec.phi is identity_on((0.0, 1.0))
        wide = class_spec("phi_convex", bound=2.0)
        assert wide.h is spec.h and wide.phi is identity_on((0.0, 2.0))

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

    @pytest.mark.parametrize("bound", [-1.0, 0.0, math.inf, math.nan])
    def test_class_spec_names_a_bad_bound_before_building_phi(self, bound):
        with pytest.raises(CatalogError) as err:
            class_spec("convex", bound=bound)
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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_a_negative_or_nan_tolerance_is_rejected(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be nonnegative, got "):
            certify_sampled(ROOT, CONVEX, n=100, tol=tol)

    def test_a_zero_tolerance_is_allowed(self):
        assert certify_sampled(SQUARE, CONVEX, n=100, tol=0.0).certified

    @pytest.mark.parametrize("name, value", [("n", 2.5), ("n", 100.0), ("n", True), ("n", "100"),
                                             ("seed", 1.5), ("seed", False), ("seed", None)])
    def test_an_argument_that_is_not_an_integer_is_named(self, name, value):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value!r}$"):
            certify_sampled(ROOT, CONVEX, **{"n": 100, name: value})

    def test_function_defined_off_every_probe(self):
        far = catalog("power", (2,), (2.0, 3.0))
        with pytest.raises(EvalDomainError) as err:
            certify_sampled(far, CONVEX, n=50, seed=0)
        assert str(err.value) == "every probe fell outside the domain of f"
        assert err.value.point == 0.0


class TestFalsify:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_a_negative_or_nan_tolerance_is_rejected(self, tol):
        # a `defect < -tol` test let these through, and x^2 got a witness
        # of defect 0.0
        with pytest.raises(ValueError, match=r"^tol must be nonnegative, got "):
            falsify(catalog("power", (2,)), class_spec("convex"), budget=200, tol=tol)

    def test_a_zero_tolerance_is_allowed(self):
        assert falsify(SQUARE, CONVEX, budget=200, tol=0.0) is None
        assert falsify(ROOT, CONVEX, budget=200, tol=0.0) is not None

    @pytest.mark.parametrize("name, value", [("budget", 2.5), ("budget", 200.0), ("budget", True),
                                             ("seed", 1.5), ("seed", True), ("seed", "0")])
    def test_an_argument_that_is_not_an_integer_is_named(self, name, value):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value!r}$"):
            falsify(ROOT, CONVEX, **{"budget": 200, name: value})

    def test_a_budget_below_529_leaves_no_refinement_round(self):
        # phase one always scans the 245 grid probes and budget // 2 triples;
        # the 20 rounds share what is left, 19 probes at budget 528
        for budget, probes in ((528, 245 + 264), (529, 529), (600, 245 + 300 + 20 * 2)):
            stats = {}
            falsify(SQUARE, CONVEX, budget=budget, stats_out=stats)
            assert stats == {"probes_ok": probes, "probes_skipped": 0}

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
        # no probe of the certifier's probe set (the boundary grid and
        # budget // 2 Halton triples) is usable, so there is no incumbent to refine
        far = catalog("power", (2,), (2.0, 3.0))
        stats = {}
        assert falsify(far, CONVEX, budget=2_000, seed=0, stats_out=stats) is None
        assert stats == {"probes_ok": 0, "probes_skipped": 7 * 7 * 5 + 2_000 // 2}

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            falsify(SQUARE, CONVEX, budget=0)


def bump(w, c=0.37):
    """x^2 less a Gaussian dip of width w at c.  The dip's shoulders have
    f'' = 2 - 16 e^-1.5 < 0 whatever w is, and its defect scales as w^2."""
    return func_from_expr(f"x^2 - 4*{w!r}^2*exp(-((x - {c!r})/{w!r})^2)", None, (0.0, 1.0))


class TestFalsifyStartsFromCertifyProbes:
    """falsify(budget=2n) scans certify_sampled(n)'s probes first, with the
    same seed, and only then refines; so whenever certify_sampled rejects,
    falsify returns a witness at least as deep as certify's minimum."""

    PAIRS = {
        "bump 0.01 convex": (bump(0.01), CONVEX),
        "bump 0.005 convex": (bump(0.005), CONVEX),
        "bump 0.05 phi_convex": (bump(0.05, 0.45), class_spec("phi_convex", phi=unit("power", 2))),
        "bump 0.04 phi_hm_convex": (
            bump(0.04, 0.52),
            class_spec("phi_hm_convex", h=H_LINEAR, m=1.0, phi=unit("power", 1.5)),
        ),
    }

    @staticmethod
    def check(f, spec, **sizes):
        report = certify_sampled(f, spec, **sizes.get("certify", {}))
        if report.certified:
            return
        witness = falsify(f, spec, **sizes.get("falsify", {}))
        assert witness is not None
        assert witness.defect <= report.min_defect

    @given(name=st.sampled_from(sorted(PAIRS)), n=st.integers(50, 400), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_small_sizes(self, name, n, seed):
        f, spec = self.PAIRS[name]
        self.check(f, spec, certify=dict(n=n, seed=seed), falsify=dict(budget=2 * n, seed=seed))

    def test_default_sizes(self):
        for w in (0.01, 0.005):
            for seed in (0, 1, 2):
                self.check(bump(w), CONVEX, certify=dict(seed=seed), falsify=dict(seed=seed))


# --------------------------------------------------------------------------
# The Halton generator as it was before its radical inverses were folded
# from tables, kept as the reference the production generator must match
# bit for bit: each radical inverse divides its index down digit by digit.
# --------------------------------------------------------------------------

def _reference_halton(index: int, base: int) -> float:
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


def _reference_quasi_triples(n: int, seed: int, lo: float, hi: float):
    """n low-discrepancy (x, y, t) probes; the seed offsets the sequence."""
    width = hi - lo
    offset = (seed % 100_000) * 7 + 1
    for k in range(offset, offset + n):
        x = lo + width * _reference_halton(k, 2)
        y = lo + width * _reference_halton(k, 3)
        t = min(max(_reference_halton(k, 5), classes._T_INTERIOR), 1.0 - classes._T_INTERIOR)
        yield x, y, t


def _reference_grid(lo, hi):
    """The boundary grid: endpoints and near-endpoint x, y paired with
    interior t including the midpoints 1/4, 1/2, 3/4."""
    width = hi - lo
    xs = [lo + width * c for c in (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)]
    ts = (1.0 / 32.0, 0.25, 0.5, 0.75, 31.0 / 32.0)
    return itertools.product(xs, xs, ts)


def _reference_probe_set(n, seed, lo, hi):
    return itertools.chain(_reference_grid(lo, hi), _reference_quasi_triples(n, seed, lo, hi))


def _bits(x):
    return struct.pack("d", x)


def _radical_inverses(base, start, stop):
    """The production radical inverses of the indices start, ..., stop - 1."""
    return list(classes._radical_inverses(base, start, stop))


class TestHaltonMatchesReference:
    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_first_indices(self, base):
        got = _radical_inverses(base, 0, 100_000)
        assert [_bits(v) for v in got] == [_bits(_reference_halton(k, base)) for k in range(100_000)]

    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_random_large_indices(self, base):
        rng = random.Random(base)
        for k in [rng.randrange(10**12) for _ in range(10_000)] + [10**12 - 1]:
            assert [_bits(v) for v in _radical_inverses(base, k, k + 1)] == [_bits(_reference_halton(k, base))]

    @pytest.mark.parametrize("n", [1, 300, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 999, 99_999, -1])
    @pytest.mark.parametrize("bound", [1.0, 0.3, 7.5])
    def test_probe_set(self, n, seed, bound):
        _assert_probe_set_matches(n, seed, bound)


def _assert_probe_set_matches(n, seed, bound):
    """The grid, scanned as one product, and then the Halton chunks are the
    reference probe set, bit for bit."""
    chunks = list(classes._probe_columns(n, seed, 0.0, bound))
    assert all(len(xs) == len(ys) == len(ts) == classes._CHUNK for xs, ys, ts in chunks[:-1])
    probes = itertools.chain(zip(*classes._grid(0.0, bound)[1:]),
                             (p for xs, ys, ts in chunks for p in zip(xs, ys, ts)))
    got = [tuple(map(_bits, p)) for p in probes]
    expected = [tuple(map(_bits, p)) for p in _reference_probe_set(n, seed, 0.0, bound)]
    assert got == expected


def _tables_built():
    return classes._fold_table.cache_info().currsize


# the seed whose first Halton index lies less than a chunk below the end of
# the base-5 fold table (5^6), so that its first chunk holds the table's last
# entries and the first indices past it
_STRADDLING_SEED = (len(classes._fold_table(5)[0]) - 53) // 7


def _first_index(seed):
    return (seed % 100_000) * 7 + 1


@pytest.mark.usefixtures("cold_fold_tables")
class TestProbeTable:
    """The Halton coordinates read from the process-wide fold tables are the
    reference's, whichever scans built the tables."""

    @pytest.mark.parametrize("n, seed", [(1, 0), (300, 1), (4000, 999)])
    def test_a_cold_and_a_warm_table_give_the_same_columns(self, n, seed):
        assert _tables_built() == 0
        cold = list(classes._probe_columns(n, seed, 0.0, 1.0))
        assert _tables_built() == 3
        assert list(classes._probe_columns(n, seed, 0.0, 1.0)) == cold
        _assert_probe_set_matches(n, seed, 1.0)

    @pytest.mark.parametrize("bound", [1.0, 7.5])
    @pytest.mark.parametrize("seed, n", [(_STRADDLING_SEED, 300), (99_999, 300), (-1, 4000)])
    def test_chunks_across_and_past_the_end_of_the_table(self, seed, n, bound):
        offset, end = _first_index(seed), len(classes._fold_table(5)[0])
        assert (offset < end < offset + classes._CHUNK) == (seed == _STRADDLING_SEED)
        _assert_probe_set_matches(n, seed, bound)
        # the same chunks again, from the tables that the first call built
        _assert_probe_set_matches(n, seed, bound)

    @pytest.mark.parametrize("requests", [
        [(300, 0), (10_000, 0), (300, 0), (50, 700)],
        [(10_000, 0), (300, 0), (50, 700), (1, 2)],
        [(50, 700), (1, 0), (5000, 100), (128, 2000)],
    ], ids=["small, large, small", "large, then small", "growing"])
    def test_small_and_large_requests_in_any_order(self, requests):
        for n, seed in requests:
            _assert_probe_set_matches(n, seed, 0.3)

    def test_the_default_and_benchmark_sizes_lie_inside_every_table(self):
        # the library defaults at seed 0, and the largest membership job of
        # the benchmark (a seed below 1000, n at most 4000), read every
        # coordinate as a slice of a table
        stops = [_first_index(0) + classes.DEFAULT_CERTIFY_N,
                 _first_index(0) + classes.DEFAULT_FALSIFY_BUDGET // 2,
                 _first_index(999) + 4000]
        assert max(stops) == 10_994
        for base in (2, 3, 5):
            assert max(stops) <= len(classes._fold_table(base)[0])

    @pytest.mark.parametrize("seed", [0, -1, 99_999, 100_000])
    def test_the_first_halton_index_is_at_least_one(self, seed):
        # index 0 alone has the radical inverse 0.0 in every base, where t
        # would lie outside (0, 1) if read from the table unclamped
        xs, ys, ts = next(classes._probe_columns(1, seed, 0.0, 1.0))
        assert xs[0] > 0.0 and ys[0] > 0.0 and 0.0 < ts[0] < 1.0
        _assert_probe_set_matches(1, seed, 1.0)

    def test_the_clamp_leaves_every_t_of_the_table_as_it_is(self):
        # why t read from the table is not clamped: every index from 1 on
        # has an inverse that the clamp does not move
        table = classes._fold_table(5)[0]
        assert len(table) == 5 ** 6
        assert 5.0 ** -6 <= min(table[1:]) and max(table) <= 1.0 - 5.0 ** -6
        assert classes._T_INTERIOR < 5.0 ** -6
        assert list(classes._clamped(table[1:])) == table[1:].tolist()

    @pytest.mark.threads
    def test_threads_that_grow_the_table_at_once_read_the_reference(self):
        # more threads than cores, switching every few microseconds, each
        # asking for more of the cold tables than the one before
        requests = [(200 * (i + 1), i % 3) for i in range(8)]
        expected = [[tuple(map(_bits, p)) for p in _reference_quasi_triples(n, seed, 0.0, 1.0)]
                    for n, seed in requests]

        def scan(i):
            n, seed = requests[i]
            got[i] = [tuple(map(_bits, p))
                      for xs, ys, ts in classes._probe_columns(n, seed, 0.0, 1.0) for p in zip(xs, ys, ts)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                classes._fold_table.cache_clear()
                got = [None] * len(requests)
                threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(requests))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert got == expected
                assert _tables_built() == 3
        finally:
            sys.setswitchinterval(interval)
        _assert_probe_set_matches(1600, 0, 1.0)

    @pytest.mark.parametrize("name", ["certify_square_hm", "falsify_bump", "falsify_sqrt"])
    def test_the_sample_reports_are_the_same_from_a_warm_table(self, name):
        path = _SCENARIOS / f"{name}.json"
        cold = dump_machine(run_scenario(normalize_scenario(load_scenario(str(path)))))
        assert _tables_built() == 3
        warm = dump_machine(run_scenario(normalize_scenario(load_scenario(str(path)))))
        assert warm == cold == (_GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# The defect probe as it was before it skipped the domain check of h and
# phi, kept as the reference the production probe must match bit for bit:
# f, h and phi are each called through their domain-checked evaluator.
# --------------------------------------------------------------------------

def _reference_defect_probe(f, spec):
    lo, hi = spec.domain
    f, h, phi, m = f._evaluator, spec.h._evaluator, spec.phi._evaluator, spec.m
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack

    def probe(x, y, t):
        px = phi(x)
        py = phi(y)
        if not (below <= px <= above and below <= py <= above):
            raise PhiRangeError(
                f"phi={spec.phi.label} escapes [0, {hi!r}]: phi({x!r})={px!r}, phi({y!r})={py!r}",
                px if not (below <= px <= above) else py,
            )
        blend = t * px + m * (1.0 - t) * py
        rhs = h(t) * f(px) + m * h(1.0 - t) * f(py)
        lhs = f(blend)
        return rhs - lhs, lhs, rhs

    return probe


def _probe_outcome(probe, x, y, t):
    """The bits of (defect, lhs, rhs), or the error's type, message and point bits."""
    try:
        return tuple(map(_bits, probe(x, y, t)))
    except Exception as exc:  # the comparison covers every error type
        return (type(exc), str(exc), _bits(exc.point))


def _domain(lo, hi, kind, slack):
    """An interval equal to [lo, hi], containing it, falling short of it at
    either end, or short of hi by a few ulps inside or past the slack."""
    width = hi - lo
    return {
        "equal": (lo, hi),
        "contains": (lo - 0.5 * width, hi + 0.5 * width),
        "short_lo": (lo + 0.1 * width, hi),
        "short_hi": (lo, hi - 0.1 * width),
        "inside_slack": (lo, hi - 0.25 * slack),
        "past_slack": (lo, hi - 4.0 * slack),
        "lo_inside_slack": (lo + 0.25 * slack, hi),
    }[kind]


DOMAIN_KINDS = ["equal", "contains", "short_lo", "short_hi", "inside_slack", "past_slack", "lo_inside_slack"]
H_FORMS = [("catalog", "power", (1.0,)), ("catalog", "power", (2.0,)), ("catalog", "constant", (0.75,)),
           ("expr", "t^2 + 1", None), ("expr", "sqrt(t)", None)]
PHI_FORMS = ["identity", "half", "square", "overshoot", "sqrt"]
F_FORMS = [("catalog", "power", (2.0,)), ("catalog", "sqrt", ()), ("catalog", "affine", (0.25, -1.5)),
           ("expr", "x^2 - ln(x + 1)", None), ("expr", "1/x", None)]


def _build(form, interval, variable):
    if form[0] == "catalog":
        return catalog(form[1], form[2], interval)
    return func_from_expr(form[1], variable, interval)


def _phi(form, bound, interval):
    if form == "identity":
        return catalog("identity", (), interval)
    if form == "half":
        return catalog("affine", (0.0, 0.5), interval)
    if form == "overshoot":  # leaves [0, bound] near its top end
        return catalog("affine", (0.0, 1.25), interval)
    if form == "sqrt":
        return func_from_expr(f"sqrt({bound!r}*u)", "u", interval)
    return func_from_expr(f"u^2/{bound!r}", "u", interval)


class TestDefectProbeMatchesReference:
    @given(
        bound=st.sampled_from([1.0, 0.5, 3.0]),
        m=st.sampled_from([1.0, 0.5, 0.999]),
        f_form=st.sampled_from(F_FORMS),
        f_kind=st.sampled_from(DOMAIN_KINDS),
        h_form=st.sampled_from(H_FORMS),
        h_kind=st.sampled_from(DOMAIN_KINDS),
        phi_form=st.sampled_from(PHI_FORMS),
        phi_kind=st.sampled_from(DOMAIN_KINDS),
        xs=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=2, max_size=2),
        t=st.one_of(st.sampled_from([1e-12, 0.5, 1.0 - 1e-12]), st.floats(1e-12, 1.0 - 1e-12)),
    )
    @settings(max_examples=600, deadline=None)
    def test_same_bits_or_same_error(self, bound, m, f_form, f_kind, h_form, h_kind, phi_form, phi_kind, xs, t):
        spec = class_spec(
            "phi_hm_convex",
            h=_build(h_form, _domain(0.0, 1.0, h_kind, domain_slack(0.0, 1.0)), "t"),
            m=m,
            phi=_phi(phi_form, bound, _domain(0.0, bound, phi_kind, domain_slack(0.0, bound))),
            bound=bound,
        )
        f = _build(f_form, _domain(0.0, bound, f_kind, domain_slack(0.0, bound)), "x")
        x, y = (min(bound * v, bound) for v in xs)
        assert _probe_outcome(classes._defect_probe(f, spec), x, y, t) == \
            _probe_outcome(_reference_defect_probe(f, spec), x, y, t)

    @pytest.mark.parametrize("f_kind", ["inside_slack", "past_slack", "lo_inside_slack"])
    @pytest.mark.parametrize("bound", [1.0, 3.0])
    def test_blend_at_the_slack(self, f_kind, bound):
        # phi = identity and x = y = bound put px, py and the blend at the
        # top end, which f's domain misses by a quarter of the slack (the
        # value is clamped) or by four slacks (an error)
        spec = class_spec("phi_hm_convex", m=1.0, bound=bound)
        f = catalog("power", (2.0,), _domain(0.0, bound, f_kind, domain_slack(0.0, bound)))
        probe, reference = classes._defect_probe(f, spec), _reference_defect_probe(f, spec)
        for x, y, t in [(bound, bound, 0.3), (0.0, bound, 1e-12), (bound, 0.0, 0.5), (0.0, 0.0, 0.5)]:
            got = _probe_outcome(probe, x, y, t)
            assert got == _probe_outcome(reference, x, y, t)
        first = _probe_outcome(probe, bound, bound, 0.3)[0]
        assert (first is EvalDomainError) == (f_kind == "past_slack")


def _report_bits(r):
    return (_bits(r.min_defect), tuple(map(_bits, r.argmin)), r.samples_ok, r.samples_skipped, r.certified)


class TestCatalogOverflowMatchesTheDsl:
    """Catalog affine and its DSL form raise alike on an overflowing value,
    so both searches skip the same probes and report the same bits."""

    @pytest.mark.parametrize("c0, c1, text", [
        (1e308, 1e308, "1e308 + 1e308*x"),
        (-1e308, -1e308, "-1e308 - 1e308*x"),
    ])
    def test_same_reports(self, c0, c1, text):
        pair = (unit("affine", c0, c1), func_from_expr(text, "x", (0.0, 1.0)))
        certified = [_report_bits(certify_sampled(f, CONVEX, n=2_000, seed=3)) for f in pair]
        assert certified[0] == certified[1]
        assert certified[0][3] > 0  # the overflowing probes are skipped
        stats = [{}, {}]
        witnesses = [falsify(f, CONVEX, budget=4_000, seed=3, stats_out=s) for f, s in zip(pair, stats)]
        assert witnesses[0] == witnesses[1]
        assert stats[0] == stats[1]
        assert witnesses[0] is None or math.isfinite(witnesses[0].defect)

    def test_defect_raises_instead_of_nan(self):
        with pytest.raises(EvalDomainError, match=r"^non-finite value inf$"):
            defect(unit("affine", 1e308, 1e308), CONVEX, 1.0, 1.0, 0.5)


# --------------------------------------------------------------------------
# Both searches as they were before the first phase was scanned column-wise,
# kept as the reference the production searches must match bit for bit:
# every probe of the tuple probe set goes through the one-probe _defect_probe.
# --------------------------------------------------------------------------

def _reference_scan(probe, probes, best=None):
    best_key = None if best is None else best[:4]
    ok = 0
    skipped = 0
    for x, y, t in probes:
        try:
            d, lhs, rhs = probe(x, y, t)
        except PhiRangeError:
            raise
        except EvalDomainError:
            skipped += 1
            continue
        ok += 1
        key = (d, x, y, t)
        if best is None or key < best_key:
            best = (d, x, y, t, lhs, rhs)
            best_key = key
    return best, ok, skipped


def _reference_certify(f, spec, n, seed, tol=classes.DEFAULT_DEFECT_TOL):
    lo, hi = spec.domain
    best, ok, skipped = _reference_scan(classes._defect_probe(f, spec), _reference_probe_set(n, seed, lo, hi))
    if best is None:
        raise EvalDomainError("every probe fell outside the domain of f", lo)
    d, x, y, t, _, _ = best
    return CertificationReport(min_defect=d, argmin=(x, y, t), samples_ok=ok, samples_skipped=skipped,
                               certified=d >= -tol)


def _reference_falsify(f, spec, budget, seed, tol=classes.DEFAULT_DEFECT_TOL, stats_out=None):
    lo, hi = spec.domain
    probe = classes._defect_probe(f, spec)
    best, ok, skipped = _reference_scan(probe, _reference_probe_set(budget // 2, seed, lo, hi))
    rng = random.Random(seed)
    per_round = max(0, budget - ok - skipped) // 20
    if best is not None and per_round > 0:
        sigma_xy, sigma_t = (hi - lo) / 4.0, 0.25
        for _ in range(20):
            bx, by, bt = best[1], best[2], best[3]
            local = (
                (min(max(bx + rng.gauss(0.0, sigma_xy), lo), hi),
                 min(max(by + rng.gauss(0.0, sigma_xy), lo), hi),
                 min(max(bt + rng.gauss(0.0, sigma_t), classes._T_INTERIOR), 1.0 - classes._T_INTERIOR))
                for _ in range(per_round)
            )
            best, cok, cskip = _reference_scan(probe, local, best)
            ok += cok
            skipped += cskip
            sigma_xy *= 0.5
            sigma_t *= 0.5
    if stats_out is not None:
        stats_out["probes_ok"] = ok
        stats_out["probes_skipped"] = skipped
    if best is None or best[0] >= -tol:
        return None
    d, x, y, t, lhs, rhs = best
    return classes.Counterexample(x=x, y=y, t=t, defect=d, lhs=lhs, rhs=rhs)


def _search_outcome(search, *args, **kwargs):
    """The bits of every float in the result, and stats_out, or the error's
    type, message and point bits."""
    stats = {}
    try:
        result = search(*args, stats_out=stats, **kwargs) if search in (falsify, _reference_falsify) \
            else search(*args, **kwargs)
    except Exception as exc:  # the comparison covers every error type
        return (type(exc), str(exc), _bits(exc.point))
    if result is None:
        return None, stats
    fields = [getattr(result, name) for name in result.__dataclass_fields__]
    flat = [v for field in fields for v in (field if isinstance(field, tuple) else (field,))]
    return type(result), [_bits(v) if isinstance(v, float) else v for v in flat], stats


# (f, spec) pairs where the column scan must fall back to the one-probe path
# for some chunks, where defects are NaN, or where f's batch form maps fn
def _scan_cases():
    chunk = classes._CHUNK
    square, convex = unit("power", 2.0), class_spec("convex")
    bump_phi = func_from_expr("u + 2*exp(-10000*(u - 0.3)^2)", "u", (0.0, 1.0))
    slack = domain_slack(0.0, 1.0)
    return {
        # n Halton triples at one chunk less, at and past a chunk, and a
        # whole probe set (grid + triples) just short of, at and past two
        **{f"n={n}": (square, convex, n) for n in (chunk - 1, chunk, chunk + 1)},
        **{f"total={2 * chunk + k}": (unit("sqrt"), convex, 2 * chunk - 245 + k) for k in (-1, 0, 1)},
        "skips mid-chunk": (func_from_expr("ln(x - 0.3)", "x", (0.0, 1.0)), convex, 600),
        "phi escapes mid-chunk": (square, class_spec("phi_convex", phi=catalog("affine", (0.0, 1.25))), 600),
        "phi escapes among the Halton triples": (square, class_spec("phi_convex", phi=bump_phi), 2_000),
        "phi escapes where f is defined": (catalog("power", (2.0,), (0.0, 2.0)),
                                           class_spec("phi_convex", phi=catalog("affine", (0.0, 1.25))), 600),
        "blend in f's slack": (catalog("power", (2.0,), (0.0, 1.0 - 0.25 * slack)), convex, 600),
        "blend past f's slack": (catalog("power", (2.0,), (0.0, 1.0 - 4.0 * slack)), convex, 600),
        "nan defects": (func_from_expr("1e10*(x - 0.5)", "x", (0.0, 1.0)),
                        class_spec("h_convex", h=func_from_expr("1e300*t", "t")), 600),
        "nan defects, m < 1": (func_from_expr("-1e12*(x - 0.3)^3", "x", (0.0, 1.0)),
                               class_spec("hm_convex", h=func_from_expr("1e300*t", "t"), m=0.7), 900),
        "combine": (combine(unit("sqrt"), func_from_expr("x^3 - x", "x"), 0.5, 2.0),
                    class_spec("m_convex", m=0.6), 700),
        "compose": (compose_phi(func_from_expr("exp(x) - 2*x", "x"), unit("power", 1.5)),
                    class_spec("phi_h_convex", h=unit("power", 0.5), phi=unit("sqrt")), 700),
        "segment": (segment(func_from_expr("x^3 - x", "x"), unit("identity"), 0.8, 0.1, 0.9).as_funcdef(),
                    class_spec("phi_hm_convex", h=func_from_expr("t^1.5", "t"), m=0.9, phi=unit("power", 2.0)),
                    700),
        "a source with no batch form": (FuncDef(Source(lambda u: u * u - 0.5 * u, "plain"), (0.0, 1.0)),
                                        convex, 400),
        # f's domain decided once per block over the range of its points
        "f narrower than the class domain": (catalog("power", (2.0,), (0.2, 1.0)), convex, 600),
        # t*0.9 + fl(1 - t)*0.9 rounds above 0.9 at some t, into f's slack
        "blends overshoot by rounding": (catalog("power", (2.0,), (0.0, 0.9)),
                                         class_spec("phi_convex", phi=catalog("constant", (0.9,), (0.0, 0.9)),
                                                    bound=0.9), 600),
        # with m < 1 the blends fall below phi's images, which f's domain holds
        "blends below f's domain": (catalog("power", (2.0,), (0.5, 1.0)),
                                    class_spec("phi_hm_convex", m=0.5, phi=catalog("affine", (0.5, 0.5))),
                                    600),
        "phi images in the slack, inside f's domain": (
            catalog("power", (2.0,), (0.0, 2.0)), class_spec("phi_convex", phi=_constant_phi(1.0 + 0.5 * slack)),
            600),
        "phi images in the slack, past f's domain": (
            square, class_spec("phi_convex", phi=_constant_phi(1.0 + 0.5 * slack)), 600),
        "phi images past the slack": (
            catalog("power", (2.0,), (0.0, 2.0)), class_spec("phi_convex", phi=_constant_phi(1.0 + 2.0 * slack)),
            600),
        "phi gives a NaN": (square, class_spec("phi_convex", phi=FuncDef(
            Source(lambda u: math.nan if 0.3 < u < 0.31 else u, "NaN on (0.3, 0.31)"), (0.0, 1.0))), 600),
    }


def _constant_phi(c):
    return catalog("constant", (c,), (0.0, 1.0))


SCAN_CASES = _scan_cases()


def _columns_agree(columns, probe, xs, ys, ts):
    """The columns give the probe's (defect, lhs, rhs) bits at every probe,
    or raise one of BATCH_ERRORS, as they must where the probe raises."""
    expected = [_probe_outcome(probe, x, y, t) for x, y, t in zip(xs, ys, ts)]
    try:
        got = columns(xs, ys, ts)
    except BATCH_ERRORS:
        return
    assert [tuple(map(_bits, r)) for r in zip(*got)] == expected


class TestColumnScanMatchesReference:
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_certify(self, case, seed):
        f, spec, n = SCAN_CASES[case]
        assert _search_outcome(certify_sampled, f, spec, n=n, seed=seed) == \
            _search_outcome(_reference_certify, f, spec, n=n, seed=seed)

    @pytest.mark.parametrize("case", list(SCAN_CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_falsify(self, case, seed):
        f, spec, n = SCAN_CASES[case]
        for budget in (2 * n, 2 * n + 1, 4 * n):
            assert _search_outcome(falsify, f, spec, budget=budget, seed=seed) == \
                _search_outcome(_reference_falsify, f, spec, budget=budget, seed=seed)

    def test_the_cases_reach_what_they_name(self):
        f, spec, n = SCAN_CASES["skips mid-chunk"]
        assert 0 < certify_sampled(f, spec, n=n).samples_skipped
        for case in ("phi escapes mid-chunk", "phi escapes among the Halton triples",
                     "phi escapes where f is defined"):
            f, spec, n = SCAN_CASES[case]
            with pytest.raises(PhiRangeError) as err:
                certify_sampled(f, spec, n=n)
            assert err.value.point > 1.0
        f, spec, n = SCAN_CASES["nan defects"]
        for xs, ys, ts in itertools.islice(classes._probe_columns(n, 0, 0.0, 1.0), 2):
            defects = classes._defect_columns(f, spec)(xs, ys, ts)[0]
            assert any(math.isnan(d) for d in defects) and not all(math.isnan(d) for d in defects)

    @pytest.mark.parametrize("case", ["skips mid-chunk", "blend in f's slack", "blend past f's slack",
                                      "f narrower than the class domain", "blends overshoot by rounding",
                                      "phi images in the slack, past f's domain"])
    def test_the_fallback_cases_reach_the_one_probe_scan(self, case, monkeypatch):
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        f, spec, n = SCAN_CASES[case]
        certify_sampled(f, spec, n=n)
        assert calls

    def test_the_range_cases_reach_what_they_name(self, monkeypatch):
        # where the range of a column lies past f's domain, f's checked batch
        # form refuses the block and the probe clamps or skips its points;
        # where f's domain holds the range, the column path takes it
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        for case in ("f narrower than the class domain", "blends below f's domain"):
            f, spec, n = SCAN_CASES[case]
            assert 0 < certify_sampled(f, spec, n=n).samples_skipped
        for case in ("blends overshoot by rounding", "phi images in the slack, past f's domain"):
            f, spec, n = SCAN_CASES[case]
            assert certify_sampled(f, spec, n=n).samples_skipped == 0
        f, spec, n = SCAN_CASES["blends overshoot by rounding"]
        assert any(t * 0.9 + (1.0 - t) * 0.9 > 0.9
                   for _, _, ts in classes._probe_columns(n, 0, 0.0, 0.9) for t in ts)
        calls.clear()
        f, spec, n = SCAN_CASES["phi images in the slack, inside f's domain"]
        assert spec.phi(0.5) > 1.0
        assert certify_sampled(f, spec, n=n).samples_ok == 245 + n and calls == []
        f, spec, n = SCAN_CASES["phi images past the slack"]
        with pytest.raises(PhiRangeError) as err:
            certify_sampled(f, spec, n=n)
        assert err.value.point == spec.phi(0.5) > 1.0 + domain_slack(0.0, 1.0)
        f, spec, n = SCAN_CASES["phi gives a NaN"]
        with pytest.raises(PhiRangeError) as err:
            certify_sampled(f, spec, n=n)
        assert math.isnan(err.value.point)
        assert classes._scan_columns(f, spec, classes._defect_probe(f, spec), 0, 0)[1] == 245

    def test_the_grid_is_built_once_per_domain(self):
        classes._grids.cache_clear()
        for bound in (1.0, 0.9, 1.0, 0.9):
            f, spec = catalog("power", (2.0,), (0.0, bound)), class_spec("convex", bound=bound)
            certify_sampled(f, spec, n=10)
            falsify(f, spec, budget=600)
        assert classes._grids.cache_info().misses == 2
        # the key tells the zeros apart, and no caller can change the lists
        assert classes._grid(-0.0, 1.0) == classes._grid(0.0, 1.0)
        assert classes._grids.cache_info().misses == 3
        assert all(type(column) is tuple for column in classes._grid(0.0, 1.0))

    def test_a_chunk_that_the_batch_forms_refuse_is_scanned_by_the_probe_once(self, monkeypatch):
        # f's batch form refuses the second chunk alone (its 2 * 488 images
        # and 488 blends), so that chunk, and no other block, goes through
        # _scan, with the first chunk's incumbent; the report is the
        # reference's, bit for bit
        poly = catalog("poly", (0.1, -0.5, 1.0, 0.8))

        def batch(us):
            if len(us) == 3 * 488:
                raise classes._NeedsScalar
            return poly.source.batch(us)

        f = FuncDef(Source(poly.source.fn, "f", _batch=batch), poly.domain)
        spec = class_spec("hm_convex", h=unit("power", 0.5), m=0.5)
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan",
                            lambda *args: calls.append(args[2] is not None) or scan(*args))
        assert _search_outcome(certify_sampled, f, spec, n=1_000, seed=3) == \
            _search_outcome(_reference_certify, f, spec, n=1_000, seed=3)
        assert calls == [True]

    def test_a_source_with_no_batch_form_is_scanned_by_columns(self, monkeypatch):
        # its default batch form maps fn over the points, so every chunk takes
        # the column path and the report is the reference's, bit for bit
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        f, spec, n = SCAN_CASES["a source with no batch form"]
        assert _search_outcome(certify_sampled, f, spec, n=n, seed=3) == \
            _search_outcome(_reference_certify, f, spec, n=n, seed=3)
        assert calls == []

    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_columns_match_the_probe_at_every_probe(self, case):
        f, spec, n = SCAN_CASES[case]
        columns, probe = classes._defect_columns(f, spec), classes._defect_probe(f, spec)
        for xs, ys, ts in classes._probe_columns(n, 5, 0.0, 1.0):
            _columns_agree(columns, probe, xs, ys, ts)

    @given(
        m=st.sampled_from([1.0, 0.5, 0.999, 0.3]),
        f_form=st.sampled_from(F_FORMS),
        f_kind=st.sampled_from(DOMAIN_KINDS),
        h_form=st.sampled_from(H_FORMS),
        h_kind=st.sampled_from(DOMAIN_KINDS),
        phi_form=st.sampled_from(PHI_FORMS),
        triples=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                   st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                   st.one_of(st.sampled_from([1e-12, 0.5, 1.0 - 1e-12]),
                                             st.floats(1e-12, 1.0 - 1e-12))), min_size=1, max_size=8),
    )
    @settings(max_examples=400, deadline=None)
    def test_columns_match_the_probe(self, m, f_form, f_kind, h_form, h_kind, phi_form, triples):
        spec = class_spec("phi_hm_convex", h=_build(h_form, _domain(0.0, 1.0, h_kind, domain_slack(0.0, 1.0)), "t"),
                          m=m, phi=_phi(phi_form, 1.0, (0.0, 1.0)))
        f = _build(f_form, _domain(0.0, 1.0, f_kind, domain_slack(0.0, 1.0)), "x")
        xs, ys, ts = map(list, zip(*triples))
        _columns_agree(classes._defect_columns(f, spec), classes._defect_probe(f, spec), xs, ys, ts)

    def test_the_column_path_is_taken(self, monkeypatch):
        # an ordinary function scans every chunk column-wise: the one-probe
        # scan runs only for falsify's refinement rounds
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        report = certify_sampled(unit("sqrt"), class_spec("hm_convex", h=unit("power", 0.5), m=0.5),
                                 n=1_000, seed=3)
        assert report.samples_ok == 245 + 1_000 and calls == []
        falsify(unit("sqrt"), CONVEX, budget=2_000, seed=3)
        assert len(calls) == 20


class TestChunkSize:
    """The chunk size decides how the Halton triples are batched, never what
    the searches return."""

    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_results_do_not_depend_on_the_chunk_size(self, case, monkeypatch):
        f, spec, n = SCAN_CASES[case]
        outcomes = []
        for chunk in (1, 7, 128, classes._CHUNK):
            monkeypatch.setattr(classes, "_CHUNK", chunk)
            outcomes.append((_search_outcome(certify_sampled, f, spec, n=n, seed=7),
                             _search_outcome(falsify, f, spec, budget=2 * n + 1, seed=7)))
        assert outcomes == [outcomes[0]] * 4

    def test_a_default_certify_calls_f_once_per_chunk_and_never_per_probe(self):
        # the grid's 7 images and 245 blends, then each chunk's 2n images and
        # n blends in one call; a chunk that slid into the one-probe path
        # would call fn
        poly = catalog("poly", (0.1, -0.5, 1.0, 0.8))
        batches, scalars = [], []
        f = FuncDef(Source(lambda u: scalars.append(u) or poly.source.fn(u), "f",
                           _batch=lambda us: batches.append(len(us)) or poly.source.batch(us)), poly.domain)
        report = certify_sampled(f, class_spec("phi_hm_convex", h=unit("power", 0.7), m=0.8,
                                               phi=unit("power", 1.5)))
        assert report.samples_ok == 245 + classes.DEFAULT_CERTIFY_N
        assert batches == [7, 245] + [3 * 512] * 19 + [3 * 272]
        assert scalars == []


# --------------------------------------------------------------------------
# The boundary grid, scanned as a product, against the one-probe scan of it
# --------------------------------------------------------------------------

def _scan_outcome(scan, *args):
    """The bits of the incumbent and the counts, or the error's type,
    message and point bits."""
    try:
        best, ok, skipped = scan(*args)
    except Exception as exc:  # the comparison covers every error type
        return type(exc), str(exc), _bits(exc.point)
    return None if best is None else tuple(map(_bits, best)), ok, skipped


_F_ANY_TAG = func_from_expr("exp(x) - 3*x^2 + 0.5*x", "x", (0.0, 1.0))
TAG_CASES = {
    "convex": class_spec("convex"),
    "m_convex": class_spec("m_convex", m=0.6),
    "h_convex": class_spec("h_convex", h=func_from_expr("t^0.5", "t")),
    "hm_convex": class_spec("hm_convex", h=func_from_expr("t^1.5", "t"), m=0.8),
    "phi_convex": class_spec("phi_convex", phi=unit("power", 2.0)),
    "phi_h_convex": class_spec("phi_h_convex", h=unit("sqrt"), phi=unit("sqrt")),
    "phi_hm_convex": class_spec("phi_hm_convex", h=func_from_expr("t^0.7", "t"), m=0.9,
                                phi=unit("power", 1.5)),
}
assert set(TAG_CASES) == set(classes.CLASS_TAGS)
# (f, spec, what the one-probe scan of the grid gives: its error, or its
# counts of probes evaluated and skipped)
GRID_CASES = {
    "phi escapes at a grid point": (
        SQUARE, class_spec("phi_convex", phi=catalog("affine", (0.0, 1.25))),
        (PhiRangeError, "phi=affine(0.0,1.25) escapes [0, 1.0]: phi(0.0)=0.0, phi(0.875)=1.09375", 1.09375)),
    # ln(0) at x = 0 or y = 0
    "f raises at a grid point": (func_from_expr("ln(x)", "x", (0.0, 1.0)), CONVEX, (245 - 65, 65)),
    # division by zero where the blend is 0.0625, and at no grid point
    "f raises only at a blend": (func_from_expr("1/(x - 0.0625)", "x", (0.0, 1.0)), CONVEX, (241, 4)),
}


class TestGridProductMatchesTheOneProbeScan:
    @pytest.mark.parametrize("case", [*SCAN_CASES, *TAG_CASES, *GRID_CASES])
    def test_result_counts_and_error(self, case):
        if case in SCAN_CASES:
            f, spec, _ = SCAN_CASES[case]
        elif case in TAG_CASES:
            f, spec = _F_ANY_TAG, TAG_CASES[case]
        else:
            f, spec, _ = GRID_CASES[case]
        probe = classes._defect_probe(f, spec)
        # no Halton triple: the first phase is the grid alone
        assert _scan_outcome(classes._scan_columns, f, spec, probe, 0, 0) == \
            _scan_outcome(_reference_scan, probe, _reference_grid(*spec.domain))

    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_the_pinned_cases_reach_what_they_name(self, case, monkeypatch):
        f, spec, expected = GRID_CASES[case]
        with pytest.raises(BATCH_ERRORS):
            classes._grid_columns(f, spec)(*classes._grid(*spec.domain)[1:])
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        outcome = _scan_outcome(classes._scan_columns, f, spec, classes._defect_probe(f, spec), 0, 0)
        assert calls == [1]
        if expected[0] is PhiRangeError:
            assert outcome == (PhiRangeError, expected[1], _bits(expected[2]))
        else:
            assert outcome[1:] == expected
        if case == "f raises only at a blend":
            assert all(math.isfinite(f(x)) for x in classes._grid(0.0, 1.0)[0])

    @pytest.mark.parametrize("tag", list(TAG_CASES))
    def test_the_product_path_is_taken(self, tag, monkeypatch):
        calls = []
        scan = classes._scan
        monkeypatch.setattr(classes, "_scan", lambda *args: calls.append(1) or scan(*args))
        spec = TAG_CASES[tag]
        best, ok, skipped = classes._scan_columns(_F_ANY_TAG, spec, classes._defect_probe(_F_ANY_TAG, spec), 0, 0)
        assert (ok, skipped, calls) == (245, 0, [])

    def test_each_function_is_evaluated_once_per_value(self):
        # phi at the 7 points, h at the 5 t and 5 fl(1 - t), f at the 7
        # images and then at the 245 blends
        sizes = {"f": [], "h": [], "phi": []}

        def recorded(role, g):
            source = g.source
            return FuncDef(Source(source.fn, role, _batch=lambda us: sizes[role].append(len(us))
                                  or source.batch(us)), g.domain)

        f = recorded("f", _F_ANY_TAG)
        spec = class_spec("phi_hm_convex", h=recorded("h", func_from_expr("t^0.7", "t")), m=0.9,
                          phi=recorded("phi", unit("power", 1.5)))
        d, lhs, rhs = classes._grid_columns(f, spec)(*classes._grid(*spec.domain)[1:])
        assert sizes == {"f": [7, 245], "h": [10], "phi": [7]}
        assert len(d) == len(lhs) == len(rhs) == 245


# --------------------------------------------------------------------------
# falsify's refinement rounds: the Gaussian draws taken a block at a time,
# and the one-probe scan's incumbent order
# --------------------------------------------------------------------------

# negative seeds, and seeds past 2**32, which random.Random seeds by more
# than one 32-bit word
GAUSS_SEEDS = [*range(-30, 270), *(2**32 + k for k in range(-3, 7)), 2**64 + 5, -(2**40), 10**30]
assert len(set(GAUSS_SEEDS)) >= 300


def _gauss_hex(rng, count):
    return [rng.gauss(0.0, 1.0).hex() for _ in range(count)]


class TestGaussiansMatchTheStdlib:
    """The draws are random.gauss's on the running Python, bit for bit."""

    @pytest.mark.parametrize("count", [1, 2, 3, 15, 300, 1203])
    def test_a_fresh_generator(self, count):
        for seed in GAUSS_SEEDS:
            got = classes._gaussians(random.Random(seed), count)
            assert [z.hex() for z in got] == _gauss_hex(random.Random(seed), count), seed

    def test_the_block_is_even(self):
        # an odd block would leave a sine drawn and dropped between blocks
        assert classes._GAUSS_BLOCK % 2 == 0


def _recorded_gaussians(monkeypatch, events):
    """Record each block of draws that falsify takes, and each round's scan,
    in the order they happen."""
    gaussians, scan = classes._gaussians, classes._scan

    def recorded(rng, count):
        zs = gaussians(rng, count)
        events.append(("draws", zs))
        return zs

    monkeypatch.setattr(classes, "_gaussians", recorded)
    monkeypatch.setattr(classes, "_scan", lambda *args: events.append(("scan", args[1])) or scan(*args))


def _drawn(events):
    return [zs for kind, zs in events if kind == "draws"]


class TestRefinementRounds:
    """falsify at round sizes that the scan cases do not reach, against the
    reference's rng.gauss draws and min(max()) clamps."""

    @pytest.mark.parametrize("case", ["skips mid-chunk", "compose", "nan defects, m < 1"])
    def test_default_and_odd_budgets(self, case, monkeypatch):
        events = []
        _recorded_gaussians(monkeypatch, events)
        f, spec, n = SCAN_CASES[case]
        for budget in (classes.DEFAULT_FALSIFY_BUDGET, 10 * n + 3):
            events.clear()
            assert _search_outcome(falsify, f, spec, budget=budget, seed=5) == \
                _search_outcome(_reference_falsify, f, spec, budget=budget, seed=5)
            if budget == classes.DEFAULT_FALSIFY_BUDGET:
                # 487 probes per round: 29 220 normals, in eight blocks
                assert [len(zs) for zs in _drawn(events)] == [4096] * 7 + [29_220 - 7 * 4096]

    @pytest.mark.parametrize("block", [2, 4, 6])
    def test_the_blocked_stream_across_block_boundaries(self, block, monkeypatch):
        # 21 draws per round, which the blocks split mid-probe and mid-round;
        # their concatenation is rng.gauss's stream
        monkeypatch.setattr(classes, "_GAUSS_BLOCK", block)
        events = []
        _recorded_gaussians(monkeypatch, events)
        # phase one takes the grid and budget // 2 triples; the rest is 20
        # rounds of 7 probes
        budget = 2 * (245 + 20 * 7)
        for case in ("skips mid-chunk", "compose", "nan defects, m < 1"):
            f, spec, _ = SCAN_CASES[case]
            for seed in (7, -3, 2**32 + 1):
                events.clear()
                assert _search_outcome(falsify, f, spec, budget=budget, seed=seed) == \
                    _search_outcome(_reference_falsify, f, spec, budget=budget, seed=seed)
                assert all(len(zs) <= block for zs in _drawn(events))
                drawn = [z.hex() for zs in _drawn(events) for z in zs]
                assert drawn == _gauss_hex(random.Random(seed), 3 * 7 * 20)

    def test_no_call_holds_more_draws_than_a_block(self, monkeypatch):
        # each round draws its 3 * 4 987 normals as it reaches them: before
        # a round's scan, no block past the one that round ends in is drawn
        events = []
        _recorded_gaussians(monkeypatch, events)
        stats = {}
        falsify(SQUARE, CONVEX, budget=200_000, seed=1, stats_out=stats)
        per_round, block = (200_000 - 100_000 - 245) // 20, classes._GAUSS_BLOCK
        sizes = [len(zs) for zs in _drawn(events)]
        assert sum(sizes) == 60 * per_round and max(sizes) == block
        drawn, rounds = 0, 0
        for kind, zs in events:
            if kind == "draws":
                drawn += len(zs)
            else:
                rounds += 1
                assert 3 * per_round * rounds <= drawn < 3 * per_round * rounds + block
        assert rounds == 20
        assert stats["probes_ok"] + stats["probes_skipped"] == 100_245 + 20 * per_round


def _crafted_probe(table):
    """A probe read from a dict of (x, y, t) -> (defect, lhs, rhs); a triple
    mapped to None is skipped as outside f's domain."""
    def probe(x, y, t):
        row = table[(x, y, t)]
        if row is None:
            raise EvalDomainError("crafted skip", x)
        return row
    return probe


_NAN = math.nan  # one NaN object, met as itself by the tuple comparison


def _rows(*defects):
    """Probes at descending triples, so that an equal defect must go to the
    later probe."""
    return [((0.5 - 0.01 * k, 0.25, 0.5), None if d is None else (d, 1.0 + k, 2.0 + k))
            for k, d in enumerate(defects)]


SCAN_ORDER_CASES = {
    "equal defects at different triples": _rows(-1.0, -1.0, 0.5, -1.0),
    "equal defects, ascending triples": list(reversed(_rows(-1.0, -1.0, -1.0))),
    "-0.0 then 0.0": _rows(-0.0, 0.0, 0.0, -0.0),
    "0.0 then -0.0": _rows(0.0, -0.0),
    "nan first": _rows(float("nan"), -1.0, -2.0),
    "nan in the middle": _rows(1.0, float("nan"), -1.0, float("nan"), 2.0),
    "nan last": _rows(1.0, -1.0, float("nan")),
    "one nan object twice": _rows(_NAN, 1.0, _NAN),
    "inf and -inf": _rows(math.inf, -math.inf, -math.inf, math.inf),
    "skipped probes": _rows(None, 2.0, None, -1.0, None, -1.0, None),
    "every probe skipped": _rows(None, None),
}
SCAN_INCUMBENTS = {
    "no incumbent": None,
    "a worse incumbent": (3.0, 0.1, 0.1, 0.1, 0.0, 3.0),
    "an equal defect at a smaller triple": (-1.0, 0.0, 0.0, 0.5, 0.0, 0.0),
    "an equal defect at a larger triple": (-1.0, 0.9, 0.9, 0.5, 0.0, 0.0),
    "an incumbent at 0.0": (0.0, 0.45, 0.25, 0.5, 0.0, 0.0),
    "a nan incumbent": (float("nan"), 0.45, 0.25, 0.5, 0.0, 0.0),
    "the nan object as incumbent": (_NAN, 0.9, 0.9, 0.9, 0.0, 0.0),
    "a better incumbent": (-5.0, 0.9, 0.9, 0.5, 0.0, 0.0),
}


class TestScanIncumbentOrder:
    """_scan keeps the incumbent that the tuple key (defect, x, y, t) of the
    reference keeps, for every defect a float can be."""

    @pytest.mark.parametrize("incumbent", list(SCAN_INCUMBENTS))
    @pytest.mark.parametrize("case", list(SCAN_ORDER_CASES))
    def test_crafted_probes(self, case, incumbent):
        rows, best = SCAN_ORDER_CASES[case], SCAN_INCUMBENTS[incumbent]
        probe, probes = _crafted_probe(dict(rows)), [triple for triple, _ in rows]
        assert _scan_outcome(classes._scan, probe, probes, best) == \
            _scan_outcome(_reference_scan, probe, probes, best)

    def test_the_cases_tell_the_triples_apart(self):
        # a scan that compares defects alone keeps the first of equal
        # defects; the reference takes the smaller triple
        rows = SCAN_ORDER_CASES["equal defects at different triples"]
        best = _reference_scan(_crafted_probe(dict(rows)), [triple for triple, _ in rows])[0]
        assert best[1:4] == rows[3][0] != rows[0][0]

    @given(
        defects=st.lists(st.one_of(st.none(), st.just(_NAN), st.sampled_from([-0.0, 0.0, -1.0, 1.0]),
                                   st.floats(allow_nan=True)), min_size=1, max_size=12),
        xs=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=12, max_size=12),
        incumbent=st.sampled_from(list(SCAN_INCUMBENTS.values())),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_defects(self, defects, xs, incumbent):
        # triples repeat where their x coincide (0.0 and -0.0 count alike as
        # keys), so a later probe of the table answers for both
        rows = [((x, 0.5, 0.5 - 0.01 * k), None if d is None else (d, 0.0, 0.0))
                for k, (d, x) in enumerate(zip(defects, xs))]
        probe, probes = _crafted_probe(dict(rows)), [triple for triple, _ in rows]
        assert _scan_outcome(classes._scan, probe, probes, incumbent) == \
            _scan_outcome(_reference_scan, probe, probes, incumbent)
