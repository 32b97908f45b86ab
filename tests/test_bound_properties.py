"""Properties that join the bound table to the class definitions.

Each test holds for every correct row of ``theorems.BOUNDS`` and fails for
a row with a wrong coefficient or a broken homogeneity:

- scaling f by c > 0 scales lhs, rhs and margin by c (by c^2 for the
  reflected-product bounds T2_1 and T1_13);
- swapping f and g leaves the product bounds T2_3 and T1_14 unchanged;
- affine f with h(t) = t and m = 1 makes the upper side of T2_2dot, T2_2,
  HC, T1_9 and T1_11 an equality;
- f = x^p (p >= 1) is (h, m)-convex for h = t^s (s <= 1) and m in (0, 1],
  so every main bound must pass on it and ``certify_sampled`` must certify
  it.
"""

import itertools

import pytest

from genconvex.algebra import combine
from genconvex.classes import certify_sampled, class_spec
from genconvex.errors import OrientationError
from genconvex.funcdsl import catalog, func_from_expr
from genconvex.theorems import BACKGROUND_IDS, DEFAULT_REPORT_TOL, MAIN_IDS, verify

UNIT = (0.0, 1.0)
IDENT = catalog("identity", (), UNIT)
SQUARE_PLUS_ONE = catalog("poly", (1.0, 0.0, 1.0), UNIT)
EXP = func_from_expr("exp(x)", "x", UNIT)
H_ROOT = catalog("power", (0.5,), UNIT)

QUADRATIC_IN_F = ("T2_1", "T1_13")


def _verify(theorem_id, f, g, h, m, x, y):
    return verify(theorem_id, f, g=g, h=h, m=m, x=x, y=y)


# --------------------------------------------------------------------------
# Scaling
# --------------------------------------------------------------------------

@pytest.mark.parametrize("theorem_id", MAIN_IDS + BACKGROUND_IDS)
@pytest.mark.parametrize("c", (0.5, 2.0, 3.0, 10.0))
@pytest.mark.parametrize("f, g, h", [(SQUARE_PLUS_ONE, EXP, IDENT), (EXP, SQUARE_PLUS_ONE, H_ROOT)])
def test_scaling_f_scales_every_side(theorem_id, c, f, g, h):
    power = 2 if theorem_id in QUADRATIC_IN_F else 1
    base = _verify(theorem_id, f, g, h, 0.7, 0.1, 0.9)
    scaled = _verify(theorem_id, combine(f, f, c, 0.0), g, h, 0.7, 0.1, 0.9)
    assert base.status == scaled.status
    factor = c ** power
    for side in ("lhs", "rhs", "margin"):
        expected = factor * getattr(base, side)
        allowance = scaled.quad_err + factor * base.quad_err + 1e-12 * abs(expected)
        assert abs(getattr(scaled, side) - expected) <= allowance, side


# --------------------------------------------------------------------------
# Symmetry
# --------------------------------------------------------------------------

@pytest.mark.parametrize("theorem_id", ("T2_3", "T1_14"))
@pytest.mark.parametrize("m", (1.0, 0.6))
def test_swapping_f_and_g_changes_nothing(theorem_id, m):
    one = _verify(theorem_id, SQUARE_PLUS_ONE, EXP, H_ROOT, m, 0.1, 0.9)
    other = _verify(theorem_id, EXP, SQUARE_PLUS_ONE, H_ROOT, m, 0.1, 0.9)
    for side in ("lhs", "rhs", "margin", "quad_err"):
        assert getattr(one, side) == getattr(other, side), side
    assert (one.inputs["M"], one.inputs["N"]) == (other.inputs["M"], other.inputs["N"])


# --------------------------------------------------------------------------
# Equality cases
# --------------------------------------------------------------------------

AFFINE = [catalog("affine", coeffs, UNIT) for coeffs in ((0.0, 1.0), (1.0, -0.5), (-2.0, 3.0))]
INTERVALS = ((0.0, 1.0), (0.1, 0.9), (0.25, 0.6))


@pytest.mark.parametrize("theorem_id", ("T2_2dot", "T2_2", "HC", "T1_9", "T1_11"))
@pytest.mark.parametrize("f", AFFINE, ids=lambda f: f.label)
@pytest.mark.parametrize("x, y", INTERVALS)
def test_affine_f_makes_the_upper_side_tight(theorem_id, f, x, y):
    v = _verify(theorem_id, f, None, IDENT, 1.0, x, y)
    margin = v.margin_upper if v.margin_upper is not None else v.margin
    assert abs(margin) <= v.quad_err + DEFAULT_REPORT_TOL


# --------------------------------------------------------------------------
# Members must pass
# --------------------------------------------------------------------------

EXPONENTS = (1.0, 1.5, 2.0, 3.0)
WEIGHT_EXPONENTS = (1.0, 0.5, 0.0, -0.3)
MODULI = (1.0, 0.8, 0.5, 0.2)
PAIRS = ((0.0, 1.0), (0.1, 0.9), (0.05, 0.5), (0.3, 0.8))


@pytest.mark.parametrize("p, s, m", itertools.product(EXPONENTS, WEIGHT_EXPONENTS, MODULI))
def test_members_pass_every_main_bound(p, s, m):
    f = catalog("power", (p,), UNIT)
    h = catalog("power", (s,), UNIT)
    for (x, y), theorem_id in itertools.product(PAIRS, MAIN_IDS):
        if x >= m * y:
            with pytest.raises(OrientationError):
                _verify(theorem_id, f, IDENT, h, m, x, y)
            continue
        v = _verify(theorem_id, f, IDENT, h, m, x, y)
        assert v.status == "pass", (theorem_id, x, y, v)
    assert certify_sampled(f, class_spec("hm_convex", h=h, m=m), n=300).certified

