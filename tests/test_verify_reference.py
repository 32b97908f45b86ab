"""``theorems._verify`` against the evaluator as it was first written.

``_reference_verify`` below is that evaluator, kept here as the reference
the production one must match field by field and bit for bit: floats are
compared by ``float.hex``, so a -0.0 where the reference has 0.0 fails, and
NaN matches NaN.  A precondition that fails must raise the same type with
the same message.  The cases cover every row of ``BOUNDS``, phi given and
left to its default, signed-zero ends, tables shared by a run of cells (as
in a sweep) and by a reduction probe's two rows, indeterminate verdicts
from an f that raises at an end or inside an integral and from a weight
that cannot be integrated, and one bound verifier (``_bound_verifier``, as
a sweep binds it) run over many cells.
"""

import dataclasses
import functools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from genconvex import theorems
from genconvex.algebra import check_modulus
from genconvex.errors import (
    CatalogError, EvalDomainError, IntegrandError, OrientationError, WeightError,
)
from genconvex.funcdsl import catalog, func_from_expr, identity_on
from genconvex.quad import DEFAULT_BUDGET, DEFAULT_TOL, _check_budget, _moments, integrate
from genconvex.theorems import BOUNDS, DEFAULT_REPORT_TOL, REDUCTIONS, Verdict

UNIT = (0.0, 1.0)


# --------------------------------------------------------------------------
# The reference: the evaluator with the namespace of its inputs, the sums
# as reductions over generators, and the moments asked of the memo in
# every call.
# --------------------------------------------------------------------------

def _reference_sum(values):
    return functools.reduce(operator.add, values)


def _reference_verify(theorem_id, f, g, h, m, phi, x, y, quad_tol, report_tol, budget, table):
    bound = BOUNDS.get(theorem_id)
    if bound is None:
        raise ValueError(f"unknown theorem id '{theorem_id}'")
    if not (report_tol >= 0.0):
        raise ValueError(f"report_tol must be nonnegative, got {report_tol!r}")
    _check_budget(budget)
    functions = {"f": f, "g": g, "h": h}
    for role in bound.roles:
        if functions[role] is None:
            raise ValueError(f"this theorem needs the function '{role}'")
    if "m" in bound.inputs:
        check_modulus(m)
    if "phi" in bound.inputs:
        if phi is None:
            phi = identity_on(f.domain)
        px, py = phi(x), phi(y)
    else:
        px, py = x, y
    for check in bound.checks:
        check(h, m, px, py)
    given_ = {**functions, "phi": phi, "m": m, "x": x, "y": y, "a": x, "b": y}
    inputs = {key: given_[key].label if key in ("f", "g", "h", "phi") else given_[key]
              for key in bound.inputs}

    try:
        lower = None if bound.lower is None else bound.lower(f, h, px, py)
        fx, fy = f(px), f(py)
        gx, gy = (g(px), g(py)) if "g" in bound.roles else (None, None)
        integrals = []
        for kind, lo, hi in bound.integrals(m, px, py):
            key = (kind, lo, hi, math.copysign(1.0, lo), math.copysign(1.0, hi))
            if key not in table:
                table[key] = integrate(kind(f, g, lo, hi), lo, hi, quad_tol, budget)
            integrals.append((table[key], hi - lo))
        moments = _moments(h, bound.moments, quad_tol, budget)
    except (EvalDomainError, IntegrandError) as exc:
        nan = math.nan
        return Verdict(theorem_id, nan, nan, nan, nan, "indeterminate", inputs,
                       (f"{type(exc).__name__}: {exc}",))

    coefficients, echoed = bound.rhs(fx, fy, gx, gy, m)
    inputs.update(echoed)
    scale = 1.0 if bound.scale is None else bound.scale(m)
    lhs = _reference_sum(integral.value / length for integral, length in integrals) / scale
    lhs_err = _reference_sum(integral.abs_err / length for integral, length in integrals) / scale
    terms = list(zip(coefficients, bound.terms))
    rhs = _reference_sum(k if name is None else k * moments[name].value for k, name in terms)
    quad_err = _reference_sum([lhs_err] + [abs(k) * moments[name].abs_err
                                           for k, name in terms if name is not None])
    parts = [integral for integral, _ in integrals] + list(moments.values())
    indeterminate = any(part.indeterminate for part in parts)
    notes = bound.notes + ((theorems._BUDGET_NOTE,) if indeterminate else ())
    margin = rhs - lhs
    sides = {}
    if lower is not None:
        sides = dict(mean=lhs, margin_lower=lhs - lower, margin_upper=margin)
        lhs, margin = lower, min(lhs - lower, margin)
    if indeterminate or not math.isfinite(margin):
        status = "indeterminate"
    else:
        status = "pass" if margin >= -(quad_err + report_tol) else "fail"
    return Verdict(theorem_id, lhs, rhs, margin, quad_err, status, inputs, notes, **sides)


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------

def _bits(value):
    """``value`` with every float replaced by its hex form, keys kept in order."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", [(key, _bits(item)) for key, item in value.items()])
    if isinstance(value, (tuple, list)):
        return tuple(_bits(item) for item in value)
    return value


def _outcome(evaluator, theorem_id, cell, table):
    """The fields of the verdict, or the type and message of what was raised."""
    f, g, h, m, phi, x, y = cell
    try:
        verdict = evaluator(theorem_id, f, g, h, m, phi, x, y, DEFAULT_TOL, DEFAULT_REPORT_TOL,
                            DEFAULT_BUDGET, table)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return ("raised", type(exc), str(exc))
    return ("verdict", [(field.name, _bits(getattr(verdict, field.name)))
                        for field in dataclasses.fields(verdict)])


def _assert_same_run(theorem_id, cells):
    """Each cell, in turn, gives the reference's outcome when the cells share
    one table, as the cells of a sweep do."""
    reference_table, table = {}, {}
    for cell in cells:
        expected = _outcome(_reference_verify, theorem_id, cell, reference_table)
        assert _outcome(theorems._verify, theorem_id, cell, table) == expected, cell


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def _unit(name, *params):
    return catalog(name, params, UNIT)


_FS = [
    func_from_expr("x^2 + 1", "x", UNIT),
    _unit("identity"),
    _unit("power", 2),
    func_from_expr("exp(x)", "x", UNIT),
    func_from_expr("1 - 3*x", "x", UNIT),
    _unit("constant", -0.0),
    func_from_expr("x^2", "x", (-0.0, 1.0)),  # a signed-zero end
    func_from_expr("ln(x)", "x", UNIT),  # raises at the end 0
    func_from_expr("sqrt((x-0.5)^2 - 0.01)", "x", UNIT),  # raises inside
]
_GS = [None, _unit("identity"), _unit("affine", 1, 1), func_from_expr("1 - x", "x", UNIT)]
_HS = [
    None,
    _unit("power", 0.5),
    _unit("power", 1),
    _unit("power", 2),
    func_from_expr("t^0.5", "t", UNIT),
    _unit("recip_power", 1),  # t^-1: no moment reaches its tolerance
    _unit("constant", 0),  # h(1/2) = 0
    func_from_expr("t - 0.75", "t", UNIT),  # h(1/2) < 0
    func_from_expr("sqrt(t - 0.25)", "t", UNIT),  # its moments raise
]
_PHIS = [None, _unit("identity"), _unit("power", 2), _unit("sqrt"),
         func_from_expr("x/2", "x", UNIT)]
_MS = [1.0, 0.5, 0.25, 0.75, 0.0, -0.0, 1.5, math.nan]
_POINTS = [-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0]

_cells = st.tuples(st.sampled_from(_FS), st.sampled_from(_GS), st.sampled_from(_HS),
                   st.sampled_from(_MS), st.sampled_from(_PHIS), st.sampled_from(_POINTS),
                   st.sampled_from(_POINTS))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BOUNDS)), st.lists(_cells, min_size=1, max_size=6))
def test_verify_matches_the_reference(theorem_id, cells):
    _assert_same_run(theorem_id, cells)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BOUNDS)), st.sampled_from(_FS), st.sampled_from(_GS),
       st.sampled_from(_PHIS), st.lists(st.tuples(st.sampled_from(_HS), st.sampled_from(_MS),
                                                  st.sampled_from(_POINTS)),
                                        min_size=2, max_size=8))
def test_a_sweep_of_cells_matches_the_reference(theorem_id, f, g, phi, axes):
    # f, g and phi fixed, h, m and x moving: the cells of a sweep
    _assert_same_run(theorem_id, [(f, g, h, m, phi, x, 1.0) for h, m, x in axes])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(REDUCTIONS)), _cells)
def test_a_reduction_probe_matches_the_reference(pair, cell):
    # the probe's two rows share one table, as check_reduction shares it
    reduction = REDUCTIONS[pair]
    f, g, h, m, phi, x, y = cell
    shared = (f, g, h, 1.0 if reduction.unit_m else m, phi if reduction.deformed else None, x, y)
    reference_table, table = {}, {}
    for theorem_id in (reduction.main, reduction.background):
        expected = _outcome(_reference_verify, theorem_id, shared, reference_table)
        assert _outcome(theorems._verify, theorem_id, shared, table) == expected


@pytest.mark.parametrize("theorem_id", sorted(BOUNDS))
@pytest.mark.parametrize("phi", [None, _unit("sqrt")], ids=["phi-default", "phi-sqrt"])
def test_every_row_matches_the_reference(theorem_id, phi):
    f, g, h = _FS[0], _GS[2], _HS[1]
    _assert_same_run(theorem_id, [(f, g, h, 0.5, phi, 0.125, 1.0), (f, g, h, 1.0, phi, 0.0, 1.0)])


@pytest.mark.parametrize("theorem_id", sorted(BOUNDS))
def test_signed_zero_ends_match_the_reference(theorem_id):
    f, g, h = _FS[6], _GS[1], _HS[2]
    _assert_same_run(theorem_id, [(f, g, h, 1.0, None, -0.0, 1.0),
                                  (f, g, h, 1.0, None, 0.0, 1.0),
                                  (f, g, h, 0.5, None, -0.0, 1.0)])


@pytest.mark.parametrize("theorem_id", sorted(BOUNDS))
@pytest.mark.parametrize("f,h", [(_FS[7], _HS[1]), (_FS[8], _HS[1]), (_FS[0], _HS[5]),
                                 (_FS[0], _HS[8]), (_FS[7], _HS[8]), (_FS[8], _HS[8])],
                         ids=["f-raises-at-an-end", "f-raises-inside", "weight-t^-1",
                              "weight-raises", "f-at-an-end-and-weight-raise",
                              "f-inside-and-weight-raise"])
def test_indeterminate_verdicts_match_the_reference(theorem_id, f, h):
    # where f and the weight both raise, the order of evaluation decides
    # which error the verdict names
    cell = (f, _GS[1], h, 1.0, None, 0.0, 1.0)
    _assert_same_run(theorem_id, [cell, cell])
    if theorem_id != "HC" or f is not _FS[0]:  # HC reads no weight
        assert theorems.verify(theorem_id, f, g=_GS[1], h=h).status == "indeterminate"


@pytest.mark.parametrize("theorem_id,cell,error", [
    ("T2_2dot", (_FS[0], None, _HS[1], 0.5, None, 0.75, 1.0), OrientationError),
    ("HC", (_FS[0], None, None, 1.0, None, 1.0, 0.0), OrientationError),
    ("T2_2", (_FS[0], None, _HS[1], 1.0, _unit("affine", -1, 1), 0.0, 1.0), OrientationError),
    ("T1_9", (_FS[0], None, _HS[6], 1.0, None, 0.0, 1.0), WeightError),
    ("T1_9", (_FS[0], None, _HS[7], 1.0, None, 0.0, 1.0), WeightError),
    ("T2_1", (_FS[0], None, _HS[1], 0.0, None, 0.0, 1.0), CatalogError),
    ("T2_3", (_FS[0], _GS[1], _HS[1], 1.5, None, 0.0, 1.0), CatalogError),
    ("T1_11", (_FS[0], None, _HS[1], -0.0, None, 0.0, 1.0), CatalogError),
    ("T2_3", (_FS[0], None, _HS[1], 1.0, None, 0.0, 1.0), ValueError),
])
def test_failed_preconditions_match_the_reference(theorem_id, cell, error):
    expected = _outcome(_reference_verify, theorem_id, cell, {})
    assert expected[:2] == ("raised", error)
    assert _outcome(theorems._verify, theorem_id, cell, {}) == expected


def test_a_lone_negative_zero_term_stays_negative():
    # HC's right side is one term, 0.5*(f(a) + f(b)); a sum started from
    # 0.0 would turn -0.0 into 0.0
    verdict = theorems.verify("HC", _unit("constant", -0.0))
    assert verdict.rhs.hex() == (-0.0).hex()
    assert verdict.lhs.hex() == (-0.0).hex()
    _assert_same_run("HC", [(_unit("constant", -0.0), None, None, 1.0, None, 0.0, 1.0)])


# --------------------------------------------------------------------------
# One bound verifier, many cells
# --------------------------------------------------------------------------

def _assert_same_binding(theorem_id, f, g, phi, cells):
    """A verifier bound once to f, g and phi gives, for each (h, m, x, y)
    cell in turn, the reference's outcome for that cell; where the binding
    itself raises, the reference raises the same for every cell."""
    reference_table, table = {}, {}
    try:
        verifier = theorems._bound_verifier(theorem_id, f, g, phi, DEFAULT_TOL, DEFAULT_REPORT_TOL,
                                            DEFAULT_BUDGET, table)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        verifier, raised = None, ("raised", type(exc), str(exc))
    bound = lambda theorem_id, f, g, h, m, phi, x, y, *rest: verifier(h, m, x, y)  # noqa: E731
    for h, m, x, y in cells:
        cell = (f, g, h, m, phi, x, y)
        expected = _outcome(_reference_verify, theorem_id, cell, reference_table)
        if verifier is None:
            assert expected == raised, cell
        else:
            assert _outcome(bound, theorem_id, cell, table) == expected, cell


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BOUNDS)), st.sampled_from(_FS), st.sampled_from(_GS),
       st.sampled_from(_PHIS), st.lists(st.tuples(st.sampled_from(_HS), st.sampled_from(_MS),
                                                  st.sampled_from(_POINTS), st.sampled_from(_POINTS)),
                                        min_size=2, max_size=10))
def test_one_binding_of_many_cells_matches_the_reference(theorem_id, f, g, phi, cells):
    _assert_same_binding(theorem_id, f, g, phi, cells)


_ONE_BINDING_CELLS = [
    (_HS[1], 0.5, 0.125, 1.0),
    (None, 0.5, 0.125, 1.0),  # no h: ValueError where the row reads h
    (_HS[2], 0.0, 0.0, 1.0),  # m outside (0, 1]: CatalogError where the row has m
    (_HS[2], math.nan, 0.0, 1.0),
    (_HS[5], 1.0, 0.0, 1.0),  # t^-1: indeterminate
    (_HS[8], 0.75, 0.0, 1.0),  # its moments raise: indeterminate
    (_HS[2], 1.0, 0.75, 0.25),  # the ends reversed: OrientationError
    (_HS[6], 1.0, 0.0, 1.0),  # h(1/2) = 0: WeightError for T1_9
    (_HS[1], 0.5, 0.125, 1.0),  # the first cell again, its integrals from the table
    (_HS[3], 1.0, -0.0, 1.0),
    (None, 1.5, 0.0, 1.0),  # no h and m outside (0, 1]: h is checked first
]


@pytest.mark.parametrize("theorem_id", sorted(BOUNDS))
@pytest.mark.parametrize("f", [_FS[0], _FS[7], _FS[8]],
                         ids=["f-smooth", "f-raises-at-an-end", "f-raises-inside"])
@pytest.mark.parametrize("phi", [None, _unit("sqrt")], ids=["phi-default", "phi-sqrt"])
def test_one_binding_through_errors_and_indeterminate_cells(theorem_id, f, phi):
    _assert_same_binding(theorem_id, f, _GS[1], phi, _ONE_BINDING_CELLS)
    outcomes = [_outcome(theorems._verify, theorem_id, (f, _GS[1], h, m, phi, x, y), {})
                for h, m, x, y in _ONE_BINDING_CELLS]
    if "h" in BOUNDS[theorem_id].roles:
        assert outcomes[1][:2] == outcomes[-1][:2] == ("raised", ValueError)
    if "m" in BOUNDS[theorem_id].inputs:
        assert outcomes[2][:2] == outcomes[3][:2] == ("raised", CatalogError)
    if f is _FS[0] and theorem_id != "HC":  # HC reads no weight
        assert outcomes[4][1][5] == ("status", "indeterminate")


@pytest.mark.parametrize("theorem_id,f,g,report_tol,budget,error", [
    ("T9", _FS[0], None, DEFAULT_REPORT_TOL, DEFAULT_BUDGET, "unknown theorem id 'T9'"),
    ("T2_2dot", _FS[0], None, -1e-9, DEFAULT_BUDGET, "report_tol must be nonnegative, got -1e-09"),
    ("T2_2dot", _FS[0], None, math.nan, DEFAULT_BUDGET, "report_tol must be nonnegative, got nan"),
    ("HC", _FS[0], None, DEFAULT_REPORT_TOL, math.nan, None),
    ("T2_2dot", None, None, DEFAULT_REPORT_TOL, DEFAULT_BUDGET, "this theorem needs the function 'f'"),
    ("T2_3", _FS[0], None, DEFAULT_REPORT_TOL, DEFAULT_BUDGET, "this theorem needs the function 'g'"),
    ("T1_14", None, None, DEFAULT_REPORT_TOL, DEFAULT_BUDGET, "this theorem needs the function 'f'"),
])
def test_a_binding_that_fails_raises_what_every_cell_would(theorem_id, f, g, report_tol, budget,
                                                           error):
    # the binding checks the row, report_tol, the budget, f and g, in that
    # order, before any cell, and raises what verify raises for each cell
    with pytest.raises(ValueError) as bound:
        theorems._bound_verifier(theorem_id, f, g, None, DEFAULT_TOL, report_tol, budget, {})
    if error is not None:
        assert str(bound.value) == error
    for h, m, x, y in _ONE_BINDING_CELLS:
        with pytest.raises(ValueError) as reference:
            _reference_verify(theorem_id, f, g, h, m, None, x, y, DEFAULT_TOL, report_tol, budget, {})
        assert (type(reference.value), str(reference.value)) == (type(bound.value), str(bound.value))
