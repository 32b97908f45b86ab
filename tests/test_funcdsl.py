import copy
import gc
import math
import pickle
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from genconvex.errors import (
    CatalogError,
    EvalDomainError,
    ExpressionSyntaxError,
    UnknownSymbolError,
)
from genconvex import funcdsl, quad
from genconvex.algebra import combine, compose_phi, segment
from genconvex.funcdsl import (
    BATCH_ERRORS,
    Binary,
    Const,
    FuncDef,
    Unary,
    Var,
    catalog,
    eval_expr,
    evaluate,
    func_from_expr,
    infer_variable,
    parse,
    to_source,
)


class TestParse:
    def test_variable(self):
        assert parse("t", "t") == Var("t")

    def test_power_shape(self):
        assert parse("x^2", "x") == Binary("^", Var("x"), Const(2.0))

    def test_godunova_levin_shape(self):
        assert parse("1/t", "t") == Binary("/", Const(1.0), Var("t"))

    def test_precedence_mul_over_add(self):
        assert parse("1+2*x", "x") == Binary(
            "+", Const(1.0), Binary("*", Const(2.0), Var("x"))
        )

    def test_pow_right_associative(self):
        tree = parse("2^3^2", "x")
        assert tree == Binary("^", Const(2.0), Binary("^", Const(3.0), Const(2.0)))

    def test_pow_binds_tighter_than_neg(self):
        assert parse("-x^2", "x") == Unary("neg", Binary("^", Var("x"), Const(2.0)))

    def test_neg_binds_tighter_than_mul(self):
        assert parse("2*-x", "x") == Binary("*", Const(2.0), Unary("neg", Var("x")))

    def test_functions(self):
        assert parse("sqrt(x)", "x") == Unary("sqrt", Var("x"))
        assert parse("exp(ln(abs(x)))", "x") == Unary(
            "exp", Unary("ln", Unary("abs", Var("x")))
        )

    def test_scientific_literals(self):
        assert parse("2e-3", "x") == Const(0.002)
        assert parse("1.5E2", "x") == Const(150.0)
        assert parse(".5", "x") == Const(0.5)

    def test_whitespace_insensitive(self):
        assert parse("  1 +  2 * x ", "x") == parse("1+2*x", "x")

    def test_unknown_symbol_offset(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse("x+y", "x")
        assert err.value.offset == 2

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1+*2", "x")
        assert err.value.offset == 2

    def test_malformed_number(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1.2.3", "x")
        assert str(err.value) == "malformed number '1.2.3' (byte offset 0)"

    @pytest.mark.parametrize("text, offset", [("1e400", 0), ("x*1e309", 2)])
    def test_number_out_of_range(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as err:
            func_from_expr(text, "x")
        assert str(err.value) == f"number out of range '{text[offset:]}' (byte offset {offset})"
        assert err.value.offset == offset

    def test_largest_literals_are_accepted(self):
        assert func_from_expr("1e308", "x")(0.5) == 1e308
        assert func_from_expr("x*1.7976931348623157e308", "x")(1.0) == 1.7976931348623157e308

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("1 2", "x")

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("(1+x", "x")

    def test_comma_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sqrt(x, 2)", "x")

    def test_negative_exponent_needs_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^-2", "x")
        assert parse("x^(-2)", "x") == Binary("^", Var("x"), Unary("neg", Const(2.0)))

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("1 # 2", "x")

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("", "x")

    def test_infer_variable(self):
        assert infer_variable("sqrt(u) + u^2") == "u"
        assert infer_variable("1 + 2") == "x"
        with pytest.raises(UnknownSymbolError):
            infer_variable("u + v")
        # the second symbol is reported at its own byte offset, as parse does
        with pytest.raises(UnknownSymbolError) as err:
            infer_variable("x + y")
        assert (err.value.name, err.value.offset) == ("y", 4)
        with pytest.raises(UnknownSymbolError) as err:
            infer_variable("é + u")  # é is two bytes in UTF-8
        assert (err.value.name, err.value.offset) == ("u", 5)


# expression strings whose parse should survive print -> parse unchanged
_ROUND_TRIP_SOURCES = [
    "x",
    "1+2*x",
    "x^2^3",
    "-x^2",
    "(x+1)*(x-1)",
    "1-(2-x)",
    "1/(x/2)",
    "sqrt(x^2+1)",
    "2*-x",
    "-(x+1)",
    "x^(-2)",
    "1.25e-3*x + 7",
    "abs(x-0.5)",
]


@pytest.mark.parametrize("source", _ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(source):
    tree = parse(source, "x")
    assert parse(to_source(tree), "x") == tree


def _expr_trees():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        st.just(Var("x")),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sqrt", "exp", "ln", "abs"]), children),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@given(_expr_trees())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip_random_trees(tree):
    # parse(print(parse(s))) == parse(s) with s = print(tree)
    source = to_source(tree)
    once = parse(source, "x")
    assert parse(to_source(once), "x") == once


# --------------------------------------------------------------------------
# The compiled evaluator against the recursive tree semantics
# --------------------------------------------------------------------------

def _ref_finite(value, point):
    if not math.isfinite(value):
        raise EvalDomainError(f"non-finite value {value!r}", point)
    return value


def _ref_pow(base, exponent, point):
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError("zero raised to a negative power", point)
    try:
        return math.pow(base, exponent)
    except ValueError:
        raise EvalDomainError(
            f"pow undefined for base {base!r}, exponent {exponent!r}", point
        ) from None
    except OverflowError:
        raise EvalDomainError("pow overflow", point) from None


def reference_eval(node, value):
    """The recursive evaluator the compiled closures replace, kept verbatim
    as the definition of the tree semantics."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return value
    if isinstance(node, Unary):
        arg = reference_eval(node.arg, value)
        if node.op == "neg":
            return -arg
        if node.op == "sqrt":
            if arg < 0.0:
                raise EvalDomainError(f"sqrt of negative {arg!r}", value)
            return math.sqrt(arg)
        if node.op == "exp":
            try:
                return _ref_finite(math.exp(arg), value)
            except OverflowError:
                raise EvalDomainError("exp overflow", value) from None
        if node.op == "ln":
            if arg <= 0.0:
                raise EvalDomainError(f"ln of non-positive {arg!r}", value)
            return math.log(arg)
        if node.op == "abs":
            return abs(arg)
        raise AssertionError(node.op)
    left = reference_eval(node.left, value)
    right = reference_eval(node.right, value)
    if node.op == "+":
        return _ref_finite(left + right, value)
    if node.op == "-":
        return _ref_finite(left - right, value)
    if node.op == "*":
        return _ref_finite(left * right, value)
    if node.op == "/":
        if right == 0.0:
            raise EvalDomainError("division by zero", value)
        return _ref_finite(left / right, value)
    if node.op == "^":
        return _ref_finite(_ref_pow(left, right, value), value)
    raise AssertionError(node.op)


def _bits(x):
    return struct.pack("d", x)


def _outcome(fn, u):
    """Value bits, or the error's type, message and point bits."""
    try:
        return ("value", _bits(fn(u)))
    except Exception as exc:  # the comparison covers every error type
        point = getattr(exc, "point", None)
        return (type(exc), str(exc), None if point is None else _bits(point))


_POINTS = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]),
)


@given(_expr_trees(), st.lists(_POINTS, min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
def test_compiled_evaluator_matches_the_tree_semantics(tree, points):
    text = to_source(tree)
    parsed = parse(text, "x")  # the tree func_from_expr compiles
    compiled = func_from_expr(text, "x").source.fn
    for u in points:
        expected = _outcome(lambda v: reference_eval(parsed, v), u)
        assert _outcome(compiled, u) == expected
        expected = _outcome(lambda v: reference_eval(tree, v), u)
        assert _outcome(lambda v: eval_expr(tree, v), u) == expected


# (source, point, message) for each domain error the evaluator raises
_DOMAIN_ERRORS = [
    ("sqrt(x)", -1.0, "sqrt of negative -1.0"),
    ("ln(x)", 0.0, "ln of non-positive 0.0"),
    ("ln(x - 3)", 1.0, "ln of non-positive -2.0"),
    ("1/x", 0.0, "division by zero"),
    ("1/(x - x)", 2.0, "division by zero"),
    ("x^0.5", -1.0, "pow undefined for base -1.0, exponent 0.5"),
    ("x^400", 10.0, "pow overflow"),
    ("x^(-1)", 0.0, "zero raised to a negative power"),
    ("exp(x)", 1000.0, "exp overflow"),
    ("x + x", 1e308, "non-finite value inf"),
    ("-x - x", 1e308, "non-finite value -inf"),
    ("x * x", 1e200, "non-finite value inf"),
    ("x / 1e-300", 1e300, "non-finite value inf"),
]


@pytest.mark.parametrize("source, point, message", _DOMAIN_ERRORS)
def test_domain_errors_match_the_tree_semantics(source, point, message):
    tree = parse(source, "x")
    f = func_from_expr(source, "x", (-1e308, 1e308))
    for fn in (f.source.fn, f, lambda u: reference_eval(tree, u)):
        with pytest.raises(EvalDomainError) as err:
            fn(point)
        assert type(err.value) is EvalDomainError
        assert str(err.value) == message
        assert _bits(err.value.point) == _bits(point)


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_left_operand_is_evaluated_first(op):
    tree = parse(f"sqrt(x) {op} ln(x)", "x")
    compiled = func_from_expr(f"sqrt(x) {op} ln(x)", "x").source.fn
    for fn in (compiled, lambda u: reference_eval(tree, u)):
        with pytest.raises(EvalDomainError, match="sqrt of negative -1.0"):
            fn(-1.0)


# no literal parses to an infinite constant, but a tree built directly and
# handed to eval_expr can hold one
_INF = Const(math.inf)


@pytest.mark.parametrize("tree, point, message", [
    (Binary("*", _INF, Var("x")), 0.0, "non-finite value nan"),
    (Unary("exp", _INF), 1.0, "non-finite value inf"),
    (Unary("exp", Binary("*", _INF, Var("x"))), 0.0, "non-finite value nan"),
], ids=["inf * x", "exp(inf)", "exp(inf * x)"])
def test_infinite_constants_match_the_tree_semantics(tree, point, message):
    for fn in (lambda u: eval_expr(tree, u), lambda u: reference_eval(tree, u)):
        with pytest.raises(EvalDomainError) as err:
            fn(point)
        assert type(err.value) is EvalDomainError
        assert str(err.value) == message
        assert _bits(err.value.point) == _bits(point)


def test_unchecked_unary_results_pass_through_as_in_the_tree_semantics():
    # ln, sqrt, abs and neg check no finiteness, so an infinite constant
    # flows through them; only exp and the binary operations reject it
    for tree in (Unary("ln", _INF), Unary("sqrt", _INF), Unary("abs", Unary("neg", _INF)),
                 Unary("neg", _INF)):
        assert _bits(eval_expr(tree, 0.5)) == _bits(reference_eval(tree, 0.5))


# --------------------------------------------------------------------------
# Batch forms against the scalar fn, point by point
# --------------------------------------------------------------------------

def _batch_agrees(fn, batch, points):
    """Check that ``batch(points)`` returns fn's bits at every point, or
    raises where fn raises at some point; where fn raises at none, it may
    raise only the signal that sends the points to fn one by one.  Returns
    whether the batch form returned."""
    expected = [_outcome(fn, u) for u in points]
    raises = any(outcome[0] != "value" for outcome in expected)
    try:
        got = batch(points)
    except BATCH_ERRORS as exc:
        assert raises or type(exc) is funcdsl._NeedsScalar
        return False
    assert not raises
    assert [("value", _bits(v)) for v in got] == expected
    return True


_BATCH_POINTS = st.lists(st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0, 1e-300, 1e300, 1e308, -1e308, 1.7976931348623157e308]),
), min_size=1, max_size=12)
_PARAMS = st.one_of(st.floats(min_value=-5.0, max_value=5.0),
                    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5, -1.5, -2.0, 1e308, -1e308, 1e-300]))
_FAMILY_PARAMS = {
    "identity": st.just(()),
    "constant": st.tuples(_PARAMS),
    "power": st.tuples(_PARAMS),
    "recip_power": st.tuples(_PARAMS),
    "affine": st.tuples(_PARAMS, _PARAMS),
    "poly": st.lists(_PARAMS, min_size=1, max_size=5).map(tuple),
    "sqrt": st.just(()),
}


def _functions(interval):
    """FuncDefs on ``interval`` from random trees and every catalog family."""
    trees = _expr_trees().map(lambda tree: FuncDef(funcdsl._expr_source(tree, "x"), interval))
    families = st.sampled_from(sorted(_FAMILY_PARAMS)).flatmap(
        lambda name: _FAMILY_PARAMS[name].map(lambda params: catalog(name, params, interval)))
    return st.one_of(trees, families)


@given(_expr_trees(), _BATCH_POINTS)
@settings(max_examples=500, deadline=None)
def test_expression_batch_matches_fn(tree, points):
    source = funcdsl._expr_source(tree, "x")
    _batch_agrees(source.fn, source.batch, points)
    _batch_agrees(source.mirror.fn, source.mirror.batch, points)


@given(st.sampled_from(sorted(_FAMILY_PARAMS)).flatmap(
    lambda name: st.tuples(st.just(name), _FAMILY_PARAMS[name])), _BATCH_POINTS)
@settings(max_examples=500, deadline=None)
def test_catalog_batch_matches_fn(family, points):
    source = funcdsl._catalog_source(*family)
    _batch_agrees(source.fn, source.batch, points)
    _batch_agrees(source.mirror.fn, source.mirror.batch, points)


@given(_expr_trees(), _BATCH_POINTS)
@settings(max_examples=300, deadline=None)
def test_a_plain_source_batch_matches_fn(tree, points):
    # a source built by hand maps fn over the points: it returns wherever fn
    # raises nowhere, and its mirror evaluates that at 1.0 - u
    fn = funcdsl._compile(tree)
    source = funcdsl.Source(fn, "plain")
    assert _batch_agrees(fn, source.batch, points) == all(
        _outcome(fn, u)[0] == "value" for u in points)
    _batch_agrees(source.mirror.fn, source.mirror.batch, points)


@given(st.data(), _BATCH_POINTS)
@settings(max_examples=200, deadline=None)
def test_derived_batch_matches_fn(data, points):
    interval = (0.0, 4.0)
    kind = data.draw(st.sampled_from(["combine", "compose", "segment"]))
    f = data.draw(_functions(interval))
    if kind == "combine":
        lam, mu = data.draw(st.tuples(_PARAMS, _PARAMS).map(lambda p: (abs(p[0]), abs(p[1]))))
        g = combine(f, data.draw(_functions(interval)), lam, mu)
    elif kind == "compose":
        g = compose_phi(f, data.draw(_functions(data.draw(st.sampled_from([interval, (-2.0, 2.0)])))))
    else:
        phi = data.draw(_functions(interval))
        m, x, y = data.draw(st.tuples(st.sampled_from([1.0, 0.5, 0.3]), st.floats(0.0, 4.0), st.floats(0.0, 4.0)))
        try:
            g = segment(f, phi, m, x, y).as_funcdef()
        except EvalDomainError:
            return  # a segment that cannot be built
    for fn, batch in ((g.source.fn, g.source.batch), (g._evaluator, g.batch)):
        _batch_agrees(fn, batch, points)


@given(_functions((0.0, 1.0)), st.lists(st.floats(0.0, 0.5), min_size=1, max_size=12),
       st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.25, 0.5), (0.6, 1.0)]))
@settings(max_examples=300, deadline=None)
def test_checked_batch_forms_match_their_evaluators(f, points, window):
    # the source that on and reflected_on return pairs an evaluator with
    # the batch form of the same decision
    lo, hi = window
    points = [lo + (hi - lo) * 2.0 * u for u in points]
    for source in (f.on(lo, hi), f.reflected_on(lo, hi)):
        _batch_agrees(source.fn, source.batch, points)


class TestBatchForms:
    def test_batch_forms_return_on_ordinary_points(self):
        points = [k / 16.0 for k in range(1, 16)]
        functions = [func_from_expr(text, "x") for text in (
            "x^2 - ln(x + 1)", "exp(-x)*sqrt(x) + abs(x - 0.3)", "1/x", "(1 - x)^(-0.4)", "-x^3/2")]
        functions += [catalog(name, params) for name, params in (
            ("identity", ()), ("constant", (2.0,)), ("power", (2.0,)), ("recip_power", (0.5,)),
            ("affine", (1.0, -2.0)), ("poly", (1.0, -2.0, 3.0)), ("sqrt", ()))]
        functions += [combine(functions[0], functions[5], 2, 0.5), compose_phi(functions[1], functions[7]),
                      segment(functions[0], functions[5], 0.5, 0.25, 1.0).as_funcdef()]
        for f in functions:
            assert _batch_agrees(f.source.fn, f.source.batch, points)
            assert _batch_agrees(f._evaluator, f.batch, points)
            assert _batch_agrees(f.source.mirror.fn, f.source.mirror.batch, points)

    def test_power_with_an_integer_exponent_is_undefined_below_0(self):
        # math.pow takes a negative base with an integer exponent, the
        # catalog family does not
        assert math.pow(-2.0, 2.0) == 4.0
        source = catalog("power", (2.0,)).source
        assert not _batch_agrees(source.fn, source.batch, [1.0, -2.0])
        assert not _batch_agrees(source.fn, source.batch, [math.nan, -2.0])
        assert _batch_agrees(source.fn, source.batch, [1.0, -0.0, 3.0])

    def test_recip_power_is_undefined_at_0(self):
        source = catalog("recip_power", (1.0,)).source
        for points in ([0.5, 0.0], [0.5, -0.0], [2.0, -1.0]):
            assert not _batch_agrees(source.fn, source.batch, points)
        assert _batch_agrees(source.fn, source.batch, [0.5, 2.0])

    @pytest.mark.parametrize("f", [
        catalog("affine", (1e308, 1e308), (0.0, 2.0)), catalog("affine", (-1e308, -1e308), (0.0, 2.0)),
        catalog("poly", (1e308, 0.0, 1e308), (0.0, 2.0)), func_from_expr("1e308 + 1e308*x", "x"),
    ], ids=["affine", "affine negative", "poly", "dsl"])
    def test_an_overflowing_value_is_an_error_at_its_point(self, f):
        assert not _batch_agrees(f.source.fn, f.source.batch, [0.0, 0.5, 1.0])
        assert _batch_agrees(f.source.fn, f.source.batch, [-0.25])

    def test_finite_values_whose_sum_overflows_go_to_fn(self):
        # the finiteness check may say no where fn raises nowhere
        source = catalog("poly", (1e308, 0.0, 1e308), (-1.0, 1.0)).source
        with pytest.raises(funcdsl._NeedsScalar):
            source.batch([0.0, -0.25])
        assert _batch_agrees(source.fn, source.batch, [0.0])

    @pytest.mark.parametrize("text, points", [
        ("x / -0.0", [1.0, 2.0]), ("1/x", [1.0, -0.0]), ("1/x", [-0.0, 1.0]), ("x/(x - x)", [3.0]),
    ])
    def test_division_by_a_zero_of_either_sign(self, text, points):
        source = func_from_expr(text, "x").source
        assert not _batch_agrees(source.fn, source.batch, points)

    def test_a_constant_subtree_that_fails_fails_everywhere(self):
        source = func_from_expr("x + ln(0)", "x").source
        assert not _batch_agrees(source.fn, source.batch, [1.0])
        assert _batch_agrees(func_from_expr("x * 2^3", "x").source.fn,
                             func_from_expr("x * 2^3", "x").source.batch, [1.0, -0.0])

    @pytest.mark.parametrize("points", [[0.5, math.nan], [math.nan, 0.5], [0.25, 0.5, math.nan, 0.75]])
    def test_a_nan_point_lies_in_no_domain(self, points):
        f = catalog("power", (2.0,))
        with pytest.raises(funcdsl._NeedsScalar):
            f.batch(points)
        with pytest.raises(EvalDomainError):
            f(math.nan)

    @pytest.mark.parametrize("build", [
        lambda: catalog("power", (0.5,)), lambda: func_from_expr("t^0.5 + 1", "t"),
        lambda: combine(catalog("sqrt"), catalog("identity"), 2.0, 1.0),
    ], ids=["catalog", "expression", "derived"])
    def test_built_batch_forms_hold_no_cycle(self, build):
        # a source is freed by reference counting once its forms are built,
        # so that moments of fresh weights leave nothing for the collector
        gc.disable()
        try:
            f = build()
            for form in (f.source.batch, f.source.mirror.batch, f.on(0.0, 0.5).batch,
                         f.reflected_on(0.0, 0.5).batch):
                form([0.25, 0.5])
            quad._compute_moment(f, "mx", quad.DEFAULT_TOL, quad.DEFAULT_BUDGET)
            source = weakref.ref(f.source)
            del f, form
            assert source() is None
        finally:
            gc.enable()

    def test_a_source_without_a_batch_form_sends_every_point_to_fn(self):
        # its batch form maps fn over the points: fn's bits, and fn's own
        # error at the first point where fn raises
        def fn(u):
            if u < 0.0:
                raise EvalDomainError(f"negative {u!r}", u)
            return u * 0.1 + 1.0

        source = funcdsl.Source(fn, "plain")
        points = [0.3, 1e300, 0.7]
        assert _batch_agrees(fn, source.batch, points)
        f = combine(FuncDef(source, (0.0, 1.0)), catalog("identity"))
        assert _batch_agrees(f.source.fn, f.source.batch, [0.5, 0.25])
        with pytest.raises(EvalDomainError) as err:
            source.batch([0.5, -2.0, -3.0])
        assert _outcome(fn, -2.0) == (EvalDomainError, str(err.value), _bits(err.value.point))
        with pytest.raises(TypeError):
            source.batch([0.5, None])

    def test_an_expression_whose_constant_subtree_fails_maps_fn(self):
        # sqrt(-1) + x raises at every point, as fn does, with fn's error
        source = func_from_expr("sqrt(-1) + x", "x").source
        with pytest.raises(EvalDomainError) as err:
            source.batch([0.25, 0.5])
        assert _outcome(source.fn, 0.25) == (EvalDomainError, str(err.value), _bits(err.value.point))

    @pytest.mark.parametrize("build", [
        lambda: funcdsl._expr_source(parse("x^2 + 1", "x"), "x"), lambda: catalog("power", (0.5,)).source,
        lambda: funcdsl.Source(lambda u: u, "plain"),
        lambda: combine(catalog("sqrt"), catalog("identity"), 2.0, 1.0).source,
    ], ids=["expression", "catalog", "plain", "derived"])
    def test_each_lazy_part_is_built_once(self, build):
        source = build()
        assert source.batch is source.batch
        assert source.mirror is source.mirror
        assert source.label is source.label


class TestInterpreterBehaviours:
    """The batch forms evaluate the math functions over whole lists and rely
    on these errors to raise where the tree semantics raise EvalDomainError,
    and on a NaN or infinity making a sum non-finite."""

    @pytest.mark.parametrize("fn, args", [
        (math.pow, (0.0, -1.0)), (math.pow, (-0.0, -1.0)), (math.pow, (-2.0, 0.5)),
        (math.log, (0.0,)), (math.log, (-0.0,)), (math.sqrt, (-1.0,)),
    ], ids=["pow(0, -1)", "pow(-0, -1)", "pow(-2, 0.5)", "log(0)", "log(-0)", "sqrt(-1)"])
    def test_value_error(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    @pytest.mark.parametrize("fn, args", [(math.pow, (10.0, 400.0)), (math.exp, (1000.0,))],
                             ids=["pow", "exp"])
    def test_overflow_raises_instead_of_returning_inf(self, fn, args):
        with pytest.raises(OverflowError):
            fn(*args)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_division_by_zero_raises(self, zero):
        with pytest.raises(ZeroDivisionError):
            1.0 / zero

    def test_sqrt_of_negative_zero_is_negative_zero(self):
        assert _bits(math.sqrt(-0.0)) == _bits(-0.0)

    @pytest.mark.parametrize("values", [
        [1.0, math.inf, -1.0], [math.nan, 1.0], [1.0, -math.inf], [math.inf, -math.inf], [1e308, 1e308],
    ])
    def test_a_sum_with_a_nan_or_an_infinity_is_not_finite(self, values):
        assert not math.isfinite(sum(values))


class TestEvaluate:
    def test_catalog_power_half(self):
        f = catalog("power", (2,), (0.0, 1.0))
        assert evaluate(f, 0.5) == 0.25

    def test_catalog_constant(self):
        f = catalog("constant", (1,), (0.0, 1.0))
        for u in (0.0, 0.3, 1.0):
            assert evaluate(f, u) == 1.0

    def test_sqrt_of_negative_is_domain_error(self):
        f = func_from_expr("sqrt(x)", "x", (-1.0, 1.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, -1.0)

    def test_outside_domain_is_error(self):
        f = catalog("identity", (), (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, 1.5)
        with pytest.raises(EvalDomainError):
            evaluate(f, -0.5)

    def test_roundoff_slack_clamps_to_endpoint(self):
        f = catalog("power", (2,), (0.0, 1.0))
        just_past = 1.0 + 2.0 * math.ulp(1.0)
        assert evaluate(f, just_past) == 1.0

    def test_evaluation_is_pure(self):
        f = func_from_expr("exp(x) - x^3/7", "x", (0.0, 2.0))
        assert evaluate(f, 1.3) == evaluate(f, 1.3)

    def test_division_by_zero(self):
        f = func_from_expr("1/(x-1)", "x", (0.0, 2.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, 1.0)

    def test_ln_of_nonpositive(self):
        f = func_from_expr("ln(x)", "x", (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, 0.0)

    def test_exp_overflow(self):
        f = func_from_expr("exp(x)", "x", (0.0, 1000.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, 1000.0)

    def test_fractional_pow_of_negative(self):
        f = func_from_expr("x^0.5", "x", (-1.0, 1.0))
        with pytest.raises(EvalDomainError):
            evaluate(f, -0.5)

    def test_callable_sugar(self):
        f = catalog("affine", (1.0, 2.0), (0.0, 1.0))
        assert f(0.25) == 1.5

    def test_a_reversed_domain_is_rejected(self):
        with pytest.raises(CatalogError) as err:
            FuncDef(catalog("identity").source, (1.0, 0.0))
        assert str(err.value) == "invalid domain [1.0, 0.0]"


class TestCatalog:
    def test_identity(self):
        f = catalog("identity", (), (0.0, 2.0))
        assert f(1.3) == 1.3

    def test_power_one_is_identity_values(self):
        f = catalog("power", (1,), (0.0, 1.0))
        assert f(0.3) == 0.3

    def test_recip_power_quarter(self):
        f = catalog("recip_power", (1,), (0.0, 1.0))
        assert f(0.25) == 4.0

    def test_recip_power_errors_at_zero_but_builds(self):
        f = catalog("recip_power", (1,), (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            f(0.0)

    def test_power_negative_exponent_allowed(self):
        f = catalog("power", (-1,), (0.0, 1.0))
        assert f(0.5) == 2.0
        with pytest.raises(EvalDomainError):
            f(0.0)

    def test_poly_horner(self):
        f = catalog("poly", (1, -2, 3), (0.0, 2.0))  # 1 - 2u + 3u^2
        assert f(2.0) == 1 - 4 + 12

    def test_sqrt_family(self):
        f = catalog("sqrt", (), (0.0, 4.0))
        assert f(4.0) == 2.0

    def test_natural_domain_clipping(self):
        f = catalog("power", (2,), (-1.0, 1.0))
        assert f.domain == (0.0, 1.0)

    def test_unknown_family(self):
        with pytest.raises(CatalogError):
            catalog("cubic_spline", (), (0.0, 1.0))

    def test_wrong_arity(self):
        with pytest.raises(CatalogError):
            catalog("power", (), (0.0, 1.0))
        with pytest.raises(CatalogError):
            catalog("identity", (3,), (0.0, 1.0))
        with pytest.raises(CatalogError):
            catalog("poly", (), (0.0, 1.0))

    def test_non_finite_parameter(self):
        with pytest.raises(CatalogError):
            catalog("constant", (math.inf,), (0.0, 1.0))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_a_non_finite_interval_is_rejected(self, interval):
        with pytest.raises(CatalogError) as err:
            catalog("identity", (), interval)
        assert str(err.value) == f"interval [{interval[0]!r}, {interval[1]!r}] must be finite"

    def test_empty_after_clip(self):
        with pytest.raises(CatalogError):
            catalog("sqrt", (), (-2.0, -1.0))

    def test_power_closure_at_and_below_zero(self):
        fn = catalog("power", (2.0,)).source.fn
        assert _bits(fn(0.0)) == _bits(0.0)
        with pytest.raises(EvalDomainError) as err:
            fn(-5e-324)
        assert str(err.value) == "power family undefined below 0 (-5e-324)"
        with pytest.raises(EvalDomainError) as err:
            catalog("power", (-1.0,)).source.fn(0.0)
        assert str(err.value) == "zero raised to a negative power"
        f = catalog("power", (2.0,), (0.0, 1.0))
        assert f(-1e-17) == 0.0  # within the domain slack: clamped to 0
        with pytest.raises(EvalDomainError) as err:
            f(-1e-3)
        assert str(err.value) == "-0.001 outside domain [0.0, 1.0] of power(2.0)"

    def test_recip_power_closure_at_zero(self):
        fn = catalog("recip_power", (0.5,)).source.fn
        with pytest.raises(EvalDomainError) as err:
            fn(0.0)
        assert str(err.value) == "recip_power undefined at 0.0"
        assert err.value.point == 0.0
        assert fn(0.25) == 2.0

    def test_poly_closure_is_horner_highest_first(self):
        c0, c1, c2, c3 = 0.1, 0.1, 0.2, 0.7
        u = 0.7
        horner = ((c3 * u + c2) * u + c1) * u + c0
        naive = c0 + c1 * u + c2 * u * u + c3 * u * u * u
        assert horner != naive  # the order is observable in the last bit
        assert _bits(catalog("poly", (c0, c1, c2, c3)).source.fn(u)) == _bits(horner)

    @pytest.mark.parametrize("params, expr, u, message", [
        ((1e308, 1e308), "1e308 + 1e308*x", 1.0, "non-finite value inf"),
        ((-1e308, -1e308), "-1e308 - 1e308*x", 1.0, "non-finite value -inf"),
        ((0.0, 1e300), "1e300*x", 1e10, "non-finite value inf"),
    ])
    def test_affine_overflow_raises_as_the_dsl_does(self, params, expr, u, message):
        for f in (catalog("affine", params, (0.0, 1e10)), func_from_expr(expr, "x", (0.0, 1e10))):
            with pytest.raises(EvalDomainError) as err:
                f(u)
            assert str(err.value) == message
            assert err.value.point == u
        assert catalog("affine", params, (0.0, 1e10))(0.5) == func_from_expr(expr, "x", (0.0, 1e10))(0.5)

    @pytest.mark.parametrize("coeffs, u, message", [
        ((0.0, 0.0, 1.0), 1e200, "non-finite value inf"),
        ((1.0, -1e308, -1e308), 1.0, "non-finite value -inf"),
        ((0.0, 1e308, 1e308), 10.0, "non-finite value inf"),
    ])
    def test_poly_overflow_raises(self, coeffs, u, message):
        f = catalog("poly", coeffs, (0.0, 1e200))
        for fn in (f, f.source.fn):
            with pytest.raises(EvalDomainError) as err:
                fn(u)
            assert str(err.value) == message
            assert err.value.point == u

    def test_constant_closure(self):
        fn = catalog("constant", (-0.0,)).source.fn
        for u in (-1e300, 0.0, 0.5, math.inf):
            assert _bits(fn(u)) == _bits(-0.0)

    @given(
        s=st.floats(min_value=0.05, max_value=6.0),
        u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        v=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_positive_and_monotone_on_unit_interval(self, s, u, v):
        f = catalog("power", (s,), (0.0, 1.0))
        fu, fv = f(u), f(v)
        assert 0.0 < fu <= 1.0
        if u < v:
            assert fu <= fv


class TestCompiledFuncDef:
    BUILDERS = [
        lambda: func_from_expr("t^0.5 + exp(-t)", "t"),
        lambda: catalog("power", (0.5,), (0.0, 1.0)),
        lambda: catalog("poly", (1.0, -2.0, 3.0), (0.0, 2.0)),
    ]

    @pytest.mark.parametrize("build", BUILDERS)
    def test_equal_values_compare_and_hash_equal(self, build):
        a, b = build(), build()
        assert a._evaluator is not b._evaluator
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_compiled_attributes_take_no_part_in_eq_hash_repr(self, build):
        a, b = build(), build()
        object.__setattr__(b, "_evaluator", None)
        object.__setattr__(b.source, "fn", None)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_evaluator" not in repr(a) and "fn=" not in repr(a)

    def test_moment_memo_hits_for_a_separately_built_equal_weight(self):
        quad._memo_moment.cache_clear()
        first = quad.h_moment(func_from_expr("t^0.5", "t"), "m1")
        second = quad.h_moment(func_from_expr("t^0.5", "t"), "m1")
        info = quad._memo_moment.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert second is first

    @pytest.mark.parametrize("build", BUILDERS)
    def test_copies_evaluate_identically(self, build):
        f = build()
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g == f
            assert _bits(g(0.7)) == _bits(f(0.7))


class TestSources:
    """The source behind each kind of FuncDef: a parsed expression, a
    catalog family and a derived pointwise construction."""

    # (builder, label) for the sources that are equal when built alike
    KEYED = [
        (lambda: func_from_expr("x^2 + 1", "x"), "x^2.0+1.0"),
        (lambda: catalog("poly", (1.0, -2.0, 3.0), (0.0, 2.0)), "poly(1.0,-2.0,3.0)"),
    ]

    @pytest.mark.parametrize("build, label", KEYED)
    def test_keyed_source_label_equality_hash_repr(self, build, label):
        a, b = build().source, build().source
        assert a.label == label and build().label == label
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != func_from_expr("x^2 + 2", "x").source
        assert a != catalog("poly", (1.0, -2.0, 4.0), (0.0, 2.0)).source
        assert "fn=" not in repr(a)

    @given(st.sampled_from([
        func_from_expr("x^2 + 1", "x"), catalog("power", (0.5,), (0.25, 0.9)),
        func_from_expr("ln(x)", "x", (0.1, 2.0)), combine(catalog("sqrt"), catalog("identity"), 2.0, 1.0),
    ]), st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)).map(sorted))
    @settings(max_examples=300, deadline=None)
    def test_on_and_reflected_on_keep_the_source_exactly_when_the_window_holds(self, f, window):
        # _holds is the one owner of the decision; a window that it refuses
        # gets the checked evaluator and the checked batch form
        lo, hi = window
        d_lo, d_hi = f.domain
        source, mirror = f.on(lo, hi), f.reflected_on(lo, hi)
        assert (source is f.source) == (d_lo <= lo and hi <= d_hi)
        assert (mirror is f.source.mirror) == (d_lo <= 1.0 - hi and 1.0 - lo <= d_hi)
        if source is not f.source:
            assert source.fn is f._evaluator and source.batch == f.batch
        if mirror is not f.source.mirror:
            with pytest.raises(EvalDomainError):
                mirror.fn(-d_hi)  # at 1 + d_hi, past the domain

    def test_an_expression_mirror_is_the_source_of_its_reflected_tree(self):
        tree = parse("(1-t)^(-0.4) + ln(t + 1)", "t")
        source = funcdsl._expr_source(tree, "t")
        mirror = source.mirror
        assert mirror is source.mirror  # kept on the source
        assert mirror == funcdsl._expr_source(funcdsl._reflect(tree), "t")
        assert mirror.label == "t^(-0.4)+ln(1.0-t+1.0)"
        copied = pickle.loads(pickle.dumps(mirror))
        assert copied == mirror and hash(copied) == hash(mirror) and copied.fn is not mirror.fn
        for u in (0.1, 0.25, 0.5, 0.9):
            assert _bits(copied.fn(u)) == _bits(mirror.fn(u))
            assert copied.batch([u]) == mirror.batch([u]) == [mirror.fn(u)]

    @pytest.mark.parametrize("build, label", KEYED)
    def test_keyed_source_copies_are_equal_and_evaluate_identically(self, build, label):
        a = build().source
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and b.label == label
            assert b.fn is not a.fn
            assert _bits(b.fn(0.7)) == _bits(a.fn(0.7)) == _bits(a(0.7))

    def test_derived_source_label_equality_hash_repr_copy(self):
        f = combine(catalog("power", (2,)), catalog("identity"))
        src = f.source
        assert src.label == f.label == "1.0*(power(2.0)) + 1.0*(identity())"
        assert src == src and hash(src) == hash(src)
        assert f == f and hash(f) == hash(f)
        assert "fn=" not in repr(src)
        copied = copy.deepcopy(f)
        assert copied.source == src and copied == f and copied.label == f.label
        assert _bits(src(0.7)) == _bits(src.fn(0.7)) == _bits(f(0.7))
