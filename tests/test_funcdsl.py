import copy
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from genconvex.errors import (
    CatalogError,
    EvalDomainError,
    ExpressionSyntaxError,
    UnknownSymbolError,
)
from genconvex import quad
from genconvex.algebra import combine
from genconvex.funcdsl import (
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
    ("1e999 * x", 0.0, "non-finite value nan"),
    ("exp(1e999)", 1.0, "non-finite value inf"),
    ("exp(1e999 * x)", 0.0, "non-finite value nan"),
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


def test_unchecked_unary_results_pass_through_as_in_the_tree_semantics():
    # ln, sqrt, abs and neg check no finiteness, so an infinite literal
    # flows through them; only exp and the binary operations reject it
    for source in ("ln(1e999)", "sqrt(1e999)", "abs(-1e999)", "-1e999"):
        tree = parse(source, "x")
        compiled = func_from_expr(source, "x").source.fn
        assert _bits(compiled(0.5)) == _bits(reference_eval(tree, 0.5))


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
