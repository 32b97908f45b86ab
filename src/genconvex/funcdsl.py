"""Scalar function DSL: expression parsing, evaluation, and named catalogs.

Functions of one real variable are the currency of the whole package: the
target function f, the weight h, and the deformation map phi are all values
of :class:`FuncDef`.  A FuncDef couples a :class:`Source` with a closed
domain interval ``[lo, hi]``; evaluation outside the interval is an error,
never an extrapolation.  Every source, whether a parsed expression tree, a
catalog family or a derived pointwise construction, is the same record: the
callable ``fn``, built once, a label rendered at most once, and the key
that is its identity.  An expression tree is compiled into closures that
evaluate it exactly as the tree semantics below do.  Each source also has a
batch form, built on first use, that maps a list of points to the list of
``fn``'s values through C-level maps over the list (see "Batch
evaluation").  The identity, the classes' pinned h and phi and the bounds'
default phi, is built here once per interval (:func:`identity_on`) and
recognised here in every spelling (:func:`is_identity`).

Grammar (normative)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | factor
    factor  := atom ('^' factor)?          # right-associative power
    atom    := number | symbol | '(' expr ')' | func '(' expr ')'
    func    in {sqrt, exp, ln, abs}

Precedence is therefore pow > unary minus > mul/div > add/sub.  Numbers are
decimal literals with an optional exponent.  All arithmetic is IEEE double.
A tree nests at most 100 levels deep, each operator, function call and bare
parenthesised group counting as a level; a deeper text is a syntax error at
the token where it crosses the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul, neg, sub, truediv
from typing import Callable, Hashable, NamedTuple, Optional, Sequence, Union

from .errors import (
    CatalogError,
    EvalDomainError,
    ExpressionSyntaxError,
    UnknownSymbolError,
)

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Expr",
    "FuncDef",
    "parse",
    "infer_variable",
    "to_source",
    "evaluate",
    "catalog",
    "func_from_expr",
    "identity_on",
    "is_identity",
    "CATALOG_FAMILIES",
]


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # a row of _OPS: 'neg' or a function
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # a row of _OPS: '+', '-', '*', '/' or '^'
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_SINGLE = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, byte_offset) triples; kinds: num, ident, op."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c in _SINGLE:
            tokens.append(("op", c, start))
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j + 1
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            try:
                finite = math.isfinite(float(lexeme))
            except ValueError:
                raise ExpressionSyntaxError(
                    f"malformed number '{lexeme}'", _byte_offset(text, start)
                ) from None
            if not finite:
                raise ExpressionSyntaxError(
                    f"number out of range '{lexeme}'", _byte_offset(text, start)
                )
            tokens.append(("num", lexeme, start))
        elif c.isalpha() or c == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
        else:
            raise ExpressionSyntaxError(
                f"unexpected character '{c}'", _byte_offset(text, start)
            )
    tokens.append(("eof", "", n))
    if text.isascii():  # each offset is a byte offset already
        return tokens
    return [(kind, lexeme, _byte_offset(text, index)) for kind, lexeme, index in tokens]


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


# --------------------------------------------------------------------------
# Precedence-climbing parser
# --------------------------------------------------------------------------
#
# The level of each row of ``_OPS`` ("Evaluation" below) owns precedence for
# both parsing and printing.  ``^`` is right-associative and the other binary
# operators are left-associative.
#
# The walks that recurse over a tree (evaluation, hashing, equality,
# pickling, copying) take a few interpreter frames per level: at 100 levels
# they all pass below a stack already 150 frames deep, at 200 some fail.  A
# bare parenthesised group counts as a level, so the bound also limits the
# parser's own recursion.
_MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"


def _climb(tokens, pos, variable, min_level, depth):
    """Parse the expression at ``tokens[pos]`` whose binary operators bind at
    ``min_level`` or tighter, below ``depth`` enclosing levels; return the
    tree, the position after it and its height in levels."""
    kind, lexeme, off = tokens[pos]
    if depth == _MAX_DEPTH:
        raise ExpressionSyntaxError(_TOO_DEEP, off)
    if kind == "num":
        node, pos, height = Const(float(lexeme)), pos + 1, 1
    elif lexeme == "-" and min_level <= _OPS["neg"].level:  # never the exponent
        arg, pos, height = _climb(tokens, pos + 1, variable, _OPS["neg"].level, depth + 1)
        node, height = Unary("neg", arg), height + 1
    elif kind == "ident" and lexeme not in _FUNCS:
        if lexeme != variable:
            raise UnknownSymbolError(lexeme, off)
        node, pos, height = Var(lexeme), pos + 1, 1
    elif kind == "ident" or lexeme == "(":
        if kind == "ident":
            pos += 1
            if tokens[pos][1] != "(":
                raise ExpressionSyntaxError("expected '('", tokens[pos][2])
        node, pos, height = _climb(tokens, pos + 1, variable, 1, depth + 1)
        if tokens[pos][1] != ")":
            raise ExpressionSyntaxError("expected ')'", tokens[pos][2])
        if kind == "ident":
            node = Unary(lexeme, node)
        pos, height = pos + 1, height + 1
    else:
        raise ExpressionSyntaxError(
            f"expected number, symbol or '(' but found {lexeme!r}" if lexeme
            else "unexpected end of input", off
        )
    while True:
        kind, op, off = tokens[pos]
        level = _OPS[op].level if kind == "op" and op in _OPS else 0  # no identifier has a level
        if level < min_level:
            return node, pos, height
        if depth + height == _MAX_DEPTH:  # a left-leaning chain grows here
            raise ExpressionSyntaxError(_TOO_DEEP, off)
        right, pos, right_height = _climb(
            tokens, pos + 1, variable, level if op == "^" else level + 1, depth + 1)
        node, height = Binary(op, node, right), 1 + max(height, right_height)


def parse(text: str, variable: str) -> Expr:
    """Parse ``text`` into an expression tree over the single ``variable``.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input, and on a tree that nests deeper than 100 levels, and
    :class:`UnknownSymbolError` for identifiers that are neither the
    variable nor one of sqrt/exp/ln/abs.
    """
    tokens = _tokenize(text)
    node, pos, _ = _climb(tokens, 0, variable, 1, 0)
    kind, lexeme, off = tokens[pos]
    if kind != "eof":
        raise ExpressionSyntaxError(f"trailing input {lexeme!r}", off)
    return node


def infer_variable(text: str) -> str:
    """Return the unique non-function identifier in ``text``.

    Used by scenario loading when a function is given as a bare DSL string.
    Expressions with no symbol default to 'x'; two distinct symbols are an
    error (the DSL is univariate).
    """
    variable = None
    for kind, lexeme, off in _tokenize(text):
        if kind != "ident" or lexeme in _FUNCS or lexeme == variable:
            continue
        if variable is not None:
            raise UnknownSymbolError(lexeme, off)
        variable = lexeme
    return variable or "x"


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

def _level(node: Expr) -> int:
    if isinstance(node, (Unary, Binary)):
        return _OPS[node.op].level
    # a constant whose sign bit is set prints as a negation
    negative = isinstance(node, Const) and math.copysign(1.0, node.value) < 0.0
    return _OPS["neg"].level if negative else 5


def to_source(node: Expr) -> str:
    """Render a tree back to DSL text; reparsing yields an equivalent tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            arg = to_source(node.arg)
            if _level(node.arg) < _OPS["neg"].level:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{node.op}({to_source(node.arg)})"
    left, right = to_source(node.left), to_source(node.right)
    mine = _OPS[node.op].level
    if node.op == "^":
        # right-associative: parenthesize a pow/neg/lower left child
        if _level(node.left) <= mine:
            left = f"({left})"
        if _level(node.right) < mine:
            right = f"({right})"
    else:
        if _level(node.left) < mine:
            left = f"({left})"
        # left-associative: a right child at this level was grouped apart
        if _level(node.right) <= mine:
            right = f"({right})"
    return f"{left}{node.op}{right}"


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------
#
# A tree is compiled once into nested closures, one per node.  Each closure
# performs the float operations of the tree semantics in the same order and
# with the same math functions, and raises EvalDomainError, with the
# evaluation point, on a partial operation (sqrt of negative, ln of
# non-positive, division by zero, undefined pow) and on a non-finite result
# of exp or of any binary operation.

def _pow(base: float, exponent: float, point: float) -> float:
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError("zero raised to a negative power", point)
    try:
        return math.pow(base, exponent)
    except ValueError:  # negative base, fractional exponent
        raise EvalDomainError(
            f"pow undefined for base {base!r}, exponent {exponent!r}", point
        ) from None
    except OverflowError:
        raise EvalDomainError("pow overflow", point) from None


def _non_finite(value: float, point: float) -> EvalDomainError:
    return EvalDomainError(f"non-finite value {value!r}", point)


def _identity(u: float) -> float:
    return u


def _neg(a):
    return lambda u: -a(u)


def _sqrt(a):
    def node(u):
        v = a(u)
        if v < 0.0:
            raise EvalDomainError(f"sqrt of negative {v!r}", u)
        return math.sqrt(v)
    return node


def _exp(a):
    def node(u):
        arg = a(u)
        try:
            v = math.exp(arg)
        except OverflowError:
            raise EvalDomainError("exp overflow", u) from None
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


def _ln(a):
    def node(u):
        v = a(u)
        if v <= 0.0:
            raise EvalDomainError(f"ln of non-positive {v!r}", u)
        return math.log(v)
    return node


def _abs(a):
    return lambda u: abs(a(u))


def _add(a, b):
    def node(u):
        v = a(u) + b(u)
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


def _sub(a, b):
    def node(u):
        v = a(u) - b(u)
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


def _mul(a, b):
    def node(u):
        v = a(u) * b(u)
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


def _div(a, b):
    def node(u):
        left = a(u)
        right = b(u)
        if right == 0.0:
            raise EvalDomainError("division by zero", u)
        v = left / right
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


def _power(a, b):
    def node(u):
        v = _pow(a(u), b(u), u)
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return node


class _Op(NamedTuple):  # a row of _OPS, one per operator of the DSL
    build: Callable  # the operand closures -> the node's closure
    mapped: Callable  # the float operation that the batch form maps
    propagates: bool  # its operands go unchecked in the batch form (see below)
    level: int  # the parse and print precedence; 5 for a function call


_OPS = {
    "+": _Op(_add, add, True, 1),
    "-": _Op(_sub, sub, True, 1),
    "*": _Op(_mul, mul, True, 2),
    "/": _Op(_div, truediv, False, 2),
    "neg": _Op(_neg, neg, True, 3),
    "^": _Op(_power, math.pow, False, 4),
    "sqrt": _Op(_sqrt, math.sqrt, True, 5),
    "exp": _Op(_exp, math.exp, False, 5),
    "ln": _Op(_ln, math.log, True, 5),
    "abs": _Op(_abs, abs, True, 5),
}
_FUNCS = tuple(name for name, op in _OPS.items() if op.level == 5)


def _compile(node: Expr) -> Callable[[float], float]:
    """Build the closure that evaluates ``node``; see the section comment."""
    if isinstance(node, Const):
        value = node.value
        return lambda u: value
    if isinstance(node, Var):
        return _identity
    if isinstance(node, Unary):
        return _OPS[node.op].build(_compile(node.arg))
    return _OPS[node.op].build(_compile(node.left), _compile(node.right))


_ONE = Const(1.0)


def _reflect(node: Expr) -> Expr:
    """The tree of ``node`` at 1 - u: the variable becomes ``1 - u``, and
    every ``1 - (1 - u)`` this makes is rewritten to ``u``, so that a factor
    such as (1-t)^s becomes u^s and is evaluated without cancellation."""
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return Binary("-", _ONE, node)
    if isinstance(node, Unary):
        return Unary(node.op, _reflect(node.arg))
    left, right = _reflect(node.left), _reflect(node.right)
    if (node.op == "-" and left == _ONE and isinstance(right, Binary) and right.op == "-"
            and right.left == _ONE and isinstance(right.right, Var)):
        return right.right
    return Binary(node.op, left, right)


# --------------------------------------------------------------------------
# Batch evaluation
# --------------------------------------------------------------------------
#
# A source's batch form maps a non-empty sequence of points to the sequence
# of its values.  Per point it performs the float operations of ``fn`` in
# the same order, but through C-level maps over the whole sequence
# (``map(operator.mul, a, b)``, ``map(math.pow, a, b)``), or list
# comprehensions for the affine and poly families, instead of one closure
# call per tree node and point, so every value it returns is
# ``fn``'s value bit for bit.  Where ``fn`` raises at some point, the batch
# form raises one of BATCH_ERRORS: math.sqrt, math.log and math.pow raise
# ValueError, and math.exp, math.pow and division ArithmeticError, at the
# points where the tree semantics raise EvalDomainError (the interpreter
# behaviours are pinned by tests/test_funcdsl.py).  A non-finite value, which
# the closures reject after exp and after every binary operation, reaches a
# finiteness check, which fails where the sum of a node's values is not
# finite: the rows of _OPS that propagate carry a NaN or an infinity in an
# operand to their value, or raise on it, so their operands are lazy maps,
# unchecked, and only the operands of /, ^ and exp, which can hide one
# (1/inf, nan^0, exp(-inf)), and the root are checked.  It may also raise
# where ``fn`` does not: finite values whose sum overflows, a point past a
# domain but within the slack that the check clamps.  A caller that catches
# BATCH_ERRORS evaluates those points one by one instead.  A subtree without
# the variable is folded into one float when the batch form is built; where
# that fails, ``fn`` fails at every point, and the batch form maps ``fn``
# over the points, as does that of a source with no batch form of its own.

class _NeedsScalar(Exception):
    """A batch form cannot promise ``fn``'s values at these points; the
    caller evaluates them one by one."""


# all that a batch form raises, short of running out of memory
BATCH_ERRORS = (EvalDomainError, ArithmeticError, ValueError, _NeedsScalar)


def _finite(values: list) -> list:
    # a NaN or an infinity makes the sum non-finite, and so does an overflow
    if math.isfinite(sum(values)):
        return values
    raise _NeedsScalar


def span(values: Sequence[float]) -> tuple[float, float]:
    """The least and the greatest of the non-empty ``values``, which must all
    be finite; raises _NeedsScalar where they are not.  A NaN that does not
    come first passes min and max, but not the sum, which may also fail
    where finite values overflow it."""
    if math.isfinite(sum(values)):
        return min(values), max(values)
    raise _NeedsScalar


def _map_batch(fn):
    return lambda us: list(map(fn, us))


def _batch_binary(op, a, b):
    if not callable(a):
        return lambda us: map(op, repeat(a), b(us))
    if not callable(b):
        return lambda us: map(op, a(us), repeat(b))
    return lambda us: map(op, a(us), b(us))


def _batch_node(node: Expr, checked: bool = True):
    """The column function of ``node``, or the float it takes at every point
    where it has no variable; raises EvalDomainError where that fails.  The
    variable's column is the points themselves; that of any other node is a
    lazy map, or, where the node is ``checked``, a list of finite values,
    and it raises _NeedsScalar where they are not."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return _identity
    build, op, propagates, _ = _OPS[node.op]
    if isinstance(node, Unary):
        arg = _batch_node(node.arg, not propagates)
        if not callable(arg):
            return build(lambda u: arg)(0.0)
        column = lambda us: map(op, arg(us))
    else:
        left = _batch_node(node.left, not propagates)
        right = _batch_node(node.right, not propagates)
        if not (callable(left) or callable(right)):
            return build(lambda u: left, lambda u: right)(0.0)
        column = _batch_binary(op, left, right)
    return (lambda us: _finite(list(column(us)))) if checked else column


def _compile_batch(node: Expr, fn) -> Callable[[Sequence[float]], Sequence[float]]:
    """The batch form of ``node``, whose closure is ``fn``; see above."""
    try:
        body = _batch_node(node)
    except EvalDomainError:
        return _map_batch(fn)
    if not callable(body):
        return lambda us: [body] * len(us)
    return body


# --------------------------------------------------------------------------
# FuncDef and the named catalog
# --------------------------------------------------------------------------

class _built_once:
    """A part of a Source built on first access and written to the
    instance's ``__dict__``, where every later read finds it before this
    non-data descriptor: what ``functools.cached_property`` does on Python
    3.12, without the lock that 3.11's takes on each first access."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.build(instance)
        return value


@dataclass(frozen=True)
class Source:
    """What a FuncDef evaluates.  ``fn``, built once, evaluates it without a
    domain check and takes no part in equality, hashing or repr; ``key`` is
    its identity: ``("expr", tree, variable)``, ``("catalog", family,
    params)``, or by default ``(fn, label)``, so that a derived construction
    (sum, scaling, composition, restriction, mirror) is equal only to itself.
    A catalog family or a derived construction passes its batch form as
    ``_batch``.  A caller binds ``fn`` and ``batch`` once; calling the
    source itself costs a frame per evaluation."""

    fn: Callable[[float], float] = field(repr=False, compare=False)
    _label: Optional[str] = field(repr=False, compare=False)
    key: Hashable = None
    _batch: Optional[Callable[[Sequence[float]], Sequence[float]]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", (self.fn, self._label))
        # a given label or batch form is the part itself: nothing to build
        if self._label is not None:
            self.__dict__["label"] = self._label
        if self._batch is not None:
            self.__dict__["batch"] = self._batch

    @_built_once
    def label(self) -> str:
        # only an expression has no label given: most never show their tree
        return to_source(self.key[1])

    @_built_once
    def batch(self) -> Callable[[Sequence[float]], Sequence[float]]:
        """The batch form of ``fn`` ("Batch evaluation" above), unchecked:
        the given ``_batch``, or else, built on first use, an expression's
        column functions, or else ``fn`` mapped over the points."""
        if self.key[0] == "expr":
            return _compile_batch(self.key[1], self.fn)
        return _map_batch(self.fn)

    @_built_once
    def mirror(self) -> "Source":
        """The source of u -> fn(1 - u), unchecked, built on first use: an
        expression's is that of its reflected tree (``_reflect``), so that a
        singularity at 1 is reached as one at 0; any other source's calls
        ``fn(1.0 - u)`` and evaluates ``batch`` at 1.0 - u."""
        if self.key[0] == "expr":
            return _expr_source(_reflect(self.key[1]), self.key[2])
        return _mirrored(self.fn, self.batch, f"{self.label} at 1 - u")

    def __reduce__(self):
        # expression and catalog sources are rebuilt from their key
        if self.key[0] == "expr":
            return _expr_source, self.key[1:]
        if self.key[0] == "catalog":
            return _catalog_source, self.key[1:]
        return Source, (self.fn, self._label, self.key)

    # FuncDef binds ``fn`` directly; this method and the name DerivedSource
    # stay because bench/tracing.py wraps ``DerivedSource.__call__``.
    def __call__(self, u: float) -> float:
        return self.fn(u)


DerivedSource = Source


def _expr_source(expr: Expr, variable: str) -> Source:
    return Source(_compile(expr), None, ("expr", expr, variable))


def _mirrored(fn, batch, label: str) -> Source:
    """The derived source of u -> fn(1.0 - u), whose batch form evaluates
    ``batch`` at 1.0 - u; it holds fn and batch, not the source they come
    from, which would hold it in a cycle."""
    return Source(lambda u: fn(1.0 - u), label, _batch=lambda us: batch([1.0 - u for u in us]))


def _catalog_source(family: str, params: tuple[float, ...]) -> Source:
    fn, batch = _FAMILIES[family].build(*params)
    label = f"{family}({','.join(repr(p) for p in params)})"
    return Source(fn, label, ("catalog", family, params), batch)


def domain_slack(lo: float, hi: float) -> float:
    """How far past [lo, hi] a point still counts as the endpoint: 16 ulps of
    max(1, |lo|, |hi|), so that blend points such as t*x + m*(1-t)*y that
    overshoot by rounding alone are clamped to the endpoint, not rejected."""
    return 16.0 * math.ulp(1.0) * max(1.0, abs(lo), abs(hi))


def _in_domain(source: Source, lo: float, hi: float) -> Callable[[float], float]:
    """``source.fn`` behind the domain check of [lo, hi]."""
    fn = source.fn
    slack = domain_slack(lo, hi)
    below, above = lo - slack, hi + slack

    def evaluator(u):
        if lo <= u <= hi:
            return fn(u)
        if below <= u < lo:
            return fn(lo)
        if hi < u <= above:
            return fn(hi)
        raise EvalDomainError(
            f"{u!r} outside domain [{lo!r}, {hi!r}] of {source.label}", u
        )

    return evaluator


# the label of the checked sources that FuncDef.on and reflected_on build,
# which render no expression
_CHECKED = "checked"


@dataclass(frozen=True)
class FuncDef:
    """A scalar function of one variable restricted to a closed interval.

    Its evaluator, the source behind the domain check, is built once when
    the FuncDef is created and takes no part in equality, hashing or repr.
    Whether a caller that evaluates it only on a window may skip the check
    is decided in one place, ``_holds``: ``on`` and ``reflected_on`` return
    the Source to evaluate, unchecked or checked, with its batch form.
    """

    source: Source
    domain: tuple[float, float]
    _evaluator: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise CatalogError(f"invalid domain [{lo!r}, {hi!r}]")
        object.__setattr__(self, "_evaluator", _in_domain(self.source, lo, hi))

    def __reduce__(self):
        return FuncDef, (self.source, self.domain)

    @property
    def label(self) -> str:
        return self.source.label

    def __call__(self, u: float) -> float:
        return self._evaluator(u)

    def batch(self, us: Sequence[float]) -> Sequence[float]:
        """This function at every point of the non-empty ``us``, by the
        source's batch form where every point lies in the domain, where the
        check would call ``source.fn`` with the same argument; raises
        _NeedsScalar where a point does not, even within the slack that the
        check clamps."""
        if self._holds(*span(us)):
            return self.source.batch(us)
        raise _NeedsScalar

    def _holds(self, lo: float, hi: float) -> bool:
        d_lo, d_hi = self.domain
        return d_lo <= lo and hi <= d_hi

    def on(self, lo: float, hi: float) -> Source:
        """This function for a caller that only evaluates it on [lo, hi]:
        ``source`` when [lo, hi] lies inside the domain, where the check
        would call ``source.fn`` with the same argument, and otherwise a
        source of the checked evaluator and the checked ``batch``, built on
        each call, since one kept here would hold this FuncDef in a cycle."""
        if self._holds(lo, hi):
            return self.source
        return Source(self._evaluator, _CHECKED, _batch=self.batch)

    def reflected_on(self, lo: float, hi: float) -> Source:
        """u -> this function at 1 - u, for a caller that only evaluates it
        for u in [lo, hi]: ``source.mirror`` when [1 - hi, 1 - lo] lies
        inside the domain, and otherwise the checked evaluator and the
        checked ``batch`` at fl(1 - u), built on each call."""
        if self._holds(1.0 - hi, 1.0 - lo):
            return self.source.mirror
        return _mirrored(self._evaluator, self.batch, _CHECKED)


def evaluate(f: FuncDef, u: float) -> float:
    """Evaluate ``f`` at ``u``; raises EvalDomainError outside the domain."""
    return f._evaluator(u)


# --- catalog families: each binds its parameters once, into its closure and
# into its batch form, which performs the same operations per point ----------

def _constant(c):
    return (lambda u: c), (lambda us: [c] * len(us))


def _power_family(s):
    def power(u):
        if u < 0.0:
            raise EvalDomainError(f"power family undefined below 0 ({u!r})", u)
        return _pow(u, s, u)

    def batch(us):
        # a negative point leaves the minimum negative or NaN; math.pow alone
        # would not raise at a negative base with an integer exponent
        if min(us) >= 0.0:
            return list(map(math.pow, us, repeat(s)))
        raise _NeedsScalar
    return power, batch


def _recip_power_family(s):
    neg_s = -s

    def recip_power(u):
        if u <= 0.0:
            raise EvalDomainError(f"recip_power undefined at {u!r}", u)
        return _pow(u, neg_s, u)

    def batch(us):
        if min(us) > 0.0:
            return list(map(math.pow, us, repeat(neg_s)))
        raise _NeedsScalar
    return recip_power, batch


# affine and poly raise on a non-finite result, as the DSL's operations do
def _affine(c0, c1):
    def affine(u):
        v = c0 + c1 * u
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return affine, lambda us: _finite([c0 + c1 * u for u in us])


# The scalar loop's first step, 0.0*u + c, is c at every finite u unless c
# is zero (-0.0 gives +0.0), so with a non-zero top coefficient and at least
# two the batch form starts at the second step; a non-finite u times that c
# stays non-finite through every later step and fails the final check.  The
# steps go in chunks of up to four, each one list comprehension of _HORNER,
# whose nested a*u + c are those steps' float * and + in the loop's order,
# with no call per operation and one pass over the points per chunk.
_HORNER = (
    lambda acc, us, c0: [a * u + c0 for a, u in zip(acc, us)],
    lambda acc, us, c0, c1: [(a * u + c0) * u + c1 for a, u in zip(acc, us)],
    lambda acc, us, c0, c1, c2: [((a * u + c0) * u + c1) * u + c2 for a, u in zip(acc, us)],
    lambda acc, us, c0, c1, c2, c3: [(((a * u + c0) * u + c1) * u + c2) * u + c3
                                     for a, u in zip(acc, us)],
)


def _poly(*coeffs):
    highest_first = coeffs[::-1]

    def horner(u):
        acc = 0.0
        for c in highest_first:
            acc = acc * u + c
        if math.isfinite(acc):
            return acc
        raise _non_finite(acc, u)

    top, steps = 0.0, highest_first
    if len(steps) > 1 and steps[0] != 0.0:
        top, steps = steps[0], steps[1:]
    step = len(_HORNER)
    chunks = [(_HORNER[len(cs) - 1], cs) for cs in
              (steps[i:i + step] for i in range(0, len(steps), step))]

    def batch(us):
        acc = repeat(top)
        for shape, cs in chunks:
            acc = shape(acc, us, *cs)
        return _finite(acc)
    return horner, batch


def _sqrt_family(u):
    if u < 0.0:
        raise EvalDomainError(f"sqrt of negative {u!r}", u)
    return math.sqrt(u)


class _Family(NamedTuple):
    arity: int | None  # None: any number >= 1
    natural_lo: float
    build: Callable[..., tuple[Callable, Callable]]  # the parameters -> (fn, batch form)


_FAMILIES = {
    "identity": _Family(0, -math.inf, lambda: (_identity, _identity)),
    "constant": _Family(1, -math.inf, _constant),
    "power": _Family(1, 0.0, _power_family),
    "recip_power": _Family(1, 0.0, _recip_power_family),
    "affine": _Family(2, -math.inf, _affine),
    "poly": _Family(None, -math.inf, _poly),
    "sqrt": _Family(0, 0.0, lambda: (_sqrt_family, lambda us: list(map(math.sqrt, us)))),
}

CATALOG_FAMILIES = tuple(sorted(_FAMILIES))


def catalog(
    name: str,
    params: tuple[float, ...] | list[float] = (),
    interval: tuple[float, float] = (0.0, 1.0),
) -> FuncDef:
    """Build a FuncDef from a named family.

    Families: identity, constant(c), power(s) = u^s, recip_power(s) = u^(-s),
    affine(c0, c1) = c0 + c1*u, poly(c0, .., cn) with ascending coefficients,
    sqrt.  The natural domain (e.g. [0, inf) for power) is intersected with
    the requested interval.  Parameter combinations are rejected only when
    unevaluable everywhere, so e.g. recip_power(1) on [0, 1] is fine: it is
    evaluated on the open interior only and errors at 0.
    """
    family = _FAMILIES.get(name)
    if family is None:
        raise CatalogError(
            f"unknown family '{name}'; expected one of {', '.join(CATALOG_FAMILIES)}"
        )
    params = tuple(float(p) for p in params)
    arity = family.arity
    if arity is None:
        if not params:
            raise CatalogError("poly needs at least one coefficient")
    elif len(params) != arity:
        raise CatalogError(f"{name} takes {arity} parameter(s), got {len(params)}")
    for p in params:
        if not math.isfinite(p):
            raise CatalogError(f"non-finite parameter {p!r} for {name}")
    lo, hi = float(interval[0]), float(interval[1])
    lo = max(lo, family.natural_lo)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CatalogError(f"interval [{interval[0]!r}, {interval[1]!r}] must be finite")
    if lo > hi:
        raise CatalogError(
            f"requested interval [{interval[0]!r}, {interval[1]!r}] does not meet "
            f"the natural domain of {name}"
        )
    return FuncDef(_catalog_source(name, params), (lo, hi))


def func_from_expr(
    text: str, variable: str | None = None, interval: tuple[float, float] = (0.0, 1.0)
) -> FuncDef:
    """Parse DSL text into a FuncDef on ``interval``."""
    if variable is None:
        variable = infer_variable(text)
    return FuncDef(_expr_source(parse(text, variable), variable),
                   (float(interval[0]), float(interval[1])))


def identity_on(interval: tuple[float, float]) -> FuncDef:
    """The catalog identity on ``interval``, built once per interval (the
    memo's key holds the signs of both ends too, since 0.0 == -0.0)."""
    lo, hi = float(interval[0]), float(interval[1])
    return _identities((lo, hi), (math.copysign(1.0, lo), math.copysign(1.0, hi)))


@functools.lru_cache(maxsize=32)
def _identities(interval: tuple[float, float], signs: tuple[float, float]) -> FuncDef:
    return catalog("identity", (), interval)


def is_identity(f: FuncDef) -> bool:
    """Whether ``f`` is the identity, on any domain: the catalog identity or
    an expression that is its own variable, which both evaluate _identity,
    or power(1.0)."""
    return f.source.fn is _identity or f.source.key == ("catalog", "power", (1.0,))
