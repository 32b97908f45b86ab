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
evaluation").

Grammar (normative)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | factor
    factor  := atom ('^' factor)?          # right-associative power
    atom    := number | symbol | '(' expr ')' | func '(' expr ')'
    func    in {sqrt, exp, ln, abs}

Precedence is therefore pow > unary minus > mul/div > add/sub.  Numbers are
decimal literals with an optional exponent.  All arithmetic is IEEE double.
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
    "eval_expr",
    "evaluate",
    "catalog",
    "func_from_expr",
    "identity_on",
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
    op: str  # 'neg', 'sqrt', 'exp', 'ln', 'abs'
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]

_FUNCS = ("sqrt", "exp", "ln", "abs")


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
            tokens.append(("op", c, _byte_offset(text, start)))
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
            tokens.append(("num", lexeme, _byte_offset(text, start)))
        elif c.isalpha() or c == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], _byte_offset(text, start)))
        else:
            raise ExpressionSyntaxError(
                f"unexpected character '{c}'", _byte_offset(text, start)
            )
    tokens.append(("eof", "", len(text.encode("utf-8"))))
    return tokens


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variable):
        self.tokens = tokens
        self.pos = 0
        self.variable = variable

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        kind, lexeme, off = self.peek()
        if kind != "op" or lexeme != text:
            raise ExpressionSyntaxError(f"expected '{text}'", off)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return Binary("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, lexeme, off = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(lexeme))
        if kind == "ident":
            self.advance()
            if lexeme in _FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Unary(lexeme, arg)
            if lexeme != self.variable:
                raise UnknownSymbolError(lexeme, off)
            return Var(lexeme)
        if kind == "op" and lexeme == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExpressionSyntaxError(
            f"expected number, symbol or '(' but found {lexeme!r}" if lexeme
            else "unexpected end of input", off
        )


# A scenario's binding is parsed when it is validated and again when it is
# built; trees are immutable, so the second parse can share the first's.
# The memo holds the bindings of one scenario with up to 16 distinct ones,
# and little more, since it keeps its trees alive.
_PARSE_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse(text: str, variable: str) -> Expr:
    """Parse ``text`` into an expression tree over the single ``variable``.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input and :class:`UnknownSymbolError` for identifiers that are neither
    the variable nor one of sqrt/exp/ln/abs.  Trees are memoised per (text,
    variable) in a bounded LRU memo; errors are raised afresh every time.
    """
    parser = _Parser(_tokenize(text), variable)
    node = parser.parse_expr()
    kind, lexeme, off = parser.peek()
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

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _level(node: Expr) -> int:
    if isinstance(node, Binary):
        return _LEVEL[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _LEVEL["neg"]
    return 5


def to_source(node: Expr) -> str:
    """Render a tree back to DSL text; reparsing yields an equivalent tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            arg = to_source(node.arg)
            if _level(node.arg) < _LEVEL["neg"]:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{node.op}({to_source(node.arg)})"
    left, right = to_source(node.left), to_source(node.right)
    mine = _LEVEL[node.op]
    if node.op == "^":
        # right-associative: parenthesize a pow/neg/lower left child
        if _level(node.left) <= mine:
            left = f"({left})"
        if _level(node.right) < mine:
            right = f"({right})"
    else:
        if _level(node.left) < mine:
            left = f"({left})"
        if _level(node.right) < mine or (
            _level(node.right) == mine and node.op in ("-", "/")
        ):
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


_NODE = {
    "neg": _neg, "sqrt": _sqrt, "exp": _exp, "ln": _ln, "abs": _abs,
    "+": _add, "-": _sub, "*": _mul, "/": _div, "^": _power,
}


def _compile(node: Expr) -> Callable[[float], float]:
    """Build the closure that evaluates ``node``; see the section comment."""
    if isinstance(node, Const):
        value = node.value
        return lambda u: value
    if isinstance(node, Var):
        return _identity
    if isinstance(node, Unary):
        return _NODE[node.op](_compile(node.arg))
    return _NODE[node.op](_compile(node.left), _compile(node.right))


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


def eval_expr(node: Expr, value: float) -> float:
    """Evaluate a tree at ``value``; pure, raises EvalDomainError on partial
    operations (sqrt of negative, ln of non-positive, division by zero,
    undefined pow) and on a non-finite result of exp or a binary operation.

    Compiles the tree on every call; a FuncDef compiles it once.
    """
    return _compile(node)(value)


# --------------------------------------------------------------------------
# Batch evaluation
# --------------------------------------------------------------------------
#
# A source's batch form maps a non-empty sequence of points to the sequence
# of its values.  Per point it performs the float operations of ``fn`` in
# the same order, but through C-level maps over the whole sequence
# (``map(operator.mul, a, b)``, ``map(math.pow, a, b)``) instead of one
# closure call per tree node and point, so every value it returns is
# ``fn``'s value bit for bit.  Where ``fn`` raises at some point, the batch
# form raises one of BATCH_ERRORS: math.sqrt, math.log and math.pow raise
# ValueError, and math.exp, math.pow and division ArithmeticError, at the
# points where the tree semantics raise EvalDomainError (the interpreter
# behaviours are pinned by tests/test_funcdsl.py), and a non-finite value,
# which the closures reject after exp and after every binary operation,
# makes the sum of the values non-finite.  It may also raise where ``fn``
# does not: finite values whose sum overflows, a point past a domain but
# within the slack that the check clamps.  A caller that catches
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


def inside(values: Sequence[float], lo: float, hi: float) -> bool:
    """Whether every one of the non-empty ``values`` lies in the finite
    [lo, hi]; a NaN that does not come first passes min and max, but not the
    sum, which may also fail where finite values overflow it."""
    return lo <= min(values) and max(values) <= hi and math.isfinite(sum(values))


def _map_batch(fn):
    return lambda us: list(map(fn, us))


def _batch_binary(op, a, b):
    if not callable(a):
        return lambda us: _finite(list(map(op, repeat(a), b(us))))
    if not callable(b):
        return lambda us: _finite(list(map(op, a(us), repeat(b))))
    return lambda us: _finite(list(map(op, a(us), b(us))))


# neg, abs, sqrt and ln return lazy maps, which the node above consumes
_BATCH_UNARY = {
    "neg": lambda a: lambda us: map(neg, a(us)),
    "abs": lambda a: lambda us: map(abs, a(us)),
    "sqrt": lambda a: lambda us: map(math.sqrt, a(us)),
    "ln": lambda a: lambda us: map(math.log, a(us)),
    "exp": lambda a: lambda us: _finite(list(map(math.exp, a(us)))),
}
_BATCH_BINARY = {"+": add, "-": sub, "*": mul, "/": truediv, "^": math.pow}


def _batch_node(node: Expr):
    """The column function of ``node``, or the float it takes at every point
    where it has no variable; raises EvalDomainError where that fails."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return _identity
    if isinstance(node, Unary):
        arg = _batch_node(node.arg)
        if callable(arg):
            return _BATCH_UNARY[node.op](arg)
        return _NODE[node.op](lambda u: arg)(0.0)
    left, right = _batch_node(node.left), _batch_node(node.right)
    if callable(left) or callable(right):
        return _batch_binary(_BATCH_BINARY[node.op], left, right)
    return _NODE[node.op](lambda u: left, lambda u: right)(0.0)


def _compile_batch(node: Expr, fn) -> Callable[[Sequence[float]], Sequence[float]]:
    """The batch form of ``node``, whose closure is ``fn``; see above."""
    try:
        body = _batch_node(node)
    except EvalDomainError:
        return _map_batch(fn)
    if not callable(body):
        return lambda us: [body] * len(us)
    if isinstance(node, Unary) and node.op != "exp":
        return lambda us: list(body(us))
    return body


# --------------------------------------------------------------------------
# FuncDef and the named catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """What a FuncDef evaluates.  ``fn``, built once, evaluates it without a
    domain check and takes no part in equality, hashing or repr; ``key`` is
    its identity: ``("expr", tree, variable)``, ``("catalog", family,
    params)``, or by default ``(fn, label)``, so that a derived construction
    (sum, scaling, composition, restriction, mirror) is equal only to itself.
    A catalog family or a derived construction passes its batch form as
    ``_batch``.  A caller binds ``fn`` and ``batch`` once; calling the
    source itself costs a frame per evaluation.  The hash of ``key`` is
    computed once, on first use, since a memo lookup would otherwise hash
    an expression tree node by node."""

    fn: Callable[[float], float] = field(repr=False, compare=False)
    _label: Optional[str] = field(repr=False, compare=False)
    key: Hashable = None
    _batch: Optional[Callable[[Sequence[float]], Sequence[float]]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", (self.fn, self._label))

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.key)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def label(self) -> str:
        # an expression renders its tree: most built functions never show theirs
        return to_source(self.key[1]) if self._label is None else self._label

    @functools.cached_property
    def batch(self) -> Callable[[Sequence[float]], Sequence[float]]:
        """The batch form of ``fn`` ("Batch evaluation" above), unchecked,
        built on first use: the given ``_batch``, or else an expression's
        column functions, or else ``fn`` mapped over the points."""
        if self._batch is None and self.key[0] == "expr":
            return _compile_batch(self.key[1], self.fn)
        return self._batch or _map_batch(self.fn)

    @functools.cached_property
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
    return Source(lambda u: fn(1.0 - u), label,
                  _batch=lambda us: batch(list(map(sub, repeat(1.0), us))))


def _catalog_source(family: str, params: tuple[float, ...]) -> Source:
    spec = _FAMILIES[family]
    label = f"{family}({','.join(repr(p) for p in params)})"
    return Source(spec.build(*params), label, ("catalog", family, params), spec.batch(*params))


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
        lo, hi = self.domain
        if inside(us, lo, hi):
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


# --- catalog families: each binds its parameters into one closure, and into
# one batch form with the same operations per point ---------------------------

def _constant(c):
    return lambda u: c


def _constant_batch(c):
    return lambda us: [c] * len(us)


def _power_family(s):
    def power(u):
        if u < 0.0:
            raise EvalDomainError(f"power family undefined below 0 ({u!r})", u)
        return _pow(u, s, u)
    return power


def _power_batch(s):
    def power(us):
        # a negative point leaves the minimum negative or NaN; math.pow alone
        # would not raise at a negative base with an integer exponent
        if min(us) >= 0.0:
            return list(map(math.pow, us, repeat(s)))
        raise _NeedsScalar
    return power


def _recip_power_family(s):
    neg_s = -s

    def recip_power(u):
        if u <= 0.0:
            raise EvalDomainError(f"recip_power undefined at {u!r}", u)
        return _pow(u, neg_s, u)
    return recip_power


def _recip_power_batch(s):
    neg_s = -s

    def recip_power(us):
        if min(us) > 0.0:
            return list(map(math.pow, us, repeat(neg_s)))
        raise _NeedsScalar
    return recip_power


# affine and poly raise on a non-finite result, as the DSL's operations do
def _affine(c0, c1):
    def affine(u):
        v = c0 + c1 * u
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)
    return affine


def _affine_batch(c0, c1):
    return lambda us: _finite(list(map(add, repeat(c0), map(mul, repeat(c1), us))))


def _poly(*coeffs):
    highest_first = coeffs[::-1]

    def horner(u):
        acc = 0.0
        for c in highest_first:
            acc = acc * u + c
        if math.isfinite(acc):
            return acc
        raise _non_finite(acc, u)
    return horner


def _poly_batch(*coeffs):
    highest_first = coeffs[::-1]

    def horner(us):
        acc = repeat(0.0)
        for c in highest_first:
            acc = map(add, map(mul, acc, us), repeat(c))
        return _finite(list(acc))
    return horner


def _sqrt_family(u):
    if u < 0.0:
        raise EvalDomainError(f"sqrt of negative {u!r}", u)
    return math.sqrt(u)


def _sqrt_batch(us):
    return list(map(math.sqrt, us))


class _Family(NamedTuple):
    arity: int | None  # None: any number >= 1
    natural_lo: float
    build: Callable[..., Callable[[float], float]]
    batch: Callable[..., Callable[[Sequence[float]], Sequence[float]]]


_FAMILIES = {
    "identity": _Family(0, -math.inf, lambda: _identity, lambda: _identity),
    "constant": _Family(1, -math.inf, _constant, _constant_batch),
    "power": _Family(1, 0.0, _power_family, _power_batch),
    "recip_power": _Family(1, 0.0, _recip_power_family, _recip_power_batch),
    "affine": _Family(2, -math.inf, _affine, _affine_batch),
    "poly": _Family(None, -math.inf, _poly, _poly_batch),
    "sqrt": _Family(0, 0.0, lambda: _sqrt_family, lambda: _sqrt_batch),
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
    return FuncDef(_expr_source(parse(text, variable), variable), (float(interval[0]), float(interval[1])))


def identity_on(interval: tuple[float, float]) -> FuncDef:
    return catalog("identity", (), interval)

