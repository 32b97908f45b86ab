"""Scalar function DSL: expression parsing, evaluation, and named catalogs.

Functions of one real variable are the currency of the whole package: the
target function f, the weight h, and the deformation map phi are all values
of :class:`FuncDef`.  A FuncDef couples a :class:`Source` with a closed
domain interval ``[lo, hi]``; evaluation outside the interval is an error,
never an extrapolation.  Every source, whether a parsed expression tree, a
catalog family or a derived pointwise construction, is the same record: the
callable ``fn``, built once, a label rendered at most once, and the key
that is its identity.  An expression tree is compiled into closures that
evaluate it exactly as the tree semantics below do.

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

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Optional, Union

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
    "constant_on",
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
                float(lexeme)
            except ValueError:
                raise ExpressionSyntaxError(
                    f"malformed number '{lexeme}'", _byte_offset(text, start)
                ) from None
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


def parse(text: str, variable: str) -> Expr:
    """Parse ``text`` into an expression tree over the single ``variable``.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input and :class:`UnknownSymbolError` for identifiers that are neither
    the variable nor one of sqrt/exp/ln/abs.
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


def eval_expr(node: Expr, value: float) -> float:
    """Evaluate a tree at ``value``; pure, raises EvalDomainError on partial
    operations (sqrt of negative, ln of non-positive, division by zero,
    undefined pow) and on a non-finite result of exp or a binary operation.

    Compiles the tree on every call; a FuncDef compiles it once.
    """
    return _compile(node)(value)


# --------------------------------------------------------------------------
# FuncDef and the named catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """What a FuncDef evaluates.  ``fn``, built once, evaluates it without a
    domain check and takes no part in equality, hashing or repr; ``key`` is
    its identity: ``("expr", tree, variable)``, ``("catalog", family,
    params)``, or by default ``(fn, label)``, so that a derived construction
    (sum, scaling, composition, restriction) is equal only to itself."""

    fn: Callable[[float], float] = field(repr=False, compare=False)
    _label: Optional[str] = field(repr=False, compare=False)
    key: Hashable = None

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", (self.fn, self._label))

    @property
    def label(self) -> str:
        # an expression source is built without its label, which renders the
        # tree: most built functions never show theirs
        if self._label is None:
            object.__setattr__(self, "_label", to_source(self.key[1]))
        return self._label

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


def _catalog_source(family: str, params: tuple[float, ...]) -> Source:
    fn = _FAMILIES[family].build(*params)
    label = f"{family}({','.join(repr(p) for p in params)})"
    return Source(fn, label, ("catalog", family, params))


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


@dataclass(frozen=True)
class FuncDef:
    """A scalar function of one variable restricted to a closed interval.

    Its evaluator, the source behind the domain check, is built once when
    the FuncDef is created and takes no part in equality, hashing or repr.
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


def evaluate(f: FuncDef, u: float) -> float:
    """Evaluate ``f`` at ``u``; raises EvalDomainError outside the domain."""
    return f._evaluator(u)


# --- catalog families: each binds its parameters into one closure ----------

def _constant(c):
    return lambda u: c


def _power_family(s):
    def power(u):
        if u < 0.0:
            raise EvalDomainError(f"power family undefined below 0 ({u!r})", u)
        return _pow(u, s, u)
    return power


def _recip_power_family(s):
    neg_s = -s

    def recip_power(u):
        if u <= 0.0:
            raise EvalDomainError(f"recip_power undefined at {u!r}", u)
        return _pow(u, neg_s, u)
    return recip_power


def _affine(c0, c1):
    return lambda u: c0 + c1 * u


def _poly(*coeffs):
    highest_first = coeffs[::-1]

    def horner(u):
        acc = 0.0
        for c in highest_first:
            acc = acc * u + c
        return acc
    return horner


def _sqrt_family(u):
    if u < 0.0:
        raise EvalDomainError(f"sqrt of negative {u!r}", u)
    return math.sqrt(u)


class _Family(NamedTuple):
    arity: int | None  # None: any number >= 1
    natural_lo: float
    build: Callable[..., Callable[[float], float]]


_FAMILIES = {
    "identity": _Family(0, -math.inf, lambda: _identity),
    "constant": _Family(1, -math.inf, _constant),
    "power": _Family(1, 0.0, _power_family),
    "recip_power": _Family(1, 0.0, _recip_power_family),
    "affine": _Family(2, -math.inf, _affine),
    "poly": _Family(None, -math.inf, _poly),
    "sqrt": _Family(0, 0.0, lambda: _sqrt_family),
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


def constant_on(c: float, interval: tuple[float, float]) -> FuncDef:
    return catalog("constant", (c,), interval)
