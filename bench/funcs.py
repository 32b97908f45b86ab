"""The benchmark's own model of the functions it hands to genconvex.

Every function a job uses is described here once and rendered three ways:
as the genconvex object (DSL text, catalog reference or algebra
construction), as a scenario binding for the CLI path, and as a Python
formula the oracle evaluates without any genconvex code.

Expression trees are tuples: ``("x",)``, ``("c", value)`` with value >= 0,
``(op, arg)`` for op in neg/sqrt/exp/ln/abs, and ``(op, left, right)`` for
op in + - * / ^.  Their node count equals the node count of the tree
genconvex parses from the rendered text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UNARY = ("neg", "sqrt", "exp", "ln", "abs")
_FUNCS = {"sqrt": math.sqrt, "exp": math.exp, "ln": math.log, "abs": abs}


def nodes(e) -> int:
    return 1 + sum(nodes(child) for child in e[1:] if isinstance(child, tuple))


def render(e, var: str = "x") -> str:
    tag = e[0]
    if tag == "x":
        return var
    if tag == "c":
        return repr(e[1])
    if tag == "neg":
        return f"-({render(e[1], var)})"
    if tag in UNARY:
        return f"{tag}({render(e[1], var)})"
    return f"({render(e[1], var)}){tag}({render(e[2], var)})"


def eval_tree(e, u):
    tag = e[0]
    if tag == "x":
        return u
    if tag == "c":
        return e[1]
    if tag == "neg":
        return -eval_tree(e[1], u)
    if tag in UNARY:
        return _FUNCS[tag](eval_tree(e[1], u))
    a = eval_tree(e[1], u)
    b = eval_tree(e[2], u)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if tag == "/":
        return a / b
    return math.pow(a, b)


# --------------------------------------------------------------------------
# Random trees of an exact node count.  Safety is by construction: "pos"
# trees are strictly positive on [0, 1], so ln, division and fractional
# powers of them are defined; "small" trees stay within a few units.
# --------------------------------------------------------------------------

def _const(rng, lo, hi):
    return ("c", round(rng.uniform(lo, hi), 3))


def gen_pos(rng, n, smooth):
    if n == 1:
        return _const(rng, 0.5, 3.0)
    if n == 2:
        return rng.choice([("exp", ("x",)), ("sqrt", _const(rng, 0.5, 3.0))])
    options = ["add", "mul", "div", "exp", "sqrt"]
    if n >= 4:
        options.append("pow")
    if n >= 4 and not smooth:
        options.append("abs")
    if n == 3:
        options.append("shift")
    kind = rng.choice(options)
    if kind == "shift":
        return ("+", ("x",), _const(rng, 0.5, 2.0))
    if kind in ("add", "mul", "div"):
        a = rng.randint(1, n - 2)
        op = {"add": "+", "mul": "*", "div": "/"}[kind]
        return (op, gen_pos(rng, a, smooth), gen_pos(rng, n - 1 - a, smooth))
    if kind == "exp":
        return ("exp", gen_small(rng, n - 1))
    if kind == "sqrt":
        return ("sqrt", gen_pos(rng, n - 1, smooth))
    if kind == "pow":
        return ("^", gen_pos(rng, n - 2, smooth), ("c", rng.choice([2.0, 3.0, 0.5, 1.5])))
    return ("+", ("abs", gen_any(rng, n - 3, smooth)), _const(rng, 0.5, 2.0))


def gen_small(rng, n):
    if n == 1:
        return rng.choice([("x",), _const(rng, 0.1, 2.0)])
    if n == 2:
        return ("neg", ("x",))
    if n == 3:
        return rng.choice([("*", _const(rng, 0.2, 2.0), ("x",)), ("-", ("x",), _const(rng, 0.1, 1.0))])
    kind = rng.choice(["ln", "neg", "sub", "scale"])
    if kind == "ln":
        return ("ln", gen_pos(rng, n - 1, True))
    if kind == "neg":
        return ("neg", gen_small(rng, n - 1))
    if kind == "sub":
        a = rng.randint(1, n - 2)
        return ("-", gen_small(rng, a), gen_small(rng, n - 1 - a))
    return ("*", _const(rng, 0.1, 1.0), gen_small(rng, n - 2))


def gen_any(rng, n, smooth):
    kind = rng.choice(["pos", "small", "diff", "ln"] if n >= 3 else ["pos", "small"])
    if kind == "pos":
        return gen_pos(rng, n, smooth)
    if kind == "small":
        return gen_small(rng, n)
    if kind == "ln":
        return ("ln", gen_pos(rng, n - 1, smooth))
    a = rng.randint(1, n - 2)
    return ("-", gen_pos(rng, a, smooth), gen_pos(rng, n - 1 - a, smooth))


def has_var(e) -> bool:
    return e[0] == "x" or any(isinstance(c, tuple) and has_var(c) for c in e[1:])


# Largest |f| on [0, 1] for functions that are integrated.  genconvex's
# tolerance is absolute (1e-10) while its per-panel error floor grows with
# |f|, so integrands of a few thousand exhaust the budget instead (see
# CHANGES.md); products of two functions stay below 10 * 10.
SMOOTH_MAX_ABS = 10.0


def gen_smooth(rng, n):
    """A smooth, non-constant expression of n >= 4 nodes using exp, ln or
    sqrt, with |f| <= SMOOTH_MAX_ABS on [0, 1]."""
    while True:
        tree = gen_any(rng, n, smooth=True)
        if not (has_var(tree) and any(op in render(tree) for op in ("exp", "ln", "sqrt"))):
            continue
        if all(abs(eval_tree(tree, i / 16)) <= SMOOTH_MAX_ABS for i in range(17)):
            return tree


# --------------------------------------------------------------------------
# Function descriptions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Dsl:
    tree: tuple
    var: str = "x"
    domain: tuple = (0.0, 1.0)

    @property
    def text(self):
        return render(self.tree, self.var)

    def build(self, gc):
        return gc.funcdsl.func_from_expr(self.text, self.var, self.domain)

    def binding(self):
        return {"expr": self.text, "variable": self.var, "domain": list(self.domain)}

    def ev(self, u):
        return eval_tree(self.tree, u)

    def poly(self):
        return None


@dataclass(frozen=True)
class Catalog:
    family: str
    params: tuple = ()
    domain: tuple = (0.0, 1.0)

    def build(self, gc):
        return gc.funcdsl.catalog(self.family, self.params, self.domain)

    def binding(self):
        return {"family": self.family, "params": list(self.params), "domain": list(self.domain)}

    def ev(self, u):
        p = self.params
        if self.family == "identity":
            return u
        if self.family == "constant":
            return p[0]
        if self.family == "power":
            return math.pow(u, p[0])
        if self.family == "affine":
            return p[0] + p[1] * u
        if self.family == "poly":
            return sum(c * u**k for k, c in enumerate(p))
        if self.family == "sqrt":
            return math.sqrt(u)
        raise ValueError(self.family)

    def poly(self):
        """Ascending coefficients when the function is a polynomial."""
        if self.family == "identity":
            return (0.0, 1.0)
        if self.family in ("constant", "affine", "poly"):
            return self.params
        if self.family == "power" and float(self.params[0]).is_integer() and self.params[0] >= 0:
            return (0.0,) * int(self.params[0]) + (1.0,)
        return None


@dataclass(frozen=True)
class Combine:
    f: object
    g: object
    lam: float
    mu: float

    def build(self, gc):
        return gc.algebra.combine(self.f.build(gc), self.g.build(gc), self.lam, self.mu)

    def ev(self, u):
        return self.lam * self.f.ev(u) + self.mu * self.g.ev(u)


@dataclass(frozen=True)
class Compose:
    f: object
    phi: object

    def build(self, gc):
        return gc.algebra.compose_phi(self.f.build(gc), self.phi.build(gc))

    def ev(self, u):
        return self.f.ev(self.phi.ev(u))


@dataclass(frozen=True)
class Segment:
    f: object
    phi: object
    m: float
    x: float
    y: float

    def build(self, gc):
        return gc.algebra.segment(self.f.build(gc), self.phi.build(gc), self.m, self.x, self.y).as_funcdef()

    def ev(self, u):
        px, py = self.phi.ev(self.x), self.phi.ev(self.y)
        return self.f.ev(u * px + self.m * (1.0 - u) * py)


def power_weight(s: float, as_dsl: bool = False):
    """h(t) = t^s, as a catalog reference or as DSL text in the variable t."""
    if as_dsl:
        return Dsl(("^", ("x",), ("c", s)) if s >= 0 else ("^", ("x",), ("neg", ("c", -s))), var="t")
    return Catalog("power", (s,))


# --------------------------------------------------------------------------
# Polynomial helpers for closed-form averages (any numeric type)
# --------------------------------------------------------------------------

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly_reflect(p, c):
    """Coefficients of u -> p(c - u)."""
    out = [0] * len(p)
    for k, a in enumerate(p):
        for j in range(k + 1):
            out[j] = out[j] + a * math.comb(k, j) * c ** (k - j) * (-1) ** j
    return out


def poly_average(p, a, b):
    """(1/(b-a)) * integral of p over [a, b]."""
    def antiderivative(u):
        return sum(c * u ** (k + 1) / (k + 1) for k, c in enumerate(p))
    return (antiderivative(b) - antiderivative(a)) / (b - a)
