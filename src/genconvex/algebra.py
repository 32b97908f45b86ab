"""Closure and composition constructions checkable through the defect.

Sums and positive scalings of class members stay in the class, a pointwise
larger weight can only enlarge the class, and two derived objects, the
composition f(phi(u)) and the segment restriction g(t) = f(t*phi(x) +
m*(1-t)*phi(y)), are built here so the certifier can probe them like any
other function.  The sampled predicates check their grid size first: one
that is not an int, or is a bool, raises TypeError, and one below the
smallest grid a predicate can sample, ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CatalogError, EvalDomainError
from .funcdsl import FuncDef, Source, _finite, _non_finite

__all__ = [
    "combine",
    "DominanceReport",
    "dominance_inclusion",
    "compose_phi",
    "SegmentFunction",
    "segment",
    "is_strictly_linear",
    "is_increasing",
]


def combine(f: FuncDef, g: FuncDef, lam: float = 1.0, mu: float = 1.0) -> FuncDef:
    """Pointwise lam*f + mu*g on the shared domain.

    Evaluation is literally lam*f(u) + mu*g(u), so the defect of a
    combination distributes over the parts to within a couple of ulps; the
    batch form does the same operations through the parts' batch forms.  A
    non-finite value raises EvalDomainError, as the DSL's operations do, so
    no combination returns a NaN whose sign bit depends on how the
    interpreter orders the operands of its add.  A weight that is negative,
    infinite or NaN raises CatalogError.
    """
    if not (0.0 <= lam < math.inf and 0.0 <= mu < math.inf):  # NaN included
        raise CatalogError(f"weights must be finite and nonnegative, got {lam!r}, {mu!r}")
    if f.domain != g.domain:
        raise CatalogError(
            f"mismatched domains {f.domain!r} vs {g.domain!r}; "
            "restrict both functions to the same interval first"
        )
    f_source, g_source = f.source, g.source
    fs, gs = f_source.fn, g_source.fn
    label = f"{lam!r}*({f.label}) + {mu!r}*({g.label})"

    def fn(u):
        v = lam * fs(u) + mu * gs(u)
        if math.isfinite(v):
            return v
        raise _non_finite(v, u)

    def batch(us):
        return _finite([lam * a + mu * b for a, b in zip(f_source.batch(us), g_source.batch(us))])

    return FuncDef(Source(fn, label, _batch=batch), f.domain)


@dataclass(frozen=True)
class DominanceReport:
    """Result of the pointwise weight comparison h2 <= h1 on (0, 1)."""

    dominates: bool
    worst_gap: float  # min over the grid of h1(t) - h2(t)
    argmin_t: float
    grid: int


def dominance_inclusion(h1: FuncDef, h2: FuncDef, grid: int = 201) -> DominanceReport:
    """Check h2(t) <= h1(t) on a deterministic interior grid.

    When it holds, membership under the h2 weight implies membership under
    h1 (the defect only grows pointwise for nonnegative functions), so any
    certification under h2 transfers; callers can confirm by re-running the
    certifier under h1.  The grid needs at least 3 points.
    """
    _check_grid(grid, 3)
    worst = math.inf
    arg = 0.5
    for i in range(1, grid + 1):
        t = i / (grid + 1.0)
        gap = h1(t) - h2(t)
        if gap < worst:
            worst = gap
            arg = t
    return DominanceReport(dominates=worst >= 0.0, worst_gap=worst, argmin_t=arg, grid=grid)


def compose_phi(f: FuncDef, phi: FuncDef) -> FuncDef:
    """Pointwise composition u -> f(phi(u)) on phi's domain.

    phi values falling outside f's domain raise EvalDomainError at
    evaluation time.  Composing with the identity evaluates bit-identically
    to f itself.  The batch form goes through the checked batch forms of
    phi and f.
    """
    label = f"({f.label}) o ({phi.label})"
    f_eval, phi_eval = f._evaluator, phi._evaluator
    return FuncDef(Source(lambda u: f_eval(phi_eval(u)), label,
                          _batch=lambda us: f.batch(phi.batch(us))), phi.domain)


@dataclass(frozen=True)
class SegmentFunction:
    """The one-dimensional restriction g(t) = f(t*phi(x) + m*(1-t)*phi(y)).

    Evaluable for t in [0, 1] wherever the blend point lies in f's domain.
    """

    f: FuncDef
    phi: FuncDef
    m: float
    x: float
    y: float

    def blend(self, t: float) -> float:
        phi = self.phi._evaluator
        return t * phi(self.x) + self.m * (1.0 - t) * phi(self.y)

    def __call__(self, t: float) -> float:
        return self.f._evaluator(self.blend(t))

    def batch(self, ts):
        """This function at every t of the non-empty ``ts``, with the
        operations of ``__call__`` per t, through the checked batch forms of
        phi and f (``FuncDef.batch``)."""
        px, py = self.phi.batch((self.x, self.y))
        m = self.m
        return self.f.batch([t * px + m * (1.0 - t) * py for t in ts])

    def as_funcdef(self) -> FuncDef:
        label = (
            f"segment({self.f.label}; phi={self.phi.label}, m={self.m!r}, "
            f"x={self.x!r}, y={self.y!r})"
        )
        return FuncDef(Source(self.__call__, label, _batch=self.batch), (0.0, 1.0))


def check_int(value, name: str) -> None:
    # a bool is an int to Python, but no count, seed or grid size
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_grid(grid, minimum: int) -> None:
    check_int(grid, "grid")
    if grid < minimum:
        raise ValueError(f"grid must be >= {minimum}")


def check_modulus(m: float) -> None:
    """Raise CatalogError unless m lies in (0, 1], where the classes hold."""
    if not (0.0 < m <= 1.0):
        raise CatalogError(f"modulus m must be in (0, 1], got {m!r}")


def segment(f: FuncDef, phi: FuncDef, m: float, x: float, y: float) -> SegmentFunction:
    """Build the segment restriction, probing a few blend points up front so
    domain violations surface at construction rather than mid-search."""
    check_modulus(m)
    seg = SegmentFunction(f=f, phi=phi, m=float(m), x=float(x), y=float(y))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        seg(t)  # raises EvalDomainError on a bad configuration
    return seg


def is_strictly_linear(phi: FuncDef, grid: int = 33, rel_tol: float = 1e-12) -> bool:
    """Sampled check that phi(u) = c*u (zero intercept).

    A nonzero intercept breaks the blend identity the composition result
    rests on whenever m < 1, so plain affinity is not enough.
    """
    _check_grid(grid, 1)
    lo, hi = phi.domain
    if lo > 0.0 or hi <= 0.0:
        return False
    if abs(phi(0.0)) != 0.0:
        return False
    c = phi(hi) / hi
    for i in range(1, grid + 1):
        u = lo + (hi - lo) * i / (grid + 1.0)
        expected = c * u
        if abs(phi(u) - expected) > rel_tol * max(1.0, abs(expected)):
            return False
    return True


def is_increasing(f: FuncDef, grid: int = 129) -> bool:
    """Sampled monotonicity: nondecreasing finite differences, tolerance 0."""
    _check_grid(grid, 1)
    lo, hi = f.domain
    previous = None
    for i in range(grid + 1):
        u = lo + (hi - lo) * i / grid
        try:
            value = f(u)
        except EvalDomainError:
            continue
        if previous is not None and value < previous:
            return False
        previous = value
    return True
