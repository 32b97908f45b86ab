"""Exception hierarchy shared by all genconvex modules."""

from __future__ import annotations


class GenConvexError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionSyntaxError(GenConvexError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExpressionSyntaxError):
    """Identifier that is neither the declared variable nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown symbol '{name}'", offset)
        self.name = name


class CatalogError(GenConvexError, ValueError):
    """Unknown catalog family or invalid family parameters."""


class EvalDomainError(GenConvexError):
    """Evaluation requested outside a function's domain, or at a point where
    a partial operation (sqrt, ln, division, pow) is undefined or overflows.

    ``point`` is the offending abscissa when known.
    """

    def __init__(self, message: str, point: float | None = None):
        super().__init__(message)
        self.point = point


class PhiRangeError(EvalDomainError):
    """A deformation map produced a value outside the class domain."""


class OrientationError(GenConvexError, ValueError):
    """Integration or verification interval has non-positive length."""


class WeightError(GenConvexError, ValueError):
    """A weight function violates a bound's precondition, such as T1_9's
    h(1/2) > 0."""


class IntegrandError(GenConvexError):
    """Integrand returned a non-finite value, or the integral overflowed;
    ``point`` is the abscissa of the value, None for an overflow."""

    def __init__(self, message: str, point: float | None = None):
        super().__init__(message if point is None else f"{message} at u={point!r}")
        self.point = point


class ScenarioError(GenConvexError):
    """Scenario file violates the schema; ``field`` is the offending path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
