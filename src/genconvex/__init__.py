"""genconvex: executable generalized-convexity checks.

Decide (by sampled certification and counterexample search) whether a
scalar function belongs to a family of weighted convexity classes, and
numerically verify the associated Hermite-Hadamard-type integral
inequalities with explicit margins and quadrature error bounds.
"""

from .algebra import (
    DominanceReport,
    SegmentFunction,
    combine,
    compose_phi,
    dominance_inclusion,
    is_increasing,
    is_strictly_linear,
    segment,
)
from .classes import (
    CLASS_TAGS,
    CertificationReport,
    ClassSpec,
    Counterexample,
    certify_sampled,
    class_spec,
    defect,
    falsify,
)
from .errors import (
    CatalogError,
    EvalDomainError,
    ExpressionSyntaxError,
    GenConvexError,
    IntegrandError,
    OrientationError,
    PhiRangeError,
    ScenarioError,
    UnknownSymbolError,
    WeightError,
)
from .funcdsl import (
    CATALOG_FAMILIES,
    Expr,
    FuncDef,
    catalog,
    evaluate,
    func_from_expr,
    infer_variable,
    parse,
    to_source,
)
from .quad import Integral, h_moments, integrate
from .theorems import (
    BACKGROUND_IDS,
    MAIN_IDS,
    REDUCTION_PAIRS,
    ReductionReport,
    Verdict,
    check_reduction,
    verify,
    verify_background,
    verify_t2_1,
    verify_t2_2,
    verify_t2_2dot,
    verify_t2_3,
)

__version__ = "0.1.0"
