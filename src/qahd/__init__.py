"""Symbolic-numeric engine for quasi-associated homogeneous distributions.

Values live on R^n minus the origin in the canonical normal form
r^lam * sum_j h_j(omega) log^j r with degree-0 angular coefficients; the
package classifies these forms and cross-validates the four equivalent
characterizations (definitional dilation identity, dilation nilpotency,
Euler-operator nilpotency, structural normal form).
"""

from .errors import (
    AliasRiskError,
    DimensionError,
    DimensionUnsupportedError,
    EvalOverflowError,
    ExpansionLimitError,
    ExprSyntaxError,
    InputError,
    InsufficientSamplesError,
    IntegrabilityError,
    NoFitError,
    NonLiteralExponentError,
    NonPositiveScaleError,
    NotInClassError,
    OriginError,
    QahdError,
    QuadratureLimitError,
    RootSplitError,
    UndefinedDegreeError,
    ZeroInputError,
)
from .expr import (
    Constant,
    LogRadius,
    Negate,
    Power,
    Product,
    Radius,
    Sum,
    Variable,
    differentiate,
    eval_expr,
    parse,
    render,
)
from .identify import (
    SampleSeries,
    annihilation_check,
    multi_probe_recover,
    prony_recover,
    sample_ray,
)
from .logform import (
    AngularPart,
    CoeffArray,
    LogForm,
    MultiForm,
    angular_is_zero,
    canonicalize,
    eval_form,
    forms_equal,
)
from .operators import (
    DEFAULT_A_SAMPLES,
    VerificationReport,
    chain,
    classify,
    delta,
    dilate,
    euler,
    op_power,
    verify_qahd,
)
from .pairing import QuadratureSpec, TestFunction, pair, verify_pairing_identity
from .spectral import build_R, check_group_law, nilpotent_action, shift_matrix

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
