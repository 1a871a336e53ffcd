"""Exception hierarchy shared by all qahd modules, and the two checks that
guard the numeric domain.

The class of an error fixes the command line's exit code: an `InputError`
(input outside the engine's domain) exits 2, any other `QahdError` (a
numerical failure on valid input) exits 3.
"""

import cmath
import math

import numpy as np


class QahdError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QahdError):
    """The input is outside the engine's domain."""


class ExprSyntaxError(InputError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


class DimensionError(InputError):
    """Variable index exceeds the declared ambient dimension."""


class NonLiteralExponentError(InputError):
    """Exponent is not a numeric literal."""


class OriginError(InputError):
    """Evaluation requested at x = 0."""


class EvalOverflowError(QahdError):
    """Evaluation left the representable floating-point range."""


class NotInClassError(InputError):
    """Expression cannot be rewritten into the canonical log-power class."""


class ExpansionLimitError(InputError):
    """Expansion into monomials exceeds the term or degree budget."""


class NonPositiveScaleError(InputError):
    """Dilation scale or bump width is not positive and finite."""


class ZeroInputError(InputError):
    """Operation is undefined on the zero form."""


class UndefinedDegreeError(InputError):
    """Degree/order query on the zero form."""


class IntegrabilityError(InputError):
    """Pairing requested for a non-integrable degree with origin in support."""


class DimensionUnsupportedError(InputError):
    """Pairing quadrature only implemented for n in {1, 2, 3}."""


class QuadratureLimitError(InputError):
    """Quadrature grid larger than the pairing's fixed limit."""


class InsufficientSamplesError(InputError):
    """Sample series too short for the requested difference order."""


class NoFitError(QahdError):
    """No recurrence order up to k_max+1 fits the sample series."""


class RootSplitError(QahdError):
    """Characteristic roots do not form a single cluster."""


class AliasRiskError(QahdError):
    """Imaginary part of the recovered degree too large for the step."""


def check_scale(a, what: str) -> None:
    """Refuse a scale that is not finite and positive, the domain of U_a."""
    if not (math.isfinite(a) and a > 0):
        raise NonPositiveScaleError(f"{what} must be positive and finite, got {a}")


def check_finite(values, what: str, *args) -> None:
    """Refuse a result (a number or an array) holding an inf or a NaN.

    The message names `what.format(*args)`, formatted only on failure, so
    that a check on a hot path costs no string formatting.
    """
    if isinstance(values, (float, complex)):
        finite = cmath.isfinite(values)  # far cheaper than numpy on a scalar
    else:
        finite = np.isfinite(values).all()
    if not finite:
        raise EvalOverflowError(f"{what.format(*args)} overflowed the floating-point range")
