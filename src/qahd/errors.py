"""Exception hierarchy shared by all qahd modules."""


class QahdError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(QahdError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


class DimensionError(QahdError):
    """Variable index exceeds the declared ambient dimension."""


class NonLiteralExponentError(QahdError):
    """Exponent is not a numeric literal."""


class OriginError(QahdError):
    """Evaluation requested at x = 0."""


class EvalOverflowError(QahdError):
    """Evaluation left the representable floating-point range."""


class NotInClassError(QahdError):
    """Expression cannot be rewritten into the canonical log-power class."""


class ExpansionLimitError(QahdError):
    """Expansion into monomials exceeds the term or degree budget."""


class NonPositiveScaleError(QahdError):
    """Dilation scale must be positive."""


class ZeroInputError(QahdError):
    """Operation is undefined on the zero form."""


class UndefinedDegreeError(QahdError):
    """Degree/order query on the zero form."""


class IntegrabilityError(QahdError):
    """Pairing requested for a non-integrable degree with origin in support."""


class DimensionUnsupportedError(QahdError):
    """Pairing quadrature only implemented for n in {1, 2, 3}."""


class InsufficientSamplesError(QahdError):
    """Sample series too short for the requested difference order."""


class NoFitError(QahdError):
    """No recurrence order up to k_max+1 fits the sample series."""


class RootSplitError(QahdError):
    """Characteristic roots do not form a single cluster."""


class AliasRiskError(QahdError):
    """Imaginary part of the recovered degree too large for the step."""
