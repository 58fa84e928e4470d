"""Exception hierarchy for the slconv package.

Two top-level branches matter for the CLI: ValidationError maps to exit
code 1 (bad input or parameters), NumericError maps to exit code 2
(an algorithm failed to meet its accuracy or convergence contract).
"""


class SLError(Exception):
    """Base class for all slconv errors."""


class ValidationError(SLError):
    """Invalid input: expressions, parameters, configuration."""


class NumericError(SLError):
    """A numerical routine failed to converge or meet tolerance."""


# --- expression language ---

class SyntaxError(ValidationError):  # noqa: A001 - deliberate, scoped to this module
    """Parse failure, with position and the set of expected tokens."""

    def __init__(self, position, expected, message=None):
        self.position = position
        self.expected = set(expected)
        if message is None:
            message = "syntax error at position %d, expected one of %s" % (
                position, sorted(self.expected))
        super().__init__(message)


class UnknownFunction(ValidationError):
    def __init__(self, name):
        self.name = name
        super().__init__("unknown function '%s'" % name)


class DomainError(ValidationError):
    """Expression evaluated outside its real domain (NaN/complex result)."""


# --- problems, families, parameters ---

class ParamOutOfRange(ValidationError):
    pass


class NonMonotone(NumericError):
    """Numeric change of variables failed strict monotonicity."""


class SpectralMeasureUnavailable(ValidationError):
    pass


class ExponentMismatch(ValidationError):
    """Young exponents do not satisfy 1/s = 1/p1 + 1/p2 - 1."""


# --- quadrature and convergence ---

class InconclusiveDivergence(NumericError):
    """Improper integral neither converged nor passed the growth test."""


class QuadratureBudgetExceeded(NumericError):
    pass


class TailNotDecaying(NumericError):
    pass


class SlowDecay(NumericError):
    pass


class KappaNotConverged(NumericError):
    pass


class NegativeDensity(NumericError):
    pass


class GridOverflow(NumericError):
    pass


class TruncationFailed(NumericError):
    pass


class RangeNotValidated(ValidationError):
    pass


class CFLViolation(ValidationError):
    pass


class SingularCoefficient(NumericError):
    pass


class MassDeficit(NumericError):
    """Inverse-transform density mass deviates from 1 beyond tolerance."""


class TailTooLarge(NumericError):
    pass


class IntegralDiverges(NumericError):
    pass


class MomentProbeFailed(NumericError):
    pass
