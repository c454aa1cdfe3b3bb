"""Exception hierarchy.

Two broad families matter to the CLI: configuration/input problems
(``ValidationError`` descendants, exit code 2) and numerical failures
raised while an algorithm runs (``NumericError`` descendants, exit code 3).
"""


class LocusKitError(Exception):
    """Base class for all locuskit errors."""


class ValidationError(LocusKitError):
    """Bad parameters, malformed input, or shape problems detected up front."""


class NumericError(LocusKitError):
    """Failure that can only surface while computing."""


# -- validation family --------------------------------------------------

class InvalidParameter(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class DomainError(ValidationError):
    """Concrete (finite-domain) kernel queried off its index set."""


class UnsupportedComposition(ValidationError):
    pass


class NotSquare(ValidationError):
    pass


class SchemaMismatch(ValidationError):
    pass


class ParseError(ValidationError):
    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyCorpus(ValidationError):
    pass


class InvalidSchedule(ValidationError):
    pass


class UnsampleableKernel(ValidationError):
    pass


class NegativeInputForNMF(ValidationError):
    pass


class DesmoothingInput(ValidationError):
    """A difference/Laplacian-flagged matrix fed to stochastic normalization."""


# -- numeric family ------------------------------------------------------

class EmptyNeighborhood(NumericError):
    """All kernel weights vanished and no fallback was allowed."""


class AllEmptyNeighborhoods(NumericError):
    """Every candidate bandwidth produced empty neighborhoods."""


class SingularSystem(NumericError):
    pass


class RankDeficient(NumericError):
    pass


class ZeroDenominator(NumericError):
    pass


class EigenFailure(NumericError):
    pass


class NonFiniteLoss(NumericError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
