"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Base class for all toolkit errors."""


class RingMismatchError(AlgebraError):
    """Operands live in different rings."""


class ZeroPolynomialError(AlgebraError):
    """A nonzero polynomial was required."""


class NotBigradedError(AlgebraError):
    """Operation needs a bigraded ring."""


class HomogeneityError(AlgebraError):
    """Input is not (bi)homogeneous where required."""


class ResourceLimitError(AlgebraError):
    """A configured size or degree cap was exceeded.

    Carries partial diagnostics so runaway computations fail loudly
    instead of truncating silently.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class WrongOracleError(AlgebraError):
    """The monomial-only oracle was fed a non-monomial ideal."""


class UnsupportedInputError(AlgebraError):
    """Input outside the supported fragment (names what is missing)."""


class InternalConsistencyError(AlgebraError):
    """Two independent routes to the same value disagreed."""


class TheoremViolationError(AlgebraError):
    """A proved inequality failed: this signals an implementation bug."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class SessionSyntaxError(AlgebraError):
    """Session-script parse error with position information."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class NameResolutionError(AlgebraError):
    """A task refers to an undeclared name."""
