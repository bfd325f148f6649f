"""Exception types shared across the package.

Every numerical routine raises a subclass of ArslabError so callers (and
the command line driver) can tell validation problems from numerical
failures without parsing messages.  The usage errors BadGrid and
OutOfRange are also ValueErrors, as every other bad-input refusal is.
"""


class ArslabError(Exception):
    """Base class for all errors raised by this package."""


class SingularPoint(ArslabError):
    """A pointwise quantity was requested on the singular set, or where
    it leaves the range of the floats."""


class StepSizeTooLarge(ArslabError):
    """Energy drift along an integrated trajectory exceeded its budget."""


class UnsupportedFrame(ArslabError):
    """The operation is not defined for this frame variant."""


class BadGrid(ArslabError, ValueError):
    """Grid parameters fail a precondition; a usage error, so a ValueError."""


class ConvergenceFailure(ArslabError):
    """A LAPACK eigensolve failed, or its eigenpairs failed their residual,
    orthogonality or Sturm-count certificate."""


class OutOfRange(ArslabError, ValueError):
    """A parameter lies outside the admissible range; a usage error, so a
    ValueError."""


class FitIllConditioned(ArslabError):
    """The deficiency probe's exponent gap is below 1e-3, or its integration fails or overflows."""


class SolverDiverged(ArslabError):
    """A Crank-Nicolson factorization or step failed, or its solution
    failed its residual check."""


class Inconclusive(ArslabError):
    """A study produced data matching none of the admissible verdicts.

    The raw data is attached so callers can report it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
