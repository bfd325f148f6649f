"""Exception types shared across the package.

Every numerical routine raises a subclass of ArslabError so callers (and
the command line driver) can tell validation problems from numerical
failures without parsing messages.
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


class BadGrid(ArslabError):
    """Grid parameters fail a precondition."""


class ConvergenceFailure(ArslabError):
    """An iterative solver did not reach its certified tolerance."""


class OutOfRange(ArslabError):
    """A parameter lies outside the admissible range."""


class FitIllConditioned(ArslabError):
    """The two fitting exponents are too close to separate."""


class SolverDiverged(ArslabError):
    """A linear solve failed to converge."""


class Inconclusive(ArslabError):
    """A study produced data matching none of the admissible verdicts.

    The raw data is attached so callers can report it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
