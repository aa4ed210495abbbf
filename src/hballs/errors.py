"""Exception types shared across the package."""


class HballsError(Exception):
    """Base class for all package errors."""


class NearSingularEvaluation(HballsError):
    """Kernel evaluation too close to its boundary singularity.

    Carries the offending point/node so callers can report it.
    """

    def __init__(self, message, point=None, node=None):
        super().__init__(message)
        self.point = point
        self.node = node


class DegeneratePair(HballsError):
    """A two-point functional was called with z = w."""


class StepTooLarge(HballsError):
    """A finite-difference stencil would leave the domain."""


class EmptySampleSet(HballsError):
    """A sup-estimate was requested over zero samples."""


class NonFiniteResult(HballsError):
    """A computed derivative or Jacobian is NaN or infinite."""
