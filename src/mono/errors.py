"""Exception taxonomy.

Two top-level families matter to callers: PreconditionError means the input
or requested configuration is outside the contract (CLI exit code 2);
NumericalError means the computation was attempted and could not be
completed to tolerance (CLI exit code 3).
"""


class MonoError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(MonoError):
    """Input violates a documented precondition."""


class NumericalError(MonoError):
    """A numerical procedure failed to meet its tolerance contract."""


class EvalRangeError(PreconditionError, OverflowError):
    """Argument would overflow binary64 under exponentiation."""


class SingularArgumentError(PreconditionError, ValueError):
    """Argument sits exactly on a logarithmic singularity."""


class BoundaryTooCloseError(PreconditionError):
    """A root lies too close to a counting-contour boundary.

    Carries the offending clearance and boundary location so callers can
    jitter the window and retry.
    """

    def __init__(self, message, *, clearance=None, location=None):
        super().__init__(message)
        self.clearance = clearance
        self.location = location


class ConvergenceError(NumericalError):
    """Iteration exhausted its budget; carries the last iterate."""

    def __init__(self, message, *, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class ResidualTooLargeError(NumericalError):
    """A contour's winding number could not be certified: boundary pieces
    still fail every test at the finest spacing, or too many fail at one
    level, and Newton names no root next to an edge."""


class SubdivisionError(NumericalError):
    """Recursive window subdivision hit its depth limit."""


class StepUnderflowError(NumericalError):
    """No continuation step above the floor could be certified.

    Usually means the path runs too close to a critical value, where two
    roots merge; the label that failed, its arc position and the nearest
    critical value are attached for diagnostics.
    """

    def __init__(self, message, *, label=None, arc_param=None, nearest_critical=None):
        super().__init__(message)
        self.label = label
        self.arc_param = arc_param
        self.nearest_critical = nearest_critical


class UnmatchedRootError(NumericalError):
    """End-of-loop root positions could not be matched to the start set."""

    def __init__(self, message, *, label=None, distance=None):
        super().__init__(message)
        self.label = label
        self.distance = distance


class PathContinuityError(PreconditionError):
    """Path segments fail to join end-to-start within tolerance."""
