"""Exception types shared across the package."""


class MeasureOdeError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatch(MeasureOdeError):
    """Matrix or vector shapes are inconsistent with the system size."""


class OutOfInterval(MeasureOdeError):
    """A point lies outside the interval or window it is evaluated on."""


class SingularJ(MeasureOdeError):
    """The constant coefficient matrix in front of the derivative is singular."""


class SingularAtom(MeasureOdeError):
    """A jump is too large to propagate through: J + dq/2 is singular.

    Such a point has to become a partition point; it cannot sit inside a
    subinterval on which fundamental matrices are built.
    """

    def __init__(self, message: str, position: float | None = None):
        super().__init__(message)
        self.position = position


class SingularInitialPoint(MeasureOdeError):
    """The fundamental matrix at an initial point is numerically singular.

    No value prescribed there determines a solution in floating point, or
    the solution found misses the prescribed value.
    """


class EmptyWindow(MeasureOdeError):
    """A window [lo, hi] with lo >= hi was requested."""


class NotRepresentable(MeasureOdeError):
    """A right-hand side does not fit the piecewise-constant representation."""


class NotInKernel(MeasureOdeError):
    """A vector claimed to lie in a kernel fails the membership test."""


class InconsistentLift(MeasureOdeError):
    """The two reconstruction formulas disagree on their overlap."""


class LiftEndpointNonzero(MeasureOdeError):
    """A lift that must vanish at the window ends produced nonzero blocks."""


class WindowMismatch(MeasureOdeError):
    """Two objects that must share a window are defined on different ones."""


class MissingRHS(MeasureOdeError):
    """An operation that needs a right-hand side was called without one."""


class ParseError(MeasureOdeError):
    """A problem file is malformed; carries a short context path."""

    def __init__(self, message: str, context: str = ""):
        super().__init__(f"{context}: {message}" if context else message)
        self.context = context
