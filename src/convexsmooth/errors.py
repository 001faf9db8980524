"""Exception types raised across the toolkit."""


class ConvexSmoothError(Exception):
    """Base class for every toolkit-specific error."""


class InvalidBody(ConvexSmoothError):
    """A body description violates one of its invariants; the message names it."""


class DegenerateBall(ConvexSmoothError):
    """The origin is not interior to the ball (radius^2 - |center|^2 <= 0)."""


class InsufficientData(ConvexSmoothError):
    """Too few sample points to evaluate a certificate."""


class NotBallBody(ConvexSmoothError):
    """Operation needs the closed-form ball gauge and got another body type."""


class DomainViolation(ConvexSmoothError):
    """An evaluation point left the open domain of a closed-form expression."""


class NonConvergence(ConvexSmoothError):
    """Iteration cap reached before the requested tolerance."""


class OutsideDomain(ConvexSmoothError):
    """Interior query point outside the boundary projection's domain: its
    nearest sphere lies R/2 or more deep, or the next one less than three
    times as deep (a violated hypothesis, not a numerical failure)."""


class RayMiss(ConvexSmoothError):
    """A probe ray has no exit from the outer body: its inner boundary point
    lies outside the outer body, or the outer body is unbounded along it."""


class BracketFailure(ConvexSmoothError):
    """A ray has no boundary crossing: a halfspace body is unbounded along
    it, or the bisection reference finds none below its radius cap."""


class GridMismatch(ConvexSmoothError):
    """Two meshes do not share the same direction grid."""


class ShrinkDelta(ConvexSmoothError):
    """Blend width too large: the ridge tube eats too much boundary measure."""


class DegenerateEpsilon(ConvexSmoothError):
    """Tolerance parameter outside the open interval (0, 1/4)."""
