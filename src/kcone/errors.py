"""Exception types shared across the package."""

__all__ = ["KConeError", "ManifoldFormatError", "NonPositiveVolume", "IndefiniteMetric",
           "LeftCone", "DegeneratePlane"]


class KConeError(Exception):
    """Base class for all library errors."""


class ManifoldFormatError(KConeError):
    """A manifold file violates the input schema."""


class NonPositiveVolume(KConeError):
    """The class lies outside the volume cone (vol <= 0)."""


class IndefiniteMetric(KConeError):
    """The class has positive volume but its Gram matrix is not positive
    definite, so it cannot be a Kahler class."""


class LeftCone(KConeError):
    """A geodesic reached the boundary of the admissible cone.

    Carries the curve parameter at which admission first failed.
    """

    def __init__(self, t, message=None):
        self.t = float(t)
        super().__init__(message or f"geodesic left the admissible cone at t={t!r}")

    def __reduce__(self):   # args holds only the message; rebuild with t
        return type(self), (self.t, str(self))


class DegeneratePlane(KConeError):
    """Sectional curvature requested for a degenerate 2-plane."""
