"""Exception types shared across the package."""


class DephasimError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(DephasimError):
    """Matrix shape or subsystem dimensions are inconsistent with the operation."""


class UnsupportedDimensionError(DephasimError):
    """The operation is not available for these subsystem dimensions."""


class ParseError(DephasimError):
    """Malformed ket expression. Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LabelError(ParseError):
    """Ket label outside the subsystem alphabet."""


class ZeroNormError(DephasimError):
    """All amplitudes cancelled; the expression has zero norm."""


class StateValidationError(DephasimError):
    """A density-matrix invariant is violated. Carries the violation magnitude."""

    def __init__(self, message: str, magnitude: float):
        super().__init__(f"{message} (magnitude {magnitude:.3e})")
        self.magnitude = magnitude


class NotHermitianError(StateValidationError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOneError(StateValidationError):
    """Trace differs from one beyond tolerance."""


class NotPositiveError(StateValidationError):
    """Minimum eigenvalue is below the positivity floor."""


class NotXFormError(DephasimError):
    """Matrix carries weight outside the diagonal-plus-central-coherence positions."""


class GridMismatchError(DephasimError):
    """Two sweeps do not share the same sample grid."""
