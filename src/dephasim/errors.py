"""Exception types shared across the package, and the printer of values in their messages.

A fault in the caller's input is also a ValueError, and the CLI exits 1 on
it; any other DephasimError is a numerical failure and exits 2.
"""


class DephasimError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(DephasimError, ValueError):
    """Matrix shape or subsystem dimensions do not fit, or are not supported by, the operation."""


class ParseError(DephasimError, ValueError):
    """Malformed ket expression. Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroNormError(DephasimError, ValueError):
    """All amplitudes cancelled; the expression has zero norm."""


class StateValidationError(DephasimError):
    """A density-matrix invariant is violated; the message prints the violation magnitude."""

    def __init__(self, message: str, magnitude: float):
        super().__init__(f"{message} (magnitude {magnitude:.3e})")


def _shown(value) -> str:
    """repr(value) for an error message, or a placeholder where repr refuses an int of too many digits."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"<{type(value).__name__} too long to print>"
