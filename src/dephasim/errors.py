"""Exception types shared across the package, and the printer of values in their messages.

A fault in the caller's input is also a ValueError, and the CLI exits 1 on
it; any other DephasimError is a numerical failure and exits 2.
"""

import numpy as np


class DephasimError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(DephasimError, ValueError):
    """Matrix shape or subsystem dimensions do not fit, or are not supported by, the operation."""


class ParseError(DephasimError, ValueError):
    """Malformed ket expression, or one whose amplitudes all cancel. Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StateValidationError(DephasimError):
    """A given or computed state violates an invariant; the message prints the violation magnitude."""

    def __init__(self, message: str, magnitude: float):
        super().__init__(f"{message} (magnitude {magnitude:.3e})")


def _shown(value) -> str:
    """repr(value) for an error message; an array, or a repr over 500 characters, gets a placeholder."""
    if isinstance(value, np.ndarray):  # its repr prints every entry
        return f"<{type(value).__name__} of shape {value.shape} and dtype {value.dtype}>"
    try:
        shown = repr(value)
        if len(shown) <= 500:  # a 401-digit int is shown in full
            return shown
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        pass
    return f"<{type(value).__name__} too long to print>"
