"""The package's exception types, the printer of values in their messages, and the reader of outside numbers.

A fault in the caller's input is also a ValueError, and the CLI exits 1 on
it; a state that fails its check is a StateValidationError and exits 2.
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


def _parsed(kind: type, text: str):
    """kind(text) for a str, int or float from a file; a text that does not convert is shown by _shown."""
    try:
        return kind(text)
    except ValueError as exc:  # int() and float() end their message with the text's whole repr
        raise ValueError(f"{str(exc).partition(': ')[0]}: {_shown(text)}") from None


def _numbers(name: str, value, dtype: type = float) -> np.ndarray:
    """The one reader of outside numbers: `value` as a new `dtype` array of ints, floats, or complex if `dtype` is."""
    kinds, wanted, numbers = ("iufc", "numeric", "numbers") if dtype is complex else ("iuf", "real", "real numbers")
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        raise ValueError(f"{name} must be an array of {numbers}") from None
    if array.dtype.kind not in kinds:  # a bool, a str, or an object: None, a Fraction, an int past 64 bits
        raise ValueError(f"{name} must be {wanted}, got dtype {array.dtype}")
    return array.astype(dtype)  # the caller's own copy, in double precision whatever numpy's promotion rules
