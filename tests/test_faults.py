"""Every fault of the library's boundaries, in one table: the call, its exact type and its whole message.

The boundaries are the paper's objects: the ket of the initial state, a
checked density matrix, the drive omega1 and the pulse time gamma T, the
X-form of the stationary state, a sweep's configuration and result, and its
CSV file. The command line's faults are rows of `_CLI_RUNS` in
test_package.py; the unsupported dims of every state and operator are
`_UNSUPPORTED_DIMS` in test_states.py.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from dephasim import (
    DensityMatrix,
    DimensionMismatchError,
    ParseError,
    StateValidationError,
    StationaryXForm,
    SweepConfig,
    SweepResult,
    compare_windows,
    parse_ket_expression,
    partial_transpose,
    qutrit_sufficient_entangled,
    read_csv,
    run_qutrit_scan,
    run_sweep,
    stationary_xforms,
    validate,
)
from dephasim.engine import build_liouvillian, evolve, extract_xform
from dephasim.sweep import CSV_HEADER
from test_sweep import _FINITE_RESULT

_B300 = "1" + "0" * 300  # 1e300 in digits
_TINY = "0." + "0" * 400 + "1"  # a nonzero numeral that underflows to 0.0
_SINGLET = parse_ket_expression("(|10> - |01>)/sqrt(2)", (2, 2))
_QUTRITS = parse_ket_expression("|0,0>", (3, 3))
_CANCELLED = "all amplitudes cancel (at position 0)"
_NOT_A_FLOAT = "coefficient does not fit a float (at position {})"
_TRIPLE = "every maximum must be a (gamma_T, concurrence, mutual_information) triple"
# Values that are not one real number that fits a float: the row id, the value, its text in a message and the
# dtype of a list that holds it. math.isfinite would raise OverflowError on the ints, and repr raises
# ValueError on an int of more than sys.get_int_max_str_digits() digits.
_NOT_REAL = [
    ("5", "5", "'5'", "<U1"),
    ("1j", 1j, "1j", "complex128"),
    ("None", None, "None", "object"),
    ("True", True, "True", "bool"),
    ("np.True_", np.True_, repr(np.True_), "bool"),  # 'np.True_' from numpy 2, 'True' before
    ("Fraction", Fraction(1, 2), "Fraction(1, 2)", "object"),
    ("1e400", 10**400, str(10**400), "object"),
    ("-1e400", -(10**400), str(-(10**400)), "object"),
    ("2max", 2 * int(sys.float_info.max), str(2 * int(sys.float_info.max)), "object"),
    ("1e5000", 10**5000, "<int too long to print>", "object"),
    ("-1e5000", -(10**5000), "<int too long to print>", "object"),
]


def _parse(text, dims=(2, 2)):
    return lambda _: parse_ket_expression(text, dims)


def _matrix(diagonal, entries=()):
    """diag(diagonal) as a complex matrix, with each ((i, j), value) of `entries` set."""
    m = np.diag(diagonal).astype(complex)
    for (i, j), value in entries:
        m[i, j] = value
    return m


def _result(**fields):
    return lambda _: SweepResult(**dict(_FINITE_RESULT, **fields))


def _read(body, header=CSV_HEADER + "\n"):
    """Writes the header and `body` to the row's file and reads it as a sweep CSV."""
    def call(path):
        path.write_text(header + body)
        return read_csv(str(path))
    return call


def _grid(samples):
    return SweepResult(np.linspace(0.0, 1.0, samples), np.ones(samples), np.ones(samples))


# Each library fault: a call on the row's file path, which only the CSV rows write and read;
# the exact type it raises; and its whole message, formatted with that {path}. A ParseError's
# position must be the one its message ends with. A message that ends in "..." is checked up
# to there: the rest is numpy's repr of the value.
_FAULTS = {
    # --- the ket of the initial state ---
    "ket-not-a-str-int": (_parse(5), ParseError, "ket expression must be a str, got int (at position 0)"),
    "ket-not-a-str-None": (_parse(None), ParseError, "ket expression must be a str, got NoneType (at position 0)"),
    "ket-not-a-str-bytes": (_parse(b"|10>"), ParseError, "ket expression must be a str, got bytes (at position 0)"),
    "sweep-ket-not-a-str": (lambda _: run_sweep(SweepConfig(5)), ParseError,
                            "ket expression must be a str, got int (at position 0)"),
    "qutrit-scan-ket-not-a-str": (lambda _: run_qutrit_scan(None), ParseError,
                                  "ket expression must be a str, got NoneType (at position 0)"),
    "ket-unclosed-parenthesis": (_parse("(|11> + |00>"), ParseError, "unclosed '(' (at position 0)"),
    "ket-nested-1000-deep": (_parse("(" * 1000 + "|10>" + ")" * 1000), ParseError,
                             "parentheses nested more than 200 deep (at position 200)"),
    "ket-empty": (_parse(""), ParseError, "expected a number, sqrt(...), ket or '(', found '' (at position 0)"),
    "ket-number-alone": (_parse("0.5"), ParseError, "expression contains no ket (at position 0)"),
    "ket-times-ket": (_parse("|10> |01>"), ParseError, "cannot multiply two kets (at position 5)"),
    "ket-plus-number": (_parse("|10> + 2"), ParseError, "cannot add a ket term and a bare number (at position 5)"),
    "ket-unknown-word": (_parse("foo"), ParseError, "unknown word 'foo' (at position 0)"),
    "ket-unterminated": (_parse("|10"), ParseError, "unterminated ket (missing '>') (at position 0)"),
    "ket-division-by-zero": (_parse("1/0*|10>"), ParseError, "division by zero (at position 1)"),
    "ket-extra-parenthesis": (_parse("(|10>))"), ParseError, "unexpected ')' (at position 6)"),
    "ket-ket-divisor": (_parse("1/|10>"), ParseError,  # a ket token quotes its bars
                        "expected a number or sqrt(...), found '|10>' (at position 2)"),
    "ket-superscript-digit": (_parse("\u00b2|10>"), ParseError,  # a digit, not a decimal
                              "unexpected character '\u00b2' (at position 0)"),
    "ket-accented-letter": (_parse("|10> + \u00e9"), ParseError, "unexpected character '\u00e9' (at position 7)"),
    "ket-letter-after-sqrt": (_parse("sqrt\u00e9|10>"), ParseError, "unexpected character '\u00e9' (at position 4)"),
    "ket-qutrit-label-outside": (_parse("|2,0>", (3, 3)), ParseError,
                                 "ket label '2,0' is outside the 3x3 level alphabet (at position 0)"),
    "ket-qubit-label-outside": (_parse("|12>"), ParseError,
                                "ket label '12' is outside the 2x2 level alphabet (at position 0)"),
    "ket-one-level": (_parse("|1>"), ParseError,
                      "ket label '1' needs two levels (use a comma for multi-character levels) (at position 0)"),
    "ket-three-levels": (_parse("|1,0,1>", (3, 3)), ParseError,
                         "ket label '1,0,1' must name exactly two subsystems (at position 0)"),
    # cancellation is judged against the terms summed into an amplitude
    "ket-cancelled": (_parse("|10> - |10>"), ParseError, _CANCELLED),
    "ket-cancelled-sum": (_parse("0.1|10> + 0.2|10> - 0.3|10>"), ParseError, _CANCELLED),
    "ket-cancelled-tiny": (_parse("0.0000000000001*(|10> - |10>)"), ParseError, _CANCELLED),
    "ket-cancelled-zero": (_parse("0|10>"), ParseError, _CANCELLED),
    "ket-cancelled-overflowing-scale": (_parse(f"({_B300}|10> - {_B300}|10>)*10000000000"), ParseError, _CANCELLED),
    # a numeral that does not fit a float fails at its first character; an operation, at its operator
    "float-numeral": (_parse("9" * 400 + "|10>"), ParseError, _NOT_A_FLOAT.format(0)),
    "float-sqrt-numeral": (_parse(f"sqrt({'9' * 400})|10>"), ParseError, _NOT_A_FLOAT.format(5)),
    "float-product": (_parse(f"{_B300}*{_B300}|10>"), ParseError, _NOT_A_FLOAT.format(301)),
    "float-ket-sum": (_parse(f"{'9' * 308}|10> + {'9' * 308}|10>"), ParseError, _NOT_A_FLOAT.format(313)),
    "float-underflow-numeral": (_parse(f"{_TINY}|10>"), ParseError, _NOT_A_FLOAT.format(0)),
    "float-underflow-sqrt-numeral": (_parse(f"sqrt({_TINY})|10>"), ParseError, _NOT_A_FLOAT.format(5)),
    "float-underflow-second-term": (_parse(f"|11> + {_TINY}|10>"), ParseError, _NOT_A_FLOAT.format(7)),
    # a coefficient times a summed ket: the amplitudes overflow at the operator
    "float-times-ket-sum": (_parse(f"({_B300}|10> + {_B300}|01>)*10000000000"), ParseError,
                            _NOT_A_FLOAT.format(615)),
    "float-ket-sum-over": (_parse(f"({_B300}|10>+|01>)/0.{'0' * 299}1"), ParseError, _NOT_A_FLOAT.format(312)),
    "float-times-ket-sum-over": (_parse(f"({_B300}|10> + {_B300}|01>)*10000000000/10000000000"), ParseError,
                                 _NOT_A_FLOAT.format(615)),
    # --- a density matrix ---
    "matrix-4x4-as-3x3": (lambda _: DensityMatrix(np.eye(4) / 4, (3, 3)), DimensionMismatchError,
                          "shape (4, 4) does not match subsystem dims (3, 3)"),
    "matrix-9x9-as-2x2": (lambda _: DensityMatrix(np.eye(9) / 9, np.array([2, 2])), DimensionMismatchError,
                          "shape (9, 9) does not match subsystem dims (2, 2)"),
    "partial-transpose-4x4-as-3x3": (lambda _: partial_transpose(np.eye(4), (3, 3)), DimensionMismatchError,
                                     "shape (4, 4) does not match subsystem dims (3, 3)"),
    "validate-negative-eigenvalue": (lambda _: validate(np.diag([1.2, -0.2, 0.0, 0.0]), (2, 2)),
                                     StateValidationError, "matrix has a negative eigenvalue (magnitude 2.000e-01)"),
    "validate-wrong-trace": (lambda _: validate(np.diag([0.6, 0.6, 0.0, 0.0]), (2, 2)), StateValidationError,
                             "trace differs from one (magnitude 2.000e-01)"),
    "validate-non-hermitian": (lambda _: validate(_matrix([0.5, 0.5, 0, 0], [((0, 1), 1e-3)]), (2, 2)),
                               StateValidationError, "matrix is not Hermitian (magnitude 1.000e-03)"),
    # inf - inf in the Hermiticity defect is NaN; the typed error must be the only signal,
    # which the suite's warnings-as-errors filter enforces
    "validate-nan-diagonal": (lambda _: validate(np.diag([np.nan, 0.5, 0.5, 0.0]), (2, 2)), StateValidationError,
                              "matrix is not Hermitian (magnitude nan)"),
    "validate-infinite-diagonal": (lambda _: validate(np.diag([np.inf, 0.0, 0.0, 0.0]), (2, 2)),
                                   StateValidationError, "matrix is not Hermitian (magnitude nan)"),
    "validate-infinite-off-diagonal-pair": (
        lambda _: validate(_matrix([0.5, 0.5, 0, 0], [((0, 1), np.inf), ((1, 0), np.inf)]), (2, 2)),
        StateValidationError, "matrix is not Hermitian (magnitude nan)"),
    "qutrit-criterion-of-qubits": (lambda _: qutrit_sufficient_entangled(_SINGLET), DimensionMismatchError,
                                   "qutrit entanglement criterion needs dims (3, 3), got (2, 2)"),
    # --- the drive omega1 and the pulse times ---
    **{
        f"drive-{shown}": (lambda _, value=value: stationary_xforms(_SINGLET, value, [1.0]), ValueError,
                           f"drive ratio omega1 must be finite and nonnegative, got {shown}")
        for value, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"))
    },
    # a 16x16 generator, the old call form, fails typed and is shown as one line
    "drive-generator": (lambda _: stationary_xforms(_SINGLET, build_liouvillian(1.0), [1.0]), ValueError,
                        "drive ratio omega1 must be finite and nonnegative, "
                        "got <ndarray of shape (16, 16) and dtype complex128>"),
    **{
        f"liouvillian-drive-{value}": (lambda _, value=value: build_liouvillian(value), ValueError,
                                       f"drive ratio omega1 must be finite and nonnegative, got {value}")
        for value in (np.nan, np.inf, -np.inf, -1.0)
    },
    **{
        f"time-{value}": (lambda _, value=value: stationary_xforms(_SINGLET, 1.0, [0.5, value]), ValueError,
                          f"time must be finite and nonnegative, got {value}")
        for value in (np.nan, np.inf, -np.inf, -1.0)
    },
    # each parameter that takes one real number refuses every value in _NOT_REAL; a list of times holding
    # one is refused by its dtype
    **{
        f"{check}-{name}": (lambda _, call=call, value=value: call(value), ValueError,
                            message.format(shown=shown, dtype=dtype))
        for check, call, message in (
            ("config-omega_ratio", lambda v: SweepConfig("|00>", omega_ratio=v),
             "omega_ratio must be finite and nonnegative, got {shown}"),
            ("config-gamma_t_max", lambda v: SweepConfig("|00>", gamma_t_max=v),
             "gamma_t_max must be finite and positive, got {shown}"),
            ("drive", lambda v: stationary_xforms(_SINGLET, v, [0.5]),
             "drive ratio omega1 must be finite and nonnegative, got {shown}"),
            ("time", lambda v: stationary_xforms(_SINGLET, 1.0, [v]), "times must be real, got dtype {dtype}"),
        )
        for name, value, shown, dtype in _NOT_REAL
    },
    # checked before any array is sized from len(times)
    "times-scalar": (lambda _: stationary_xforms(_SINGLET, 1.0, 0.5), ValueError,
                     "times must be a one-dimensional sequence, got 0.5"),
    "times-row": (lambda _: stationary_xforms(_SINGLET, 1.0, [[0.1, 0.2]]), ValueError,
                  "times must be a one-dimensional sequence, got [[0.1, 0.2]]"),
    "times-str": (lambda _: stationary_xforms(_SINGLET, 1.0, "ab"), ValueError,
                  "times must be a one-dimensional sequence, got 'ab'"),
    "times-ragged": (lambda _: stationary_xforms(_SINGLET, 1.0, [[0.1], [0.1, 0.2]]), ValueError,
                     "times must be a one-dimensional sequence, got [[0.1], [0.1, 0.2]]"),
    "times-column": (lambda _: stationary_xforms(_SINGLET, 1.0, np.zeros((2, 1))), ValueError,
                     "times must be a one-dimensional sequence, got <ndarray of shape (2, 1) and dtype float64>"),
    "times-int-too-long": (lambda _: stationary_xforms(_SINGLET, 1.0, 10**5000), ValueError,
                           "times must be a one-dimensional sequence, got <int too long to print>"),
    # a repr of over 500 characters is shown by its type
    "times-2x2000-list": (lambda _: stationary_xforms(_SINGLET, 1.0, [[0.0] * 2000] * 2), ValueError,
                          "times must be a one-dimensional sequence, got <list too long to print>"),
    "times-list-of-16x16-array": (lambda _: stationary_xforms(_SINGLET, 1.0, [np.zeros((16, 16))]), ValueError,
                                  "times must be a one-dimensional sequence, got <list too long to print>"),
    # the driven generator exists only for qubits; the state is checked before any time
    "qutrit-drive": (lambda _: stationary_xforms(validate(np.eye(9) / 9, (3, 3)), 1.0, [0.5]),
                     DimensionMismatchError, "stationary form is a two-qubit notion, got dims (3, 3)"),
    "qutrit-drive-no-times": (lambda _: stationary_xforms(_QUTRITS, 1.0, []), DimensionMismatchError,
                              "stationary form is a two-qubit notion, got dims (3, 3)"),
    "qutrit-drive-one-time": (lambda _: stationary_xforms(_QUTRITS, 1.0, [0.5]), DimensionMismatchError,
                              "stationary form is a two-qubit notion, got dims (3, 3)"),
    # the drive is checked first, then the times, then the state
    "drive-before-times": (lambda _: stationary_xforms(_QUTRITS, -1.0, 0.5), ValueError,
                           "drive ratio omega1 must be finite and nonnegative, got -1.0"),
    "times-before-state": (lambda _: stationary_xforms(_QUTRITS, 1.0, 0.5), ValueError,
                           "times must be a one-dimensional sequence, got 0.5"),
    # --- propagation ---
    "nan-generator": (lambda _: evolve(_SINGLET.matrix, np.full((16, 16), np.nan)), StateValidationError,
                      "matrix is not Hermitian (magnitude nan)"),
    # at omega1 * T = 1e20 exp(L T) rho0 rounds to zero: no positive trace is left to rescale
    "vanished-trace": (lambda _: stationary_xforms(parse_ket_expression("|11>", (2, 2)), 1e8, [1e12]),
                       StateValidationError, "trace differs from one (magnitude 1.000e+00)"),
    # at omega1 * T = 1e20 scaling and squaring overflows to inf and NaN, with no warning
    "overflowing-propagator": (lambda _: stationary_xforms(parse_ket_expression("|10>", (2, 2)), 1e10, [1e10]),
                               StateValidationError, "matrix is not Hermitian (magnitude nan)"),
    # --- the X-form of the stationary state; a stack raises its earliest failing point ---
    "xform-nan-population": (lambda _: StationaryXForm(np.nan, 0.5, 0.5, 0.0, 0j), StateValidationError,
                             "populations do not sum to one (magnitude nan)"),
    "xform-nan-coherence": (lambda _: StationaryXForm(0.0, 0.5, 0.5, 0.0, complex(np.nan, 0.0)),
                            StateValidationError, "coherence |f|^2 exceeds b*c (magnitude nan)"),
    # a plain ValueError before any arithmetic, so no ComplexWarning or untyped numpy error
    "xform-complex-population": (lambda _: StationaryXForm(1j, 0.0, 0.0, 1.0, 0j), ValueError,
                                 "X-form field a must be real, got dtype complex128"),
    "xform-str-population": (lambda _: StationaryXForm("a", 0.0, 0.0, 1.0, 0j), ValueError,
                             "X-form field a must be real, got dtype <U1"),
    "xform-str-coherence": (lambda _: StationaryXForm(0.0, 0.5, 0.5, 0.0, "f"), ValueError,
                            "X-form field f must be numeric, got dtype <U1"),
    "xform-shapes": (lambda _: StationaryXForm([0.25, 0.25], [0.25], [0.25, 0.25], [0.25, 0.25], [0]),
                     DimensionMismatchError,
                     "X-form fields must share one shape, got a (2,), b (1,), c (2,), d (2,), f (1,)"),
    # a scalar is not a stack of one
    "xform-scalars-and-a-stack": (lambda _: StationaryXForm(0.25, 0.25, 0.25, 0.25, [0j]), DimensionMismatchError,
                                  "X-form fields must share one shape, got a (), b (), c (), d (), f (1,)"),
    "xform-negative-population": (lambda _: StationaryXForm(-0.1, 0.6, 0.5, 0.0, 0j), StateValidationError,
                                  "negative population (magnitude 1.000e-01)"),
    # point 1 has a negative population and point 2 does not sum to one
    "xform-stack-negative-population": (
        lambda _: StationaryXForm([0.25, -0.1, 0.5], [0.25, 0.6, 0.5], [0.25, 0.5, 0.5], [0.25, 0.0, 0.5], [0j] * 3),
        StateValidationError, "negative population (magnitude 1.000e-01)"),
    "xform-stack-sum": (lambda _: StationaryXForm([0.5], [0.5], [0.5], [0.5], [0j]), StateValidationError,
                        "populations do not sum to one (magnitude 1.000e+00)"),
    "xform-stack-coherence": (
        lambda _: StationaryXForm([0.25, 0.0], [0.25, 0.5], [0.25, 0.5], [0.25, 0.0], [0j, 0.6j]),
        StateValidationError, "coherence |f|^2 exceeds b*c (magnitude 1.100e-01)"),
    # extract_xform reads pinched states, so point 2's |11><00| coherence is not its concern;
    # point 1's population error wins over point 3's trace
    "extract-xform-stack": (
        lambda _: extract_xform(np.array([
            _matrix([0.25] * 4), _matrix([-0.1, 0.6, 0.5, 0.0]),
            _matrix([0.25] * 4, [((0, 3), 0.1), ((3, 0), 0.1)]), _matrix([0.5] * 4),
        ])),
        StateValidationError, "negative population (magnitude 1.000e-01)"),
    # --- a sweep's configuration ---
    "config-samples-1": (lambda _: SweepConfig("|00>", samples=1), ValueError, "samples must be at least 2, got 1"),
    "config-samples-int-too-long": (lambda _: SweepConfig("|00>", samples=-(10**5000)), ValueError,
                                    "samples must be at least 2, got <int too long to print>"),
    "config-gamma-t-max-0": (lambda _: SweepConfig("|00>", gamma_t_max=0.0), ValueError,
                             "gamma_t_max must be finite and positive, got 0.0"),
    **{
        f"config-{field}-{name}": (lambda _, field=field, value=value: SweepConfig("|00>", **{field: value}),
                                   ValueError, f"{field} must be finite and {sign}, got {shown}")
        for field, sign in (("omega_ratio", "nonnegative"), ("gamma_t_max", "positive"))
        for name, value, shown in (
            ("nan", np.nan, "nan"), ("inf", np.inf, "inf"), ("-inf", -np.inf, "-inf"),
            ("float32-inf", np.float32("inf"), "..."), ("float16-inf", np.float16("inf"), "..."),
        )
    },
    **{
        f"config-samples-{name}": (lambda _, value=value: SweepConfig("|00>", samples=value), ValueError,
                                   f"samples must be an integer, got {value!r}")
        for name, value in (("3.0", 3.0), ("2e3", 2e3), ("str", "5"))
    },
    **{
        f"run-sweep-workers-{name}": (
            lambda _, workers=workers: run_sweep(SweepConfig("|00>", omega_ratio=0.0, samples=10), workers=workers),
            ValueError, f"run_sweep is serial; workers must be 1, got {shown}")
        for name, workers, shown in (
            ("0", 0, "0"), ("2", 2, "2"), ("3", 3, "3"), ("int-too-long", 10**5000, "<int too long to print>")
        )
    },
    # an output that open() could not write is refused, with open()'s message, before the sweep propagates
    **{
        f"run-sweep-output-{name}": (
            lambda path, output=output: run_sweep(SweepConfig("|00>", output_path=output.format(path=path))),
            kind, f"{error}: '{output}'")
        for name, output, kind, error in (
            ("in-missing-directory", "{path}/x.csv", FileNotFoundError, "[Errno 2] No such file or directory"),
            ("is-a-directory", "{path.parent}", IsADirectoryError, "[Errno 21] Is a directory"),
            ("through-a-file", f"{__file__}/x.csv", NotADirectoryError, "[Errno 20] Not a directory"),
            ("ends-with-a-separator", "{path.parent}/new/", IsADirectoryError, "[Errno 21] Is a directory"),
        )
    },
    # --- a sweep's result: what write_csv could not write or read_csv could not read back ---
    "result-unequal-columns": (lambda _: SweepResult(np.arange(3.0), np.zeros(3), np.zeros(2)), ValueError,
                               "row columns must have equal length"),
    **{
        f"result-grid-{name}": (lambda _, grid=grid: SweepResult(grid, [0.0, 0.0], [0.0, 0.0]), ValueError,
                                "gamma_t values must be strictly increasing")
        for name, grid in (("repeated", [0.0, 0.0]), ("decreasing", [1.0, 0.5]), ("nan", [0.0, np.nan]))
    },
    "result-row-column": (lambda _: SweepResult([[0.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]]), ValueError,
                          "gamma_t must be one-dimensional, got shape (1, 2)"),
    "result-column-column": (lambda _: SweepResult([0.0, 1.0], [0.0, 0.0], [[0.0], [0.0]]), ValueError,
                             "mutual_information must be one-dimensional, got shape (2, 1)"),
    "result-scalar-columns": (lambda _: SweepResult(0.0, 0.0, 0.0), ValueError,
                              "gamma_t must be one-dimensional, got shape ()"),
    "result-no-rows": (lambda _: SweepResult([], [], []), ValueError, "no data rows"),
    "result-complex-row": (_result(gamma_t=[0.0, 1.0 + 0.0j]), ValueError,
                           "gamma_t must be real, got dtype complex128"),
    "result-str-row": (_result(concurrence=["0", "0.5"]), ValueError, "concurrence must be real, got dtype <U3"),
    "result-bool-row": (_result(mutual_information=[True, False]), ValueError,
                        "mutual_information must be real, got dtype bool"),
    "result-fraction-row": (_result(gamma_t=[Fraction(0), Fraction(1)]), ValueError,
                            "gamma_t must be real, got dtype object"),
    "result-complex-transition": (_result(transitions=[0.25j]), ValueError,
                                  "transitions must be real, got dtype complex128"),
    "result-scalar-transitions": (_result(transitions=0.25), ValueError,
                                  "transitions must be one-dimensional, got shape ()"),
    "result-complex-maximum": (_result(maxima=[(1.0, 0.5j, 1.5)]), ValueError,
                               "maxima must be real, got dtype complex128"),
    "result-float-maximum": (_result(maxima=[1.0]), ValueError, _TRIPLE),
    "result-pair-maximum": (_result(maxima=[(1.0, 0.5)]), ValueError, _TRIPLE),
    "result-bare-triple": (_result(maxima=(1.0, 0.5, 1.5)), ValueError, _TRIPLE),
    "result-quadruple": (_result(maxima=[(1.0, 0.5, 1.5, 2.0)]), ValueError, _TRIPLE),
    "result-ragged-maxima": (_result(maxima=[(1.0, 0.5, 1.5), (1.0, 0.5)]), ValueError,
                             "maxima must be an array of real numbers"),
    "compare-grid-mismatch": (lambda _: compare_windows(_grid(101), _grid(100)), ValueError,
                              "sweeps do not share the same gamma_T grid"),
    # --- a sweep's CSV file ---
    "csv-empty": (_read("", header=""), ValueError,
                  "{path}: missing header 'gamma_T,concurrence,mutual_information'"),
    "csv-headerless": (_read("0,1,2\n", header=""), ValueError,
                       "{path}: missing header 'gamma_T,concurrence,mutual_information'"),
    "csv-header-after-a-blank-line": (_read("\ngamma_T,concurrence\n0,1,2\n", header=""), ValueError,
                                      "{path}: missing header 'gamma_T,concurrence,mutual_information'"),
    "csv-header-only": (_read(""), ValueError, "{path}: no data rows"),
    "csv-only-a-transition": (_read("# transition gamma_T = 0.5\n"), ValueError, "{path}: no data rows"),
    "csv-short-row": (_read("0,1,2\n0.5,1\n"), ValueError, "{path}:3: expected 3 cells, got 2"),
    "csv-long-row": (_read("0,1,2\n0.5,1,2,3\n"), ValueError, "{path}:3: expected 3 cells, got 4"),
    "csv-non-numeric-cell": (_read("0,1,x\n"), ValueError, "{path}:2: could not convert string to float: 'x'"),
    "csv-nan-grid-value": (_read("0,1,2\nnan,1,2\n"), ValueError, "{path}:3: non-finite value 'nan'"),
    "csv-infinite-grid-value": (_read("0,1,2\ninf,1,2\n"), ValueError, "{path}:3: non-finite value 'inf'"),
    "csv-infinite-concurrence": (_read("0,1,2\n0.5,-inf,2\n"), ValueError, "{path}:3: non-finite value '-inf'"),
    "csv-nan-mutual-information": (_read("0,1,2\n0.5,1,nan\n"), ValueError, "{path}:3: non-finite value 'nan'"),
    "csv-infinite-transition": (_read("0,1,2\n# transition gamma_T = inf\n"), ValueError,
                                "{path}:3: non-finite value 'inf'"),
    "csv-transition-without-value": (_read("0,1,2\n# transition gamma_T\n"), ValueError,
                                     "{path}:3: transition: expected 1 value, got 0"),
    "csv-transition-equals-without-value": (_read("0,1,2\n# transition gamma_T =\n"), ValueError,
                                            "{path}:3: transition: expected 1 value, got 0"),
    "csv-maximum-with-one-value": (_read("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5\n"), ValueError,
                                   "{path}:4: maximum: expected 3 values, got 1"),
    "csv-maximum-with-four-values": (
        _read("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 1 mutual_information = 2 x = 3\n"),
        ValueError, "{path}:4: maximum: expected 3 values, got 4"),
    "csv-maximum-equals-without-value": (
        _read("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 1 mutual_information =\n"),
        ValueError, "{path}:4: maximum: expected 3 values, got 2"),
    # feature values are read by the names write_csv writes, in its order
    "csv-transition-other-name": (_read("0,1,2\n0.5,1,2\n# transition foo = 0.3\n"), ValueError,
                                  "{path}:4: transition: expected gamma_T = <value>"),
    "csv-transition-misplaced-equals": (_read("0,1,2\n0.5,1,2\n# transition gamma_T 0.3 =\n"), ValueError,
                                        "{path}:4: transition: expected gamma_T = <value>"),
    "csv-maximum-out-of-order": (
        _read("0,1,2\n0.5,1,2\n# maximum concurrence = 0.25 gamma_T = 0.5 mutual_information = 0.75\n"),
        ValueError,
        "{path}:4: maximum: expected gamma_T = <value> concurrence = <value> mutual_information = <value>"),
    "csv-maximum-outside-every-window": (
        _read("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 0 mutual_information = 2\n"),
        ValueError, "{path}: every maximum must lie inside an entangled window"),
}


@pytest.mark.parametrize("call, kind, message", _FAULTS.values(), ids=_FAULTS)
def test_a_library_fault_raises_its_exact_type_and_whole_message(tmp_path, call, kind, message):
    path = tmp_path / "sweep.csv"
    with pytest.raises(Exception) as info:
        call(path)
    error, message = info.value, message.format(path=path)
    assert type(error) is kind
    if message.endswith("..."):
        assert str(error).startswith(message[:-3]) and "\n" not in str(error)
    else:
        assert str(error) == message
    if kind is ParseError:
        assert message.endswith(f" (at position {error.position})")
