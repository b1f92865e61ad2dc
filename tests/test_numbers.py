"""The one reading of numbers from outside: each boundary accepts exactly what oracles.reads_as_number does."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dephasim import (
    DensityMatrix,
    StateValidationError,
    StationaryXForm,
    SweepConfig,
    SweepResult,
    parse_ket_expression,
    run_sweep,
    stationary_xforms,
)
from dephasim.engine import build_liouvillian
from dephasim.linalg import partial_transpose
from oracles import accepted_scalar, reads_as_number

_NUMPY_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
                np.float16, np.float32, np.float64]

_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
    st.sampled_from(_NUMPY_TYPES).flatmap(lambda t: hnp.from_dtype(np.dtype(t)).map(t)),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.fractions(),
    st.decimals(),
    st.none(),
    st.text(),
)

_RHO0 = parse_ket_expression("|10>", (2, 2))

# The name each scalar check's message starts with, its call, and whether it wants a positive value.
_SCALARS = {
    "drive ratio omega1": (build_liouvillian, False),
    "omega_ratio": (lambda v: SweepConfig("|10>", omega_ratio=v), False),
    "gamma_t_max": (lambda v: SweepConfig("|10>", gamma_t_max=v), True),
    # With no drive, a pulse of any finite length leaves |10> as it is.
    "time": (lambda v: stationary_xforms(_RHO0, 0.0, [v]), False),
}


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(_SCALARS)), value=_VALUES)
@example(name="drive ratio omega1", value=True)
@example(name="omega_ratio", value=Fraction(1, 2))
@example(name="gamma_t_max", value=np.True_)
@example(name="time", value=np.uint64(2**63))
@example(name="time", value=np.float16(0.5))
@example(name="time", value=2**64)
def test_each_scalar_parameter_accepts_exactly_the_real_numbers_in_its_range(name, value):
    call, positive = _SCALARS[name]
    if accepted_scalar(value, positive):
        call(value)
    else:
        with pytest.raises(ValueError, match=rf"^{name}s? must be "):
            call(value)


def _xform(name):
    def call(values):
        fields = dict(a=[0.0, 0.0], b=[0.5, 0.5], c=[0.5, 0.5], d=[0.0, 0.0], f=[0.0, 0.0])
        return StationaryXForm(**{**fields, name: values})
    return call


def _result(name):
    def call(values):
        columns = dict(gamma_t=[0.0, 1.0], concurrence=[0.0, 0.0], mutual_information=[0.0, 0.0])
        return SweepResult(**{**columns, name: values})
    return call


def _square(values):
    return [values * 2] * 4  # a 4 x 4 nesting of the one value


# The name each array check's message starts with, whether it takes complex numbers,
# and its call on two copies of a value.
_ARRAYS = {
    **{f"X-form field {name}": (name == "f", _xform(name)) for name in "abcdf"},
    **{name: (False, _result(name)) for name in ("gamma_t", "concurrence", "mutual_information")},
    "matrix": (True, lambda values: DensityMatrix(_square(values), (2, 2))),
    "rho": (True, lambda values: partial_transpose(_square(values), (2, 2))),
}


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(_ARRAYS)), value=_VALUES)
@example(name="matrix", value=None)
@example(name="matrix", value="x")
@example(name="rho", value=None)
@example(name="gamma_t", value=Fraction(1, 2))
@example(name="X-form field f", value=1j)
@example(name="X-form field a", value=True)
@example(name="matrix", value=Decimal(1))
@example(name="gamma_t", value=float("inf"))  # read, then refused unwarned
@example(name="X-form field f", value=1e308)  # read; |f|^2 overflows unwarned
def test_each_array_accepts_exactly_the_int_and_float_dtypes_or_complex_where_it_is_complex(name, value):
    complex_ok, call = _ARRAYS[name]
    refused = rf"^{re.escape(name)} must be (real|numeric), got dtype "
    if reads_as_number(value, complex_ok):
        try:
            call([value] * 2)
        except (ValueError, StateValidationError) as exc:  # a check after the reading, on the numbers read
            assert not re.match(refused, str(exc)), exc
    else:
        with pytest.raises(ValueError, match=refused):
            call([value] * 2)


# The caller's array, the checked value built from it, and what that value holds of it.
@pytest.mark.parametrize(
    "values, make, read",
    [
        (np.eye(4, dtype=complex) / 4, lambda m: DensityMatrix(m, (2, 2)), lambda rho: [rho.matrix]),
        (
            np.array([0.0, 0.5, 0.5, 0.0]),
            lambda v: StationaryXForm(*v[:, None], f=v[:1]),
            lambda x: [getattr(x, name) for name in "abcdf"],
        ),
        (
            np.array([0.0, 0.5, 1.0]),
            lambda v: SweepResult(v, v, v, transitions=v[1:2], maxima=[v]),
            lambda r: [r.gamma_t, r.concurrence, r.mutual_information, r.transitions, r.maxima],
        ),
        (
            np.array(3),
            lambda v: SweepConfig("|10>", omega_ratio=v, gamma_t_max=v, samples=v),
            lambda c: [c.omega_ratio, c.gamma_t_max, c.samples],
        ),
    ],
    ids=["DensityMatrix", "StationaryXForm", "SweepResult", "SweepConfig"],
)
def test_a_checked_value_holds_its_own_copy_of_the_callers_array(values, make, read):
    values = values.copy()  # the caller's array, fresh for each run
    held = make(values)
    before = [np.array(part) for part in read(held)]
    values[...] = 5.0
    assert all(map(np.array_equal, read(held), before))


def test_a_sweep_config_of_0d_arrays_is_its_plain_number_twin():
    arrays = {"omega_ratio": np.array(2), "gamma_t_max": np.array(1.5), "samples": np.array(7)}
    config = SweepConfig("(|10> - |01>)/sqrt(2)", **arrays)
    twin = SweepConfig("(|10> - |01>)/sqrt(2)", omega_ratio=2.0, gamma_t_max=1.5, samples=7)
    assert config == twin and hash(config) == hash(twin)
    assert [type(getattr(config, name)) for name in arrays] == [float, float, int]
    for array in arrays.values():
        array[...] = 1  # would fail the checks the config passed
    assert config == twin
    sweep, twin_sweep = run_sweep(config), run_sweep(twin)
    assert len(sweep.gamma_t) == 7
    assert all(np.array_equal(getattr(sweep, name), getattr(twin_sweep, name)) for name in ("gamma_t", "concurrence"))
