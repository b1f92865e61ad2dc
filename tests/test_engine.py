import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.linalg import expm

from dephasim import (
    DephasimError,
    DimensionMismatchError,
    StateValidationError,
    StationaryXForm,
    SweepConfig,
    dephasing_fixed_point,
    parse_ket_expression,
    run_sweep,
    stationary_xforms,
    validate,
)
from dephasim.engine import _propagators, build_liouvillian, collective_jz, evolve, extract_xform, stationary_state
import dephasim.engine as engine_module
from oracles import (
    kronecker_liouvillian, per_point_xforms, random_density, random_pure, rk4_stationary, taylor_expm, xform_reference
)


def bell(which: str):
    text = {
        "phi-": "(|10> - |01>)/sqrt(2)",
        "phi+": "(|10> + |01>)/sqrt(2)",
        "psi+": "(|11> + |00>)/sqrt(2)",
        "psi-": "(|11> - |00>)/sqrt(2)",
    }[which]
    return parse_ket_expression(text, (2, 2))


def test_collective_jz_qubits():
    jz = collective_jz((2, 2))
    assert np.array_equal(jz, np.diag([1.0, 0.0, 0.0, -1.0]))
    assert np.isrealobj(jz)


def test_collective_jz_qutrits():
    jz = collective_jz((3, 3))
    assert np.array_equal(jz, np.diag([2.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, -2.0]))


@pytest.mark.parametrize(
    "dims, shown",
    [((4, 4), "(4, 4)"), ((2, 3), "(2, 3)"), ((10**5000, 2), "<tuple too long to print>")],
    ids=["4x4", "2x3", "1e5000"],
)
def test_collective_jz_rejects_unsupported_dims(dims, shown):
    message = rf"^supported pairs are \(2, 2\) and \(3, 3\), got {re.escape(shown)}$"
    with pytest.raises(DimensionMismatchError, match=message):
        collective_jz(dims)


# The model's parameters are the drive omega1 and the pulse time T; the T
# cases are in test_stationary_xforms_reject_bad_time below. A 16x16 generator
# is the old call form: it fails typed, never broadcast into generator * ts.
# An array shows as one line, not its repr of every entry.
@pytest.mark.parametrize("field", ["omega1"])
@pytest.mark.parametrize(
    "value, shown",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (build_liouvillian(1.0), "<ndarray of shape (16, 16) and dtype complex128>"),
    ],
    ids=["nan", "inf", "-inf", "generator"],
)
def test_stationary_xforms_reject_a_bad_drive(field, value, shown):
    message = rf"^drive ratio {field} must be finite and nonnegative, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        stationary_xforms(bell("phi-"), value, [1.0])


@pytest.mark.parametrize("T", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_stationary_xforms_reject_bad_time(T):
    with pytest.raises(ValueError, match=r"\btime must be finite and nonnegative"):
        stationary_xforms(bell("phi-"), 1.0, [0.5, T])


@pytest.mark.parametrize("times", [0.5, [[0.1, 0.2]], "ab", [[0.1], [0.1, 0.2]], np.zeros((2, 1))])
def test_stationary_xforms_reject_times_that_are_not_one_dimensional(times):
    # checked before any array is sized from len(times)
    with pytest.raises(ValueError, match=r"^times must be a one-dimensional sequence, got [^\n]*$"):
        stationary_xforms(bell("phi-"), 1.0, times)


@pytest.mark.parametrize("omega1", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_liouvillian_rejects_bad_drive(omega1):
    with pytest.raises(ValueError, match=r"\bomega1 must be finite and nonnegative"):
        build_liouvillian(omega1)


# Bounded so that every generator entry, at most 8 or omega1 / 2 in magnitude,
# stays finite; subnormal values are included.
@settings(deadline=None)
@given(omega1=st.floats(min_value=0.0, max_value=1e100))
@example(omega1=31.25)
@example(omega1=1.0 / 3.0)
@example(omega1=0.0)
@example(omega1=1.5e-323)  # subnormal drive: rounding follows the factor order
def test_liouvillian_is_bit_identical_to_kronecker_reference(omega1):
    # This is the trace-preservation check of the generator: <<I| L is exactly
    # zero for every drive, so nothing in the package re-checks it.
    got = build_liouvillian(omega1)
    want = kronecker_liouvillian((2, 2), omega1, 1.0, True)
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    vec_id = np.eye(4).reshape(-1, order="F")
    assert not np.any(vec_id @ got)


def test_a_nan_generator_propagates_no_state():
    with pytest.raises(StateValidationError, match=r"^matrix is not Hermitian \(magnitude nan\)$"):
        evolve(bell("phi-").matrix, np.full((16, 16), np.nan))


def test_liouvillian_preserves_trace():
    # the generator annihilates <<I| from the left, with and without the drive
    for omega1 in (0.0, 31.25):
        gen = build_liouvillian(omega1)
        vec_id = np.eye(4).reshape(-1, order="F")
        assert np.max(np.abs(vec_id @ gen)) <= 1e-12


def test_liouvillian_rejects_qutrit_drive():
    # the driven generator exists only for qubits
    with pytest.raises(DimensionMismatchError, match="two-qubit notion"):
        stationary_xforms(validate(np.eye(9) / 9, (3, 3)), 1.0, [0.5])


def test_drive_off_equals_zero_intensity_drive():
    # equal in value to the drive-free reference; only the signs of some zeros differ
    off = kronecker_liouvillian((2, 2), 0.0, 1.0, False)
    assert np.array_equal(build_liouvillian(0.0), off)


def test_dephasing_rate_of_outer_coherence():
    # |11><00| connects total-spin projections +1 and -1, so it decays at 2*gamma
    rho0 = bell("psi+")
    times = (0.1, 0.5, 1.0, 2.0)
    for gamma_t, propagator in zip(times, _propagators(0.0, times)):
        rho_t = evolve(rho0.matrix, propagator)
        assert abs(abs(rho_t[0, 3]) - 0.5 * np.exp(-2.0 * gamma_t)) <= 1e-8


@pytest.mark.parametrize("omega1", [1.0, 5.0, 31.25, 1e3])
def test_the_damped_oscillation_decays_at_a_quarter(omega1):
    # The paper's oscillation: the pair of eigenvalues -1/4 +- i sqrt(omega1^2 - 1/16).
    spectrum = np.linalg.eigvals(build_liouvillian(omega1))
    frequency = np.sqrt(omega1**2 - 1.0 / 16.0)
    for rate in (-0.25 + 1j * frequency, -0.25 - 1j * frequency):
        assert np.min(np.abs(spectrum - rate)) <= 1e-12 * (1.0 + omega1)


def test_the_spectrum_matches_a_50_digit_reference_with_both_decay_rates():
    # Each of the 16 reference eigenvalues takes the nearest eigenvalue not yet taken.
    with mp.workdps(50):
        reference, _ = mp.eig(mp.matrix(kronecker_liouvillian((2, 2), 31.25, 1.0, True).tolist()))
        reference = [complex(value) for value in reference]
    spectrum = list(np.linalg.eigvals(build_liouvillian(31.25)))
    for value in reference:
        nearest = min(range(len(spectrum)), key=lambda k: abs(spectrum[k] - value))
        assert abs(spectrum.pop(nearest) - value) <= 1e-12
    # the second rate of the oscillation, past the quarter of the test above
    assert min(abs(value - complex(-0.749743737654674, 31.2329974278516)) for value in reference) <= 1e-12


def test_propagator_matches_taylor_series_path():
    rho0 = bell("psi+")
    t = 0.7
    via_series = taylor_expm(kronecker_liouvillian((2, 2), 3.0, 1.0, True) * t) @ rho0.matrix.reshape(-1, order="F")
    (propagator,) = _propagators(3.0, [t])
    via_engine = evolve(rho0.matrix, propagator).reshape(-1, order="F")
    assert np.max(np.abs(via_series - via_engine)) <= 1e-12


def test_stacked_propagators_have_the_bits_of_single_ones():
    # run_sweep's speed rests on this: a propagator formed in a stack is bit
    # for bit (signs of zeros and NaNs included) the one formed alone.
    times = [0.0, *np.linspace(0.0, 4.0, 130), 1e2, 1e4, 1e6, 1e10, 1e19]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e19 overflows
        for t, propagator in zip(times, _propagators(31.25, times), strict=True):
            (alone,) = _propagators(31.25, [t])
            assert np.array_equal(propagator.view(np.uint64), alone.view(np.uint64)), t


def test_singlet_is_fixed_point():
    gen = build_liouvillian(0.0)
    rho = bell("phi-")
    assert np.max(np.abs(gen @ rho.matrix.reshape(-1, order="F"))) <= 1e-12
    assert np.array_equal(dephasing_fixed_point(rho).matrix, rho.matrix)


def test_evolve_identity_at_zero_time():
    rho = bell("phi+")
    (propagator,) = _propagators(31.25, [0.0])
    assert np.array_equal(evolve(rho.matrix, propagator), rho.matrix)


def test_diagonal_states_are_invariant():
    rho = validate(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
    for propagator in _propagators(0.0, (0.3, 2.0, 7.0)):
        assert np.max(np.abs(evolve(rho.matrix, propagator) - rho.matrix)) <= 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(31)
    rho = validate(random_density(rng, 4), (2, 2))
    for t1, t2 in ((0.1, 0.25), (0.4, 1.1)):
        first, second, both = _propagators(31.25, [t1, t2, t1 + t2])
        two_step = evolve(evolve(rho.matrix, first), second)
        one_step = evolve(rho.matrix, both)
        assert np.max(np.abs(two_step - one_step)) <= 1e-9


def test_purity_non_increasing_without_drive():
    rng = np.random.default_rng(32)
    rho = validate(random_density(rng, 4, rank=2), (2, 2))
    propagated = [evolve(rho.matrix, propagator) for propagator in _propagators(0.0, (0.0, 0.2, 0.5, 1.0, 3.0))]
    purities = [np.trace(m @ m).real for m in propagated]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(purities, purities[1:]))


def test_fixed_point_matches_long_time_limit():
    rng = np.random.default_rng(33)
    # the qutrit pair has no propagator in the engine: scipy's expm of the oracle's generator stands in
    (qubit_propagator,) = _propagators(0.0, [50.0])
    qutrit_propagator = expm(kronecker_liouvillian((3, 3), 0.0, 1.0, False) * 50.0)
    for dims, propagator in (((2, 2), qubit_propagator), ((3, 3), qutrit_propagator)):
        rho = validate(random_density(rng, dims[0] * dims[1]), dims)
        projected = dephasing_fixed_point(rho)
        longtime = evolve(rho.matrix, propagator)
        assert np.max(np.abs(projected.matrix - longtime)) <= 1e-8
        # idempotent, trace-exact, and positivity-safe
        again = dephasing_fixed_point(projected)
        assert np.array_equal(again.matrix, projected.matrix)
        assert np.trace(projected.matrix) == np.trace(rho.matrix)
        assert np.linalg.eigvalsh(projected.matrix)[0] >= -1e-9


def test_fixed_point_of_fragile_state():
    projected = dephasing_fixed_point(bell("psi+"))
    assert np.max(np.abs(projected.matrix - np.diag([0.5, 0.0, 0.0, 0.5]))) <= 1e-12


def test_fixed_point_keeps_diagonal_states():
    rho = validate(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    assert np.array_equal(dephasing_fixed_point(rho).matrix, rho.matrix)


def test_qutrit_fixed_point_block_structure():
    rng = np.random.default_rng(34)
    rho = validate(random_density(rng, 9), (3, 3))
    projected = dephasing_fixed_point(rho).matrix
    levels = np.diag(collective_jz((3, 3)))
    for i in range(9):
        for j in range(9):
            if levels[i] != levels[j]:
                assert projected[i, j] == 0.0
            else:
                assert projected[i, j] == rho.matrix[i, j]


@given(
    dims=st.sampled_from([(2, 2), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 9),
)
def test_fixed_point_is_the_idempotent_jz_block_projection(dims, seed, rank):
    dim = dims[0] * dims[1]
    # rank below dim draws states whose least eigenvalue is 0
    rho = validate(random_density(np.random.default_rng(seed), dim, min(rank, dim)), dims)
    projected = dephasing_fixed_point(rho)
    # dephasing_fixed_point skips validation; the projection must still pass it
    validate(projected.matrix, dims)
    levels = np.diag(collective_jz(dims))
    same_level = levels[:, None] == levels[None, :]
    assert np.array_equal(projected.matrix[same_level], rho.matrix[same_level])
    assert not np.any(projected.matrix[~same_level])
    assert np.array_equal(dephasing_fixed_point(projected).matrix, projected.matrix)


def test_stationary_state_at_zero_action_time():
    (propagator,) = _propagators(31.25, [0.0])
    robust = stationary_state(bell("phi-").matrix, propagator)
    x = extract_xform(robust)
    assert abs(x.b - 0.5) <= 1e-12 and abs(x.f + 0.5) <= 1e-12
    fragile = stationary_state(bell("psi+").matrix, propagator)
    assert np.max(np.abs(fragile - np.diag([0.5, 0.0, 0.0, 0.5]))) <= 1e-12


def test_stationary_state_leaves_positivity_to_the_pinched_xform():
    # 0.25 I + 0.4 (|00><11| + h.c.) has eigenvalue -0.15, all of it in the
    # |11><00| coherence that dephasing removes; only the pinched state is reported.
    rho0 = 0.25 * np.eye(4, dtype=complex)
    rho0[0, 3] = rho0[3, 0] = 0.4
    assert np.linalg.eigvalsh(rho0)[0] == pytest.approx(-0.15)
    pinched = stationary_state(rho0, np.eye(16))
    assert np.array_equal(pinched, 0.25 * np.eye(4))
    x = extract_xform(pinched)
    assert (x.a, x.b, x.c, x.d, x.f) == (0.25, 0.25, 0.25, 0.25, 0.0)


def test_stationary_state_matches_rk4_oracle():
    rho0 = bell("phi-")
    times = (0.05, 0.31, 0.8)
    for gamma_t, propagator in zip(times, _propagators(31.25, times)):
        ours = stationary_state(rho0.matrix, propagator)
        reference = rk4_stationary(rho0.matrix, 31.25, gamma_t)
        assert np.max(np.abs(ours - reference)) <= 1e-6


@pytest.mark.parametrize(
    "ket, driven_limit",
    [
        ("(|10> - |01>)/sqrt(2)", np.eye(4) / 4),
        ("(|11> + |00>)/sqrt(2)", np.eye(4) / 4),
        ("|11>", np.diag([0.5, 0.0, 0.5, 0.0])),  # the drive never flips qubit 2
    ],
    ids=["robust", "fragile", "11"],
)
def test_long_pulses_reach_the_long_time_limit(ket, driven_limit):
    # Up to ||L T|| ~ 1e10, where scaling and squaring drifts the trace of
    # exp(L T) rho0 by up to 1.5e-7 before evolve rescales it.
    rho0 = parse_ket_expression(ket, (2, 2))
    for omega1 in (0.0, 31.25, 100.0, 1e3, 1e4):
        # Without the drive only the dephasing fixed point of rho0 is left.
        limit = driven_limit if omega1 else dephasing_fixed_point(rho0).matrix
        times = (1e2, 1e3, 1e4, 1e5, 1e6)
        for t, propagator in zip(times, _propagators(omega1, times)):
            rho = stationary_state(rho0.matrix, propagator)
            assert np.max(np.abs(rho - limit)) <= 1e-9, (omega1, t)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: on OpenBLAS's Haswell kernel evolve's trace rescale leaves the "
    "robust and fragile kets up to 1.4e-8 from the limit at omega1 = 1e4, T >= 1e5",
)
def test_long_pulses_reach_the_long_time_limit_on_the_haswell_kernel():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(root / "src"))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=300
        )

    cores = run(str(root / "tests" / "openblas_cores.py"))
    if cores.stdout.split() != ["Haswell", "Haswell"]:
        pytest.skip(f"OpenBLAS does not select its Haswell kernel here: {cores.stdout.split()}")
    case = f"{__file__}::test_long_pulses_reach_the_long_time_limit"
    cases = [f"{case}[robust]", f"{case}[fragile]"]
    tests = run("-m", "pytest", "-q", "-p", "no:cacheprovider", *cases)
    assert tests.returncode == 0, tests.stdout


def test_long_pulse_with_a_vanished_trace_stays_an_error():
    # At omega1 * T = 1e20 exp(L T) rho0 rounds to zero: there is no positive
    # trace to rescale, so evolve's trace check fails instead of dividing by zero.
    rho0 = parse_ket_expression("|11>", (2, 2))
    with pytest.raises(StateValidationError, match="trace differs from one"):
        stationary_xforms(rho0, 1e8, [1e12])


def test_overflowing_propagator_is_a_typed_error_without_warnings():
    # At omega1 * T = 1e20 scaling and squaring overflows to inf and NaN; the
    # suite turns numpy's RuntimeWarnings into errors, so this also pins that
    # none is emitted before the state check rejects the result.
    rho0 = parse_ket_expression("|10>", (2, 2))
    with pytest.raises(StateValidationError, match="not Hermitian"):
        stationary_xforms(rho0, 1e10, [1e10])


def test_extract_xform_values():
    x = extract_xform(bell("phi-").matrix)
    assert (x.a, x.d) == (0.0, 0.0)
    assert abs(x.b - 0.5) <= 1e-12 and abs(x.c - 0.5) <= 1e-12
    assert abs(x.f + 0.5) <= 1e-12
    mixed = extract_xform(validate(np.diag([0.0, 0.0, 0.0, 1.0]), (2, 2)).matrix)
    assert mixed.d == 1.0 and mixed.f == 0.0


@pytest.mark.parametrize("a, f", [(float("nan"), 0j), (0.0, complex(float("nan"), 0.0))])
def test_stationary_xform_rejects_nan(a, f):
    with pytest.raises(StateValidationError, match=r"\(magnitude nan\)$"):
        StationaryXForm(a, 0.5, 0.5, 0.0, f)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1j, 0.0, 0.0, 1.0, 0j), "X-form field a must be real, got dtype complex128"),
        (("a", 0.0, 0.0, 1.0, 0j), "X-form field a must be real, got dtype <U1"),
        ((0.0, 0.5, 0.5, 0.0, "f"), "X-form field f must be numeric, got dtype <U1"),
    ],
    ids=["complex-population", "str-population", "str-coherence"],
)
def test_stationary_xform_rejects_fields_that_are_not_numbers(fields, message):
    # a plain ValueError before any arithmetic, so no ComplexWarning or untyped numpy error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
        StationaryXForm(*fields)
    assert not isinstance(excinfo.value, DephasimError)


def test_stationary_xform_rejects_fields_of_different_shapes():
    shapes = r"a \(2,\), b \(1,\), c \(2,\), d \(2,\), f \(1,\)"
    with pytest.raises(DimensionMismatchError, match=rf"^X-form fields must share one shape, got {shapes}$"):
        StationaryXForm(a=[0.25, 0.25], b=[0.25], c=[0.25, 0.25], d=[0.25, 0.25], f=[0])
    with pytest.raises(ValueError, match="share one shape"):  # a scalar is not a stack of one
        StationaryXForm(0.25, 0.25, 0.25, 0.25, [0j])


def test_stationary_xform_rejects_negative_population():
    with pytest.raises(StateValidationError, match=r"^negative population \(magnitude 1\.000e-01\)$"):
        StationaryXForm(-0.1, 0.6, 0.5, 0.0, 0j)


def test_a_stack_raises_the_earliest_failing_point_with_its_own_message():
    # Point 1 has a negative population and point 2 does not sum to one.
    fields = dict(
        a=[0.25, -0.1, 0.5], b=[0.25, 0.6, 0.5], c=[0.25, 0.5, 0.5], d=[0.25, 0.0, 0.5], f=[0j] * 3
    )
    with pytest.raises(StateValidationError, match=r"^negative population \(magnitude 1\.000e-01\)$"):
        StationaryXForm(**fields)
    with pytest.raises(StateValidationError, match=r"^populations do not sum to one \(magnitude 1\.000e\+00\)$"):
        StationaryXForm(**{name: column[2:] for name, column in fields.items()})
    with pytest.raises(StateValidationError, match=r"^coherence \|f\|\^2 exceeds b\*c \(magnitude 1\.100e-01\)$"):
        StationaryXForm([0.25, 0.0], [0.25, 0.5], [0.25, 0.5], [0.25, 0.0], [0j, 0.6j])


def test_extract_xform_raises_the_earliest_failing_matrix_with_its_own_message():
    mixed = np.eye(4, dtype=complex) / 4
    off_form = mixed.copy()
    off_form[0, 3] = off_form[3, 0] = 0.1  # the |11><00| coherence
    negative = np.diag([-0.1, 0.6, 0.5, 0.0]).astype(complex)
    # extract_xform reads pinched states, so the off-form entries of point 2
    # are not its concern; point 1's population error wins over point 3's trace.
    with pytest.raises(StateValidationError, match=r"^negative population \(magnitude 1\.000e-01\)$"):
        extract_xform(np.array([mixed, negative, off_form, 2 * mixed]))


def test_stationary_states_are_always_x_form():
    rng = np.random.default_rng(35)
    rho0 = bell("phi-")
    for _ in range(20):
        (propagator,) = _propagators(float(rng.uniform(0, 40)), [float(rng.uniform(0, 3))])
        extract_xform(stationary_state(rho0.matrix, propagator))  # must not raise


def _bits(x: StationaryXForm) -> list[np.ndarray]:
    return [np.ascontiguousarray(getattr(x, name)).view(np.uint64) for name in "abcdf"]


@pytest.mark.parametrize("which", ["phi-", "psi+"])
def test_stationary_xforms_have_the_bits_of_the_per_point_path(which):
    rho0 = bell(which)
    grid = np.linspace(0.0, 4.0, 2000)
    shuffled = np.random.default_rng(60).uniform(0.0, 4.0, 500)
    for times in (grid, shuffled):
        per_point = per_point_xforms(rho0, 31.25, times)
        stacked = stationary_xforms(rho0, 31.25, times)
        assert all(map(np.array_equal, _bits(stacked), _bits(per_point)))


_SEVENTY_TIMES = np.linspace(0.0, 4.0, 70).tolist()  # past the first block edge


# The engine builds its own generator: at any drive it must be the bits of
# build_liouvillian(omega1), exponentiated one time at a time.
@settings(deadline=None)
@given(
    which=st.sampled_from(["phi-", "psi+"]),
    omega1=st.floats(min_value=0.0, max_value=1e3),
    times=st.lists(st.floats(min_value=0.0, max_value=4.0), max_size=70),
)
@example(which="phi-", omega1=0.0, times=_SEVENTY_TIMES)
@example(which="psi+", omega1=31.25, times=_SEVENTY_TIMES)
@example(which="phi-", omega1=1.0 / 3.0, times=_SEVENTY_TIMES)
@example(which="psi+", omega1=1.5e-323, times=_SEVENTY_TIMES)  # subnormal drive
def test_stationary_xforms_have_the_bits_of_the_per_point_path_at_any_drive(which, omega1, times):
    rho0 = bell(which)
    per_point = per_point_xforms(rho0, omega1, times)
    assert all(map(np.array_equal, _bits(stationary_xforms(rho0, omega1, times)), _bits(per_point)))


@pytest.mark.parametrize("which", ["phi-", "psi+"])
def test_stationary_xforms_are_within_1e_14_of_a_50_digit_reference(which):
    # 22 points on [0, 4] at the paper's drive, each time the float nearest k * delta.
    rho0, t_max, n = bell(which), 4.0, 22
    with mp.workdps(50):
        times = [float(k * (mp.mpf(t_max) / (n - 1))) for k in range(n)]
    x = stationary_xforms(rho0, 31.25, times)
    reference = np.array(xform_reference(rho0.matrix, 31.25, t_max, n))
    for i, name in enumerate("abcdf"):
        assert np.max(np.abs(getattr(x, name) - reference[:, i])) <= 1e-14, name


# One seeded ket per cell, so each drive is seen once and the worst measured cells are kept.
@pytest.mark.parametrize(
    "seed, omega1, t_max",
    [(0, 0.0, 1e6), (1, 1.0, 4.0), (2, 31.25, 1e3), (3, 1e3, 1e3), (3, 1e5, 4.0), (0, 1e5, 1e6)],
)
def test_seeded_kets_are_within_u_times_1_plus_norm_g_t_of_a_50_digit_reference(seed, omega1, t_max):
    # The contract: each reported field at time t is within u * (1 + ||G||_2 * t) of the
    # reference, u the unit roundoff. These cells read at most 0.24 of it.
    v = random_pure(np.random.default_rng(seed), 4)
    rho0, n = validate(np.outer(v, v.conj()), (2, 2)), 6
    with mp.workdps(50):
        times = [float(k * (mp.mpf(t_max) / (n - 1))) for k in range(n)]
    x = stationary_xforms(rho0, omega1, times)
    reference = np.array(xform_reference(rho0.matrix, omega1, t_max, n))
    bound = np.finfo(float).eps / 2 * (1 + np.linalg.norm(build_liouvillian(omega1), 2) * np.array(times))
    for i, name in enumerate("abcdf"):
        assert np.all(np.abs(getattr(x, name) - reference[:, i]) <= bound), name


@pytest.mark.parametrize("omega1", [3e6, 1e7, 1e9])
def test_large_drive_sweeps_are_within_u_omega_t_of_a_50_digit_reference(omega1):
    # The problem is ill-conditioned there, not wrong: an error of about
    # u * omega1 * T is what float64 allows, so a sweep must finish within it.
    ket, t_max, n = "(|10> - |01>)/sqrt(2)", 4.0, 400
    run_sweep(SweepConfig(ket, omega_ratio=omega1, gamma_t_max=t_max, samples=n))
    rho0 = parse_ket_expression(ket, (2, 2))
    with mp.workdps(50):
        times = [float(k * (mp.mpf(t_max) / (n - 1))) for k in range(n)]
    x = stationary_xforms(rho0, omega1, times)
    reference = np.array(xform_reference(rho0.matrix, omega1, t_max, n))
    bound = np.finfo(float).eps * omega1 * t_max
    for i, name in enumerate("abcdf"):
        assert np.max(np.abs(getattr(x, name) - reference[:, i])) <= bound, name


@pytest.mark.parametrize("ket", ["(|10> - |01>)/sqrt(2)", "(|11> + |00>)/sqrt(2)"], ids=["robust", "fragile"])
def test_a_paper_sweep_propagator_off_by_1e_12_fails_the_state_check(monkeypatch, ket):
    # Adding 1e-12 <<I| to row (0, 1) of each exp(L t) moves entry (0, 1) of each
    # state by 1e-12 tr(rho0): a Hermiticity defect within DRIFT_TOL, but past
    # each state's own bound, 16 u (1 + 33.25 t) <= 2.4e-13 up to t = 4.
    expm, nudge = engine_module.matrix_exponential, np.zeros((16, 16))
    nudge[4, np.eye(4).reshape(-1, order="F") == 1] = 1e-12  # column stacking: (0, 1) is entry 4
    monkeypatch.setattr(engine_module, "matrix_exponential", lambda m: expm(m) + nudge)
    with pytest.raises(StateValidationError, match=r"^matrix is not Hermitian \(magnitude 1\.000e-12\)$"):
        run_sweep(SweepConfig(ket, 31.25, 4.0, 2000))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: evolve rescales a trace drifted past DRIFT_TOL before its check, so a drift of "
    "1e-12 fails the state check and one of 1e-9 passes unnoticed (ROADMAP item 4 replaces the rescale)",
)
def test_trace_verdicts_are_monotone_in_the_drift(monkeypatch):
    # Adding drift <<I| to row (0, 0) of each exp(L t) adds drift tr(rho0) to entry (0, 0) of each
    # state, and so to its trace. 1e-12 is caught as a trace error, so 1e-9 must be too; a mend
    # that stops catching 1e-12 loosens the check and keeps this failing.
    def verdict(drift):
        expm, nudge = engine_module.matrix_exponential, np.zeros((16, 16))
        nudge[0, np.eye(4).reshape(-1, order="F") == 1] = drift  # column stacking: (0, 0) is entry 0
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "matrix_exponential", lambda m: expm(m) + nudge)
            try:
                run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", 31.25, 4.0, 50))
            except StateValidationError as error:
                return str(error).startswith("trace differs from one")
        return False

    assert verdict(1e-12) and verdict(1e-9)


def test_a_state_within_drift_tol_carries_its_defects_through_stationary_xforms():
    # rho0's own Hermiticity and trace defects, within DRIFT_TOL, pass through
    # exp(L t); they are not the propagation's, so the state check allows for them.
    m = np.eye(4, dtype=complex) / 4
    m[1, 2], m[2, 1], m[3, 3] = 0.1, 0.1 + 5e-11j, 0.25 + 5e-11
    x = stationary_xforms(validate(m, (2, 2)), 31.25, np.linspace(0.0, 4.0, 50))
    assert np.all(np.abs(x.a + x.b + x.c + x.d - 1.0) <= 1e-10)


def test_stationary_xforms_of_no_times_are_empty():
    x = stationary_xforms(bell("phi-"), 31.25, [])
    assert [np.shape(getattr(x, name)) for name in "abcdf"] == [(0,)] * 5


_QUTRIT_STATE = parse_ket_expression("|0,0>", (3, 3))


@pytest.mark.parametrize(
    "rho0, times, message",
    [
        (_QUTRIT_STATE, [], r"two-qubit notion, got dims \(3, 3\)"),
        (_QUTRIT_STATE, [0.5], r"two-qubit notion, got dims \(3, 3\)"),
    ],
    ids=["qutrit-no-times", "qutrit-one-time"],
)
def test_stationary_xforms_check_the_state_and_generator_before_any_time(rho0, times, message):
    with pytest.raises(DimensionMismatchError, match=message):
        stationary_xforms(rho0, 1.0, times)


def test_stationary_xforms_check_the_drive_then_the_times_then_the_state():
    # the order in which stationary_xforms(rho0, build_liouvillian(omega1), times) raised
    with pytest.raises(ValueError, match=r"^drive ratio omega1 must be finite and nonnegative, got -1\.0$"):
        stationary_xforms(_QUTRIT_STATE, -1.0, 0.5)
    with pytest.raises(ValueError, match=r"^times must be a one-dimensional sequence, got 0\.5$"):
        stationary_xforms(_QUTRIT_STATE, 1.0, 0.5)


def test_stationary_xforms_raise_the_first_failing_times_error():
    # At omega1 = 1e17 point 1 is the first whose propagator overflows; the
    # later points of its block of 64 overflow too.
    rho0 = parse_ket_expression("|10>", (2, 2))
    times = np.linspace(0.0, 1e4, 200)
    with pytest.raises(StateValidationError, match="not Hermitian") as per_point:
        per_point_xforms(rho0, 1e17, times)
    with pytest.raises(StateValidationError) as stacked:
        stationary_xforms(rho0, 1e17, times)
    assert str(stacked.value) == str(per_point.value)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16], ids=lambda dtype: dtype.__name__)
@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_stationary_xforms_at_the_block_edges_have_the_bits_of_the_per_point_path(count, dtype):
    # Blocks of 64: a partial first block, a full one, one more time, and a
    # partial third block; shuffled, so no block is sorted by time. A narrower
    # float drive and times give the bits of their float64 values.
    rho0 = bell("phi-")
    times = np.random.default_rng(count).permutation(np.linspace(0.0, 4.0, count)).astype(dtype)
    per_point = per_point_xforms(rho0, 31.25, times.tolist())
    assert all(map(np.array_equal, _bits(stationary_xforms(rho0, dtype(31.25), times)), _bits(per_point)))


def test_a_time_that_fails_first_in_the_second_block_raises_its_own_error():
    # Index 64 is the first slot of the second block; its propagator overflows.
    rho0 = bell("phi-")
    times = np.random.default_rng(64).uniform(0.0, 4.0, 129)
    times[64] = 1e30
    per_point_xforms(rho0, 31.25, times[:64])  # every earlier time passes on its own
    with pytest.raises(StateValidationError) as alone:
        per_point_xforms(rho0, 31.25, times[64:65])
    with pytest.raises(StateValidationError) as stacked:
        stationary_xforms(rho0, 31.25, times)
    assert (type(stacked.value), str(stacked.value)) == (type(alone.value), str(alone.value))
