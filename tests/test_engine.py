import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.linalg import expm

from dephasim import (
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
from test_package import SRC, _fresh


_BELL = {
    "phi-": "(|10> - |01>)/sqrt(2)",
    "phi+": "(|10> + |01>)/sqrt(2)",
    "psi+": "(|11> + |00>)/sqrt(2)",
    "psi-": "(|11> - |00>)/sqrt(2)",
}


def bell(which: str):
    return parse_ket_expression(_BELL[which], (2, 2))


@pytest.mark.parametrize(
    "dims, spectrum", [((2, 2), [1, 0, 0, -1]), ((3, 3), [2, 1, 0, 1, 0, -1, 0, -1, -2])], ids=["qubits", "qutrits"]
)
def test_collective_jz_is_the_diagonal_of_its_spectrum(dims, spectrum):
    jz = collective_jz(dims)
    assert np.array_equal(jz, np.diag(spectrum))
    assert np.isrealobj(jz)


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


def test_drive_off_equals_zero_intensity_drive():
    # equal in value to the drive-free reference; only the signs of some zeros differ
    off = kronecker_liouvillian((2, 2), 0.0, 1.0, False)
    assert np.array_equal(build_liouvillian(0.0), off)


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


def test_evolve_identity_at_zero_time():
    rho = bell("phi+")
    (propagator,) = _propagators(31.25, [0.0])
    assert np.array_equal(evolve(rho.matrix, propagator), rho.matrix)


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


# Each known state and its dephasing fixed point, within the tolerance given (0: exact). A qubit pair's fixed point
# is also what a pulse of length zero leaves, and the drive-free generator and propagators keep it.
_FIXED_POINTS = {
    "singlet": (bell("phi-"), bell("phi-").matrix, 0),
    "psi+": (bell("psi+"), np.diag([0.5, 0.0, 0.0, 0.5]), 1e-12),
    "diagonal": (validate(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2)), np.diag([0.4, 0.3, 0.2, 0.1]), 0),
    # every term has total spin 0
    "qutrit-central-sector": (parse_ket_expression("(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", (3, 3)),
                              parse_ket_expression("(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", (3, 3)).matrix, 0),
    "qutrit-pair": (parse_ket_expression("(|1,1> + |-1,-1>)/sqrt(2)", (3, 3)),
                    np.diag([0.5, 0, 0, 0, 0, 0, 0, 0, 0.5]), 1e-12),
}


@pytest.mark.parametrize("rho, fixed, tol", _FIXED_POINTS.values(), ids=_FIXED_POINTS)
def test_a_known_state_has_its_dephasing_fixed_point(rho, fixed, tol):
    assert np.max(np.abs(dephasing_fixed_point(rho).matrix - fixed)) <= tol
    if rho.dims == (2, 2):
        (at_zero,) = _propagators(31.25, [0.0])
        assert np.max(np.abs(stationary_state(rho.matrix, at_zero) - fixed)) <= 1e-12
        assert np.max(np.abs(build_liouvillian(0.0) @ fixed.reshape(-1, order="F"))) <= 1e-12
        for propagator in _propagators(0.0, (0.3, 2.0, 7.0)):
            assert np.max(np.abs(evolve(fixed, propagator) - fixed)) <= 1e-12


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
def test_long_pulses_reach_the_long_time_limit_on_the_haswell_kernel(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    root = SRC.parent
    cores = _fresh([str(root / "tests" / "openblas_cores.py")], root)
    if cores.stdout.split() != ["Haswell", "Haswell"]:
        pytest.skip(f"OpenBLAS does not select its Haswell kernel here: {cores.stdout.split()}")
    case = f"{__file__}::test_long_pulses_reach_the_long_time_limit"
    cases = [f"{case}[robust]", f"{case}[fragile]"]
    tests = _fresh(["-m", "pytest", "-q", "-p", "no:cacheprovider", *cases], root)
    assert tests.returncode == 0, tests.stdout


def test_extract_xform_values():
    x = extract_xform(bell("phi-").matrix)
    assert (x.a, x.d) == (0.0, 0.0)
    assert abs(x.b - 0.5) <= 1e-12 and abs(x.c - 0.5) <= 1e-12
    assert abs(x.f + 0.5) <= 1e-12
    mixed = extract_xform(validate(np.diag([0.0, 0.0, 0.0, 1.0]), (2, 2)).matrix)
    assert mixed.d == 1.0 and mixed.f == 0.0


def _bits(x: StationaryXForm) -> list[np.ndarray]:
    return [np.ascontiguousarray(getattr(x, name)).view(np.uint64) for name in "abcdf"]


def _assert_parity(rho0, omega1, times):
    """stationary_xforms gives the bits of the per-point path at float64 values, or the exact type and
    message of its first failing time's error."""
    try:
        per_point = per_point_xforms(rho0, float(omega1), [float(t) for t in times])
    except StateValidationError as error:
        with pytest.raises(StateValidationError) as stacked:
            stationary_xforms(rho0, omega1, times)
        assert (type(stacked.value), str(stacked.value)) == (type(error), str(error))
    else:
        assert all(map(np.array_equal, _bits(stationary_xforms(rho0, omega1, times)), _bits(per_point)))


# Each row: a ket, a drive, pulse times, and the index of the first time whose state fails (None: none fails).
_PARITY = {
    **{
        f"{which}-{name}": (_BELL[which], 31.25, times, None)
        for which in ("phi-", "psi+")
        for name, times in (("grid", np.linspace(0.0, 4.0, 2000)),
                            ("shuffled", np.random.default_rng(60).uniform(0.0, 4.0, 500)))
    },
    # Blocks of 64: a partial first block, a full one, one more time, and a partial third block; shuffled, so no
    # block is sorted by time. A narrower float drive and times give the bits of their float64 values.
    **{
        f"block-edge-{count}-{dtype.__name__}": (
            _BELL["phi-"], dtype(31.25),
            np.random.default_rng(count).permutation(np.linspace(0.0, 4.0, count)).astype(dtype), None)
        for count in (1, 63, 64, 65, 129)
        for dtype in (np.float64, np.float32, np.float16)
    },
    # At omega1 = 1e17 point 1 is the first whose propagator overflows; the later points of its block of 64
    # overflow too.
    "overflow-in-the-first-block": ("|10>", 1e17, np.linspace(0.0, 1e4, 200), 1),
    # Index 64 is the first slot of the second block; its propagator overflows.
    "overflow-in-the-second-block": (
        _BELL["phi-"], 31.25, np.where(np.arange(129) == 64, 1e30, np.random.default_rng(64).uniform(0.0, 4.0, 129)),
        64),
}


@pytest.mark.parametrize("ket, omega1, times, fails_at", _PARITY.values(), ids=_PARITY)
def test_stationary_xforms_have_the_bits_or_the_first_error_of_the_per_point_path(ket, omega1, times, fails_at):
    rho0 = parse_ket_expression(ket, (2, 2))
    if fails_at is not None:  # every earlier time passes on its own, and the row's time overflows
        per_point_xforms(rho0, omega1, times[:fails_at])
        with pytest.raises(StateValidationError, match=r"^matrix is not Hermitian"):
            per_point_xforms(rho0, omega1, times[fails_at:fails_at + 1])
    _assert_parity(rho0, omega1, times)


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
    _assert_parity(bell(which), omega1, times)


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
