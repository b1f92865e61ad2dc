import contextlib
import inspect
import io
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasim import (
    DensityMatrix,
    DephasimError,
    SweepConfig,
    SweepResult,
    compare_windows,
    concurrence_xform,
    parse_ket_expression,
    read_csv,
    run_qutrit_scan,
    run_sweep,
    stationary_xforms,
    write_criterion_report,
    write_csv,
)
from dephasim.engine import stationary_state
from dephasim.states import DRIFT_TOL
from dephasim.sweep import detect_local_maxima, detect_transitions
import dephasim.engine as engine_module
import dephasim.states as states_module
import dephasim.sweep as sweep_module
from dephasim import cli, errors
from dephasim.cli import main
import oracles
from test_package import _fresh


def synthetic_result(profile, gamma_t_max=1.0, samples=201, mutual=None):
    grid = np.linspace(0.0, gamma_t_max, samples)
    c = np.array([profile(g) for g in grid])
    mi = np.array([mutual(g) for g in grid]) if mutual else np.maximum(c, 0.0) + 0.1
    return SweepResult(grid, c, mi)


def test_detect_transitions_constant_curve_has_none():
    r = synthetic_result(lambda g: 1.0)
    assert detect_transitions(r.gamma_t, r.concurrence, lambda lows, mids: np.ones_like(mids)).tolist() == []


def test_detect_transitions_synthetic_sine():
    profile = lambda g: max(0.0, np.sin(10.0 * g))
    r = synthetic_result(profile)
    transitions = detect_transitions(r.gamma_t, r.concurrence, lambda lows, mids: np.vectorize(profile)(mids)).tolist()
    expected = [0.0, np.pi / 10.0, 2 * np.pi / 10.0, 3 * np.pi / 10.0]
    assert len(transitions) == len(expected)
    for got, want in zip(transitions, expected):
        assert abs(got - want) <= 1e-6


# Brackets [0, .25], [.25, .5] and [.5, .75] on a 5-sample grid.
_THREE_BRACKETS = lambda g: np.where((g < 0.2) | ((0.3 < g) & (g < 0.6)), 1.0, 0.0)


def test_a_failing_bisection_step_raises_the_error_of_its_own_call():
    # Lockstep meets the third bracket's failure at its first step and the
    # first bracket's at its fifth. The step that fails first raises, so the
    # third bracket's error wins, though bracket by bracket the first would.
    def concurrence_of(lows, times):
        for t in times:
            if 0.19 < t < 0.2:
                raise DephasimError("first bracket")
            if 0.5 < t < 0.75:
                raise DephasimError("third bracket")
        return _THREE_BRACKETS(times)

    result = synthetic_result(_THREE_BRACKETS, samples=5)
    with pytest.raises(DephasimError, match="^third bracket$"):
        detect_transitions(result.gamma_t, result.concurrence, concurrence_of)


def test_one_failing_bracket_raises_the_error_of_bracket_by_bracket_bisection():
    # Only the first bracket meets a failing time, at its fifth step.
    def concurrence_at(t):
        if 0.19 < t < 0.2:
            raise DephasimError(f"failed at {float(t)!r}")
        return float(_THREE_BRACKETS(t))

    result = synthetic_result(_THREE_BRACKETS, samples=5)
    with pytest.raises(DephasimError, match="^failed at ") as per_point:
        oracles.bisect_transitions(result.gamma_t, result.concurrence, concurrence_at)
    with pytest.raises(DephasimError) as lockstep:
        detect_transitions(result.gamma_t, result.concurrence, lambda lows, ts: np.array([concurrence_at(t) for t in ts]))
    assert str(lockstep.value) == str(per_point.value)


def test_detect_local_maxima_monotone_profile_has_none():
    result = synthetic_result(lambda g: g)
    assert detect_local_maxima(result.gamma_t, result.concurrence, result.mutual_information).tolist() == []


def test_detect_local_maxima_single_bump():
    result = synthetic_result(lambda g: np.exp(-((g - 0.5) ** 2) / 0.01))
    maxima = detect_local_maxima(result.gamma_t, result.concurrence, result.mutual_information).tolist()
    assert len(maxima) == 1
    gamma_t, c_value, mi_value = maxima[0]
    assert abs(gamma_t - 0.5) <= 0.01
    assert c_value > 0 and mi_value > 0


@pytest.mark.parametrize("samples", [1, 2, 3, 50])
def test_detect_local_maxima_matches_a_loop(samples):
    # Small integer levels give plateaus and ties, which are not maxima.
    rng = np.random.default_rng(samples)
    c = rng.integers(0, 4, size=samples).astype(float) + 1.0
    result = SweepResult(np.arange(samples, dtype=float), c, 2.0 * c)
    want = [
        [float(i), c[i], 2.0 * c[i]]
        for i in range(1, samples - 1)
        if c[i] > c[i - 1] and c[i] > c[i + 1]
    ]
    assert detect_local_maxima(result.gamma_t, result.concurrence, result.mutual_information).tolist() == want


def test_compare_windows_self_overlap():
    profile = lambda g: max(0.0, np.sin(10.0 * g))
    result = synthetic_result(profile)
    report = compare_windows(result, result)
    assert report.overlap_count == report.a_entangled == report.b_entangled
    assert report.overlap_count == int(np.count_nonzero(result.concurrence > 1e-9))


def test_compare_windows_disjoint_profiles():
    a = synthetic_result(lambda g: max(0.0, np.sin(10.0 * g)))
    b = synthetic_result(lambda g: max(0.0, -np.sin(10.0 * g)))
    report = compare_windows(a, b)
    assert report.overlap_count == 0


def test_write_csv_structure(tmp_path):
    result = SweepResult(
        np.array([0.0, 0.5]),
        np.array([1.0, 0.25]),
        np.array([2.0, 0.75]),
        transitions=[0.3],
        maxima=[(0.5, 0.25, 0.75)],
    )
    path = tmp_path / "rows.csv"
    write_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma_T,concurrence,mutual_information"
    assert lines[1] == "0,1,2"
    assert lines[2] == "0.5,0.25,0.75"
    assert lines[3].startswith("# transition gamma_T = 0.3")
    assert lines[4].startswith("# maximum gamma_T = 0.5")
    assert path.read_text().endswith("\n")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    grid = np.sort(rng.uniform(0, 4, size=20))
    result = SweepResult(grid, rng.uniform(0, 1, 20), rng.uniform(0, 2, 20), transitions=[1.25])
    path = tmp_path / "round.csv"
    write_csv(result, str(path))
    back = read_csv(str(path))
    assert np.allclose(back.gamma_t, result.gamma_t, rtol=1e-11, atol=0)
    assert np.allclose(back.concurrence, result.concurrence, rtol=1e-11, atol=1e-15)
    assert np.allclose(back.mutual_information, result.mutual_information, rtol=1e-11, atol=1e-15)
    assert back.transitions == [1.25]
    # a second write of the parsed result reproduces the file byte for byte
    path2 = tmp_path / "round2.csv"
    write_csv(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(
    columns=st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(_FINITE_FLOATS, min_size=n, max_size=n, unique=True).map(sorted),
            st.lists(_FINITE_FLOATS, min_size=n, max_size=n),
            st.lists(_FINITE_FLOATS, min_size=n, max_size=n),
        )
    )
)
@example(columns=([-1e308, -0.0, 5e-324, 1e308], [-0.0, 2.5e-310, -1.7976931348623157e308, 1e308], [0.0] * 4))
# values at or next to a rounding tie in the 12th significant digit
@example(columns=([0.1234567890125, 1.0000000000005, 9.9999999999995, 999999999999.5], [1 / 3, 2 / 3, 1e-5, 1e22], [0.5] * 4))
def test_write_csv_rows_are_the_fmt_of_each_cell(tmp_path_factory, columns):
    gamma_t, concurrence, mutual_information = columns
    result = SweepResult(np.array(gamma_t), np.array(concurrence), np.array(mutual_information))
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_csv(result, str(path))
    fmt = sweep_module._FMT
    rows = zip(result.gamma_t, result.concurrence, result.mutual_information)
    want = [f"{fmt % g},{fmt % c},{fmt % m}" for g, c, m in rows]
    assert path.read_text(encoding="utf-8").splitlines()[1:] == want


def test_run_sweep_without_drive_is_flat():
    config = SweepConfig(
        initial_state="(|10> - |01>)/sqrt(2)", omega_ratio=0.0, gamma_t_max=1.0, samples=11
    )
    result = run_sweep(config)
    assert np.allclose(result.concurrence, 1.0, atol=1e-9)
    assert np.allclose(result.mutual_information, 2.0, atol=1e-9)
    assert result.transitions == []


def test_run_sweep_small_grid_features():
    config = SweepConfig(
        initial_state="(|10> - |01>)/sqrt(2)", omega_ratio=31.25, gamma_t_max=0.3, samples=151
    )
    result = run_sweep(config)
    assert abs(result.concurrence[0] - 1.0) <= 1e-9
    assert abs(result.mutual_information[0] - 2.0) <= 1e-9
    assert np.all(result.mutual_information >= result.concurrence - 1e-9)
    # the first driven window closes around Omega*T = pi/2
    assert result.transitions
    assert abs(result.transitions[0] - np.pi / 2 / 31.25) <= 0.01
    for transition in result.transitions:
        assert 0.0 < transition < 0.3


def test_refined_transitions_sit_on_the_curve_zero():
    config = SweepConfig(
        initial_state="(|10> - |01>)/sqrt(2)", omega_ratio=31.25, gamma_t_max=0.3, samples=151
    )
    result = run_sweep(config)
    rho0 = parse_ket_expression(config.initial_state, (2, 2))
    x = oracles.per_point_xforms(rho0, config.omega_ratio, result.transitions)
    assert np.all(np.abs(concurrence_xform(x)) <= 1e-6)


def _point_by_point_sweep(ket, omega_ratio, gamma_t_max, samples):
    """Rows, transitions and maxima with a block of one and scalar closed forms per point."""
    rho0 = parse_ket_expression(ket, (2, 2))

    def fields(times):
        x = oracles.per_point_xforms(rho0, omega_ratio, times)
        return list(zip(x.a.tolist(), x.b.tolist(), x.c.tolist(), x.d.tolist(), x.f.tolist()))

    grid = np.linspace(0.0, gamma_t_max, samples)
    points = fields(grid)
    c = np.array([oracles.concurrence_xform(*p) for p in points])
    mi = np.array([oracles.mutual_information_xform(*p) for p in points])
    transitions = oracles.bisect_transitions(
        grid, c, lambda gamma_t: oracles.concurrence_xform(*fields([gamma_t])[0])
    )
    maxima = [
        (grid[i], c[i], mi[i]) for i in range(1, samples - 1) if c[i - 1] < c[i] > c[i + 1]
    ]
    return np.column_stack([grid, c, mi]), transitions, maxima


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


SWEEP_KETS = [
    "(|10> - |01>)/sqrt(2)",
    "(|11> + |00>)/sqrt(2)",
    "|10>",
    "0.3|11> + 0.5|10> - 0.2|01> + 0.78|00>",
]


@pytest.mark.parametrize(
    "omega_ratio, gamma_t_max, samples",
    [(1.0, 10.0, 300), (5.0, 4.0, 130), (31.25, 4.0, 100), (200.0, 2.0, 777)],
)
@pytest.mark.parametrize("ket", SWEEP_KETS)
def test_run_sweep_has_the_bits_of_a_point_by_point_sweep(ket, omega_ratio, gamma_t_max, samples):
    # One stack through the array closed forms and lockstep bisection must give
    # what scalar closed forms and bracket-by-bracket bisection give, bit for bit.
    result = run_sweep(SweepConfig(ket, omega_ratio, gamma_t_max, samples))
    rows, transitions, maxima = _point_by_point_sweep(ket, omega_ratio, gamma_t_max, samples)
    columns = zip(result.gamma_t, result.concurrence, result.mutual_information)
    assert np.array_equal(_bits(list(columns)), _bits(rows))
    assert np.array_equal(_bits(result.transitions), _bits(transitions))
    assert np.array_equal(_bits(result.maxima).reshape(-1), _bits(maxima).reshape(-1))


@pytest.mark.parametrize("seed", range(60))
def test_composed_bisection_gives_the_transitions_of_per_point_propagators(seed):
    # Bisection midpoints get exp(L (mid - lo)) exp(L lo), a fresh exp(L mid) only to rounding;
    # on the first 60 sweeps of the seeded population, no transition moves a bit.
    sweep = oracles.seeded_sweep(seed)
    _, transitions, _ = _point_by_point_sweep(*sweep)
    assert np.array_equal(_bits(run_sweep(SweepConfig(*sweep)).transitions), _bits(transitions))


def _recorded_bisection(monkeypatch):
    """The (midpoints, concurrences) of each lockstep bisection step of the sweeps that run from here on."""
    steps, detect = [], sweep_module.detect_transitions

    def recording(gamma_t, concurrence, concurrence_of):
        def recorded(lows, mids):
            steps.append((mids, concurrence_of(lows, mids)))
            return steps[-1][1]

        return detect(gamma_t, concurrence, recorded)

    monkeypatch.setattr(sweep_module, "detect_transitions", recording)
    return steps


_PAPER_KETS = {"robust": "(|10> - |01>)/sqrt(2)", "fragile": "(|11> + |00>)/sqrt(2)"}


def _instrumented_sweep(ket):
    """One paper sweep (omega 31.25, gamma_T up to 4, 2000 samples), with what it handed its propagators,
    its bisection steps and evolve."""
    propagators, helper, evolve = engine_module._propagators, engine_module._bisection_xforms, engine_module.evolve
    run = SimpleNamespace(made=[], handed=[], kept=[], steppers=[], drifts=[])

    def watched_helper(*args):
        step = helper(*args)
        run.steppers.append(weakref.ref(step))
        kept = lambda: inspect.getclosurevars(inspect.unwrap(step)).nonlocals["kept"]

        def watching(lows, mids):
            run.handed.append((lows, mids))
            xforms = step(lows, mids)
            run.kept.append((len(kept()), len(mids)))
            return xforms

        return watching

    def watched_evolve(rho0, propagator, tol):
        out = (propagator @ rho0.reshape(-1, order="F")).reshape(rho0.shape, order="F")
        run.drifts.append(abs(out.trace().real - 1.0))
        return evolve(rho0, propagator, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_propagators", lambda w, ts: run.made.append(len(ts)) or propagators(w, ts))
        patch.setattr(sweep_module, "_bisection_xforms", watched_helper)
        patch.setattr(engine_module, "evolve", watched_evolve)
        run.steps = _recorded_bisection(patch)
        run.result = run_sweep(SweepConfig(ket, 31.25, 4.0, 2000))
    return run


@pytest.fixture(scope="module")
def paper_sweeps():
    """Each paper sweep, run once for the structural tests below."""
    return {name: _instrumented_sweep(ket) for name, ket in _PAPER_KETS.items()}


@pytest.mark.parametrize("name, midpoints", [("robust", 399), ("fragile", 420)], ids=_PAPER_KETS)
def test_composed_midpoints_are_fresh_ones_to_rounding_at_a_third_of_the_exponentials(paper_sweeps, name, midpoints):
    run = paper_sweeps[name]
    assert run.made[0] == 2000 and len(run.made) == 1 + len(run.steps)  # the grid, then one call per step
    assert sum(run.made[1:]) < midpoints / 3
    mids, composed = map(np.concatenate, zip(*run.steps))
    fresh = concurrence_xform(stationary_xforms(parse_ket_expression(_PAPER_KETS[name], (2, 2)), 31.25, mids))
    assert len(mids) == midpoints
    assert np.max(np.abs(composed - fresh)) <= 1e-13


def test_bisection_keeps_two_propagators_per_open_bracket_and_none_past_its_sweep(paper_sweeps):
    for run in paper_sweeps.values():
        assert run.kept and all(kept <= 2 * brackets for kept, brackets in run.kept)
        assert [ref() for ref in run.steppers] == [None]


@pytest.mark.parametrize("name, crossings, midpoints", [("robust", 19, 399), ("fragile", 20, 420)], ids=_PAPER_KETS)
def test_each_bisection_step_is_handed_its_brackets_low_ends(paper_sweeps, name, crossings, midpoints):
    run = paper_sweeps[name]
    entangled = run.result.concurrence > sweep_module.ENTANGLEMENT_THRESHOLD
    starts = run.result.gamma_t[np.flatnonzero(entangled[:-1] != entangled[1:])]
    assert len(starts) == crossings and np.array_equal(run.handed[0][0], starts)
    for (lows, mids), (later, _) in zip(run.handed, run.handed[1:]):
        assert np.isin(later, np.concatenate([lows, mids])).all()
    assert all(np.all(lows < mids) for lows, mids in run.handed)
    assert len(run.handed) == 21 and sum(len(mids) for _, mids in run.handed) == midpoints


def test_no_paper_sweep_state_reaches_the_trace_rescale(paper_sweeps):
    # evolve rescales a trace drifted past DRIFT_TOL; on both paper sweeps no state drifts that far.
    drifts = [drift for run in paper_sweeps.values() for drift in run.drifts]
    assert len(drifts) == 4819  # 2399 + 2420 propagated states
    assert max(drifts) <= DRIFT_TOL


def test_a_sweep_validates_only_its_parsed_ket(monkeypatch):
    # Validation happens at the boundary: the parsed ket is the one DensityMatrix
    # checked, and each evolved state gets the Hermiticity and trace checks as a
    # bare matrix, becoming no DensityMatrix, checked or unchecked. Positivity
    # is one eigvalsh, the parsed ket's; the X-forms check the rest.
    validated, trusted, propagated, times, spectra = [], [], [], [], []
    post_init, state, xforms = DensityMatrix.__post_init__, stationary_state, stationary_xforms
    trusted_state, eigvalsh = engine_module._trusted_state, states_module._eigvalsh

    def counting_post_init(self):
        validated.append(self.dims)
        post_init(self)

    def counting_trusted_state(matrix, dims):
        trusted.append(dims)
        return trusted_state(matrix, dims)

    def counting_state(rho0, propagator, tol):
        propagated.append(propagator)
        return state(rho0, propagator, tol)

    def counting_xforms(rho0, omega1, ts):
        times.append(len(ts))
        return xforms(rho0, omega1, ts)

    def counting_eigvalsh(m):
        spectra.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine_module, "_trusted_state", counting_trusted_state)
    monkeypatch.setattr(engine_module, "stationary_state", counting_state)
    monkeypatch.setattr(sweep_module, "stationary_xforms", counting_xforms)
    monkeypatch.setattr(states_module, "_eigvalsh", counting_eigvalsh)
    steps = _recorded_bisection(monkeypatch)
    run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", omega_ratio=31.25, samples=50))
    assert validated == [(2, 2)]
    assert spectra == [(4, 4)]
    assert trusted == []
    assert times == [50] and steps  # the grid; bisection midpoints compose their propagators
    assert len(propagated) == 50 + sum(len(mids) for mids, _ in steps)


def test_run_sweep_builds_one_sweep_result(monkeypatch):
    # The detectors read the grid columns, so the result and its checks are made once, with its features.
    post_init, built = SweepResult.__post_init__, []
    monkeypatch.setattr(SweepResult, "__post_init__", lambda self: built.append(self) or post_init(self))
    result = run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", samples=200))
    assert len(built) == 1 and built[0] is result
    assert result.transitions and result.maxima


def test_an_earlier_points_xform_error_wins_over_a_later_points_state_error(monkeypatch):
    # Point 2 fails its state check and point 1 its X-form check; point by
    # point, point 1 is met first, so its error wins though the X-forms come later.
    matrices = iter([np.eye(4) / 4, np.diag([-0.1, 0.6, 0.5, 0.0])])

    def stationary_state(rho0, propagator, tol):
        matrix = next(matrices, None)
        if matrix is None:
            raise errors.StateValidationError("matrix is not Hermitian", 1.0)
        return matrix

    monkeypatch.setattr(engine_module, "stationary_state", stationary_state)
    with pytest.raises(errors.StateValidationError, match=r"^negative population \(magnitude 1\.000e-01\)$"):
        run_sweep(SweepConfig("|10>", samples=5))


def test_detect_transitions_returns_where_float_spacing_exceeds_the_tolerance(tmp_path):
    # Above gamma_T ~ 8.4e6 neighbouring floats lie more than 1e-9 apart, so a
    # bracket never gets narrower than the tolerance. A fresh process with a
    # timeout turns a bisection that never returns into a failure.
    code = (
        "import numpy as np\n"
        "from dephasim.sweep import detect_transitions\n"
        "step = lambda t: np.where(np.asarray(t) < 1.23e7, 1.0, 0.0)\n"
        "grid = np.linspace(0.0, 2e7, 11)\n"
        "print(*detect_transitions(grid, step(grid), lambda lows, t: step(t)).tolist())\n"
    )
    proc = _fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    (transition,) = (float(t) for t in proc.stdout.split())
    assert abs(transition - 1.23e7) <= np.spacing(1.23e7)


def test_detect_local_maxima_stable_under_grid_refinement():
    profile = lambda g: max(0.0, np.sin(10.0 * g)) * np.exp(-g)
    results = (synthetic_result(profile, gamma_t_max=1.5, samples=n) for n in (151, 1501))
    coarse, fine = (detect_local_maxima(r.gamma_t, r.concurrence, r.mutual_information).tolist() for r in results)
    assert len(coarse) == len(fine)
    coarse_step = 1.5 / 150
    for (g_coarse, _, _), (g_fine, _, _) in zip(coarse, fine):
        assert abs(g_coarse - g_fine) <= coarse_step


def test_transitions_stable_under_grid_refinement():
    # The 2n - 1 grid holds every point of the n grid, so both brackets close
    # on the same crossing, each to within the 1e-9 bisection width.
    coarse = SweepConfig(
        initial_state="(|11> + |00>)/sqrt(2)", omega_ratio=31.25, gamma_t_max=0.3, samples=151
    )
    want = run_sweep(coarse).transitions
    got = run_sweep(replace(coarse, samples=301)).transitions
    assert want and len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9


_REPORT_HEAD = "mode = qutrit-criterion\ninitial_state = "


@pytest.mark.parametrize(
    "ket, body",
    [
        (
            "(|1,0> + |0,1>)/sqrt(2)",
            "(|1,0> + |0,1>)/sqrt(2)\n"
            "xi = 0\nzeta = -0.25\neta = 0\nxi_population_squares = 0\n"
            "cubic_has_negative_root = true\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = true\n"
            "min_pt_eigenvalue = -0.5\n",
        ),
        (
            "(|1,1> + |-1,-1>)/sqrt(2)",
            "(|1,1> + |-1,-1>)/sqrt(2)\n"
            "xi = 1\nzeta = 0.25\neta = 0\nxi_population_squares = 0.5\n"
            "cubic_has_negative_root = false\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = false\n"
            "min_pt_eigenvalue = 0\n",
        ),
        (
            "0.3|1,-1> - 0.7|0,0> + 0.2|-1,1>",
            "0.3|1,-1> - 0.7|0,0> + 0.2|-1,1>\n"
            "xi = 0.790322580645\nzeta = -0.00936524453694\neta = 0.00740156423081\n"
            "xi_population_squares = 0.624609781478\ncubic_has_negative_root = true\n"
            "pt_block_plus_negative = true\npt_block_minus_negative = true\n"
            "sufficient_entangled = true\nmin_pt_eigenvalue = -0.338709677419\n",
        ),
        (
            "|0,0>",
            "|0,0>\n"
            "xi = 1\nzeta = 0\neta = 0\nxi_population_squares = 1\n"
            "cubic_has_negative_root = false\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = false\n"
            "min_pt_eigenvalue = 0\n",
        ),
        # a ket's line break is written as a space, so the ket stays on its line
        (
            "|0,0> +\n|1,1>",
            "|0,0> + |1,1>\n"
            "xi = 1\nzeta = 0.25\neta = 0\nxi_population_squares = 0.5\n"
            "cubic_has_negative_root = false\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = false\n"
            "min_pt_eigenvalue = 0\n",
        ),
    ],
    ids=["coherent-pair", "dephased-pair", "three-term", "product", "multiline-ket"],
)
def test_qutrit_report_bytes(tmp_path, ket, body):
    path = tmp_path / "report.txt"
    write_criterion_report(run_qutrit_scan(ket), ket, str(path))
    assert path.read_bytes() == (_REPORT_HEAD + body).encode("utf-8")


@pytest.mark.parametrize("dtype", [np.float32, np.float16], ids=lambda dtype: dtype.__name__)
def test_a_narrow_float_config_sweeps_as_its_float64_value(dtype):
    ket = "(|10> - |01>)/sqrt(2)"
    narrow = run_sweep(SweepConfig(ket, omega_ratio=dtype(31.25), gamma_t_max=dtype(2.1), samples=50))
    wide = run_sweep(SweepConfig(ket, omega_ratio=31.25, gamma_t_max=float(dtype(2.1)), samples=50))
    for name in ("gamma_t", "concurrence", "mutual_information"):
        assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes(), name
    assert narrow.transitions and (narrow.transitions, narrow.maxima) == (wide.transitions, wide.maxima)


def test_a_repr_of_up_to_500_characters_is_shown_in_full():
    assert errors._shown("x" * 498) == repr("x" * 498)
    assert errors._shown("x" * 499) == "<str too long to print>"


@pytest.mark.parametrize(
    "comment",
    ["# note: no transition found = 7", "# a maximum gamma_T = 1", "#", "#transitions gamma_T = 1"],
    ids=["note", "second-word", "bare", "other-word"],
)
def test_read_csv_ignores_a_comment_that_is_not_a_feature(tmp_path, comment):
    path = tmp_path / "noted.csv"
    path.write_text("gamma_T,concurrence,mutual_information\n0,1,2\n0.5,1,2\n" + comment + "\n")
    back = read_csv(str(path))
    assert (back.transitions, back.maxima, back.gamma_t.tolist()) == ([], [], [0.0, 0.5])


_FINITE_RESULT = dict(
    gamma_t=[0.0, 1.0],
    concurrence=[0.0, 0.5],
    mutual_information=[0.0, 1.5],
    transitions=[0.25],
    maxima=[(1.0, 0.5, 1.5)],
)


@pytest.mark.parametrize(
    "name, value",
    [
        ("gamma_t", [0.0, np.inf]),
        ("concurrence", [np.nan, 0.5]),
        ("mutual_information", [0.0, -np.inf]),
        ("transitions", [np.inf]),
        ("transitions", [np.nan]),
        ("maxima", [(1.0, 0.5, np.nan)]),
        ("maxima", [(np.inf, 0.5, 1.5)]),
    ],
)
def test_sweep_result_holds_only_what_read_csv_reads_back(tmp_path, name, value):
    # read_csv refuses a non-finite value, so a SweepResult that held one would
    # write a file that cannot be read back; the finite result round-trips.
    path = tmp_path / "finite.csv"
    write_csv(SweepResult(**_FINITE_RESULT), str(path))
    back = read_csv(str(path))
    assert (back.transitions, back.maxima) == (_FINITE_RESULT["transitions"], _FINITE_RESULT["maxima"])
    with pytest.raises(ValueError, match=f"^{name} values must be finite$"):
        SweepResult(**dict(_FINITE_RESULT, **{name: value}))


def test_sweep_result_takes_integer_rows_and_no_features(tmp_path):
    result = SweepResult([0, 1], [0, 1], [0, 2])
    assert result.gamma_t.dtype == float and (result.transitions, result.maxima) == ([], [])
    path = tmp_path / "ints.csv"
    write_csv(result, str(path))
    assert read_csv(str(path)).gamma_t.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_config_keeps_a_hash_inside_a_value(tmp_path):
    # a "#" starts a comment only at the start of a line or after whitespace
    out = tmp_path / "res#1.csv"
    config_path = tmp_path / "hash.cfg"
    config_path.write_text(f"initial_state = |10>  # comment\nsamples = 3\noutput = {out}\n")
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["hash.cfg", "res#1.csv"]


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from([["sweep", "--samples", "3"], ["qutrit"]]), ket=st.text())
@example(command=["sweep", "--samples", "3"], ket="--")  # argparse drops a "--" value
def test_cli_is_total_on_any_initial_state(tmp_path_factory, command, ket):
    out = str(tmp_path_factory.getbasetemp() / "any_ket.out")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*command, f"--initial-state={ket}", "--output", out])
    assert code in (0, 1, 2, 3)
    err = stderr.getvalue()
    assert err == "" or (err.startswith("dephasim: ") and err.count("\n") == 1 and err.endswith("\n"))


def test_cli_reads_a_ket_that_starts_with_a_minus_sign(tmp_path):
    # -|10> and |10> differ by a global phase, so they give the same stationary states.
    base = ["sweep", "--samples", "5", "--gamma-t-max", "0.5"]
    want, flag, from_file = (tmp_path / name for name in ("want.csv", "flag.csv", "file.csv"))
    assert main(base + ["--initial-state", "|10>", "--output", str(want)]) == 0
    assert main(base + ["--initial-state=-|10>", "--output", str(flag)]) == 0
    config_path = tmp_path / "minus.cfg"
    config_path.write_text("initial_state = -|10>\n")
    assert main(base + ["--config", str(config_path), "--output", str(from_file)]) == 0
    assert flag.read_bytes() == want.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize("overlap", [0, 1, 20, 21])
def test_cli_compare_lists_at_most_20_overlap_points(tmp_path, capsys, overlap):
    grid = np.linspace(0.0, 1.0, 30)
    both_on = np.arange(30) < overlap
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(SweepResult(grid, np.ones(30), np.ones(30)), str(a_path))
    write_csv(SweepResult(grid, both_on * 0.5, np.ones(30)), str(b_path))
    assert main(["compare", "--a", str(a_path), "--b", str(b_path)]) == 0
    listed = [line for line in capsys.readouterr().out.splitlines() if "overlap at" in line]
    want = [f"  overlap at gamma_T = {g:.12g}" for g in grid[both_on]] if overlap <= 20 else []
    assert listed == want


@pytest.mark.parametrize(
    "cls", [cls for _, cls in inspect.getmembers(errors, inspect.isclass)], ids=lambda c: c.__name__
)
def test_cli_exit_code_follows_from_the_error_class(tmp_path, capsys, monkeypatch, cls):
    # ParseError and StateValidationError also take a position or a magnitude.
    takes_two = issubclass(cls, (errors.ParseError, errors.StateValidationError))
    args = ("boom", 0) if takes_two else ("boom",)

    def scan(initial_state):
        raise cls(*args)

    monkeypatch.setattr(cli, "run_qutrit_scan", scan)
    code = main(["qutrit", "--initial-state", "|0,0>", "--output", str(tmp_path / "r.txt")])
    assert code == (1 if issubclass(cls, ValueError) else 2)
    err = capsys.readouterr().err
    assert err.startswith("dephasim: ") and err.count("\n") == 1
