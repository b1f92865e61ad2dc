import contextlib
import inspect
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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
    mutual_information_xform,
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

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_compare_windows_rejects_grid_mismatch():
    a = synthetic_result(lambda g: 1.0, samples=101)
    b = synthetic_result(lambda g: 1.0, samples=100)
    with pytest.raises(ValueError, match="^sweeps do not share the same gamma_T grid$") as info:
        compare_windows(a, b)
    assert not isinstance(info.value, DephasimError)


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


@pytest.mark.parametrize("ket", ["(|10> - |01>)/sqrt(2)", "(|11> + |00>)/sqrt(2)"])
def test_run_sweep_rows_match_a_fresh_generator_per_point(ket):
    # run_sweep builds its generator once and exponentiates its grid in
    # blocks; a new generator and a block of one for every point must give the
    # same bits, also where the last block is partly filled.
    for samples in (130, 200):
        config = SweepConfig(initial_state=ket, omega_ratio=31.25, samples=samples)
        result = run_sweep(config)
        grid = np.linspace(0.0, config.gamma_t_max, config.samples)
        x = oracles.per_point_xforms(parse_ket_expression(ket, (2, 2)), config.omega_ratio, grid)
        rows = zip(grid, concurrence_xform(x), mutual_information_xform(x))
        columns = zip(result.gamma_t, result.concurrence, result.mutual_information)
        assert np.array_equal(np.array(list(columns)), np.array(list(rows))), samples


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


def _random_sweep(seed):
    """(ket, omega_ratio, gamma_t_max, samples) of a seeded real ket, its grid often too coarse for its drive."""
    rng = np.random.default_rng(seed)
    ket = "".join(f"{a:+.6f}|{label}>" for a, label in zip(rng.standard_normal(4), ("11", "10", "01", "00")))
    samples = int(rng.choice([20, 50, 100, 400]))
    return ket, float(0.5 * 2e4 ** rng.uniform()), float(rng.uniform(4.0, 100.0)), samples


@pytest.mark.parametrize("seed", range(60))
def test_composed_bisection_gives_the_transitions_of_per_point_propagators(seed):
    # Bisection midpoints get exp(L (mid - lo)) exp(L lo), a fresh exp(L mid) only to rounding;
    # with omega_ratio 0.5 to 1e4 and gamma_t_max 4 to 100 on 20 to 400 samples, no transition moves a bit.
    sweep = _random_sweep(seed)
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


@pytest.mark.parametrize(
    "ket, midpoints", [("(|10> - |01>)/sqrt(2)", 399), ("(|11> + |00>)/sqrt(2)", 420)], ids=["robust", "fragile"]
)
def test_composed_midpoints_are_fresh_ones_to_rounding_at_a_third_of_the_exponentials(monkeypatch, ket, midpoints):
    made, propagators = [], engine_module._propagators
    monkeypatch.setattr(engine_module, "_propagators", lambda w, ts: made.append(len(ts)) or propagators(w, ts))
    steps = _recorded_bisection(monkeypatch)
    run_sweep(SweepConfig(ket, 31.25, 4.0, 2000))
    assert made[0] == 2000 and len(made) == 1 + len(steps)  # the grid, then one call per step
    assert sum(made[1:]) < midpoints / 3
    mids, composed = map(np.concatenate, zip(*steps))
    fresh = concurrence_xform(stationary_xforms(parse_ket_expression(ket, (2, 2)), 31.25, mids))
    assert len(mids) == midpoints
    assert np.max(np.abs(composed - fresh)) <= 1e-13


def test_bisection_keeps_two_propagators_per_open_bracket_and_none_past_its_sweep(monkeypatch):
    helper, refs, sizes = engine_module._bisection_xforms, [], []

    def watched(*args):
        step = helper(*args)
        refs.append(weakref.ref(step))
        kept = lambda: inspect.getclosurevars(inspect.unwrap(step)).nonlocals["kept"]

        def watching(lows, mids):
            xforms = step(lows, mids)
            sizes.append((len(kept()), len(mids)))
            return xforms

        return watching

    monkeypatch.setattr(sweep_module, "_bisection_xforms", watched)
    run_sweep(SweepConfig("(|11> + |00>)/sqrt(2)", 31.25, 4.0, 2000))
    assert sizes and all(kept <= 2 * brackets for kept, brackets in sizes)
    assert [ref() for ref in refs] == [None]


@pytest.mark.parametrize(
    "ket, crossings, midpoints", [("(|10> - |01>)/sqrt(2)", 19, 399), ("(|11> + |00>)/sqrt(2)", 20, 420)],
    ids=["robust", "fragile"],
)
def test_each_bisection_step_is_handed_its_brackets_low_ends(monkeypatch, ket, crossings, midpoints):
    helper, calls = engine_module._bisection_xforms, []

    def watched(*args):
        step = helper(*args)
        return lambda lows, mids: calls.append((lows, mids)) or step(lows, mids)

    monkeypatch.setattr(sweep_module, "_bisection_xforms", watched)
    result = run_sweep(SweepConfig(ket, 31.25, 4.0, 2000))
    entangled = result.concurrence > sweep_module.ENTANGLEMENT_THRESHOLD
    starts = result.gamma_t[np.flatnonzero(entangled[:-1] != entangled[1:])]
    assert len(starts) == crossings and np.array_equal(calls[0][0], starts)
    for (lows, mids), (later, _) in zip(calls, calls[1:]):
        assert np.isin(later, np.concatenate([lows, mids])).all()
    assert all(np.all(lows < mids) for lows, mids in calls)
    assert len(calls) == 21 and sum(len(mids) for _, mids in calls) == midpoints


def test_no_paper_sweep_state_reaches_the_trace_rescale(monkeypatch):
    # evolve rescales a trace drifted past DRIFT_TOL; on both paper sweeps no state drifts that far.
    evolve, drifts = engine_module.evolve, []

    def watched(rho0, propagator, tol):
        out = (propagator @ rho0.reshape(-1, order="F")).reshape(rho0.shape, order="F")
        drifts.append(abs(out.trace().real - 1.0))
        return evolve(rho0, propagator, tol)

    monkeypatch.setattr(engine_module, "evolve", watched)
    for ket in ("(|10> - |01>)/sqrt(2)", "(|11> + |00>)/sqrt(2)"):
        run_sweep(SweepConfig(ket, 31.25, 4.0, 2000))
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


def test_detect_transitions_returns_where_float_spacing_exceeds_the_tolerance():
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
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
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


def test_run_sweep_rejects_other_worker_counts():
    config = SweepConfig(initial_state="|00>", omega_ratio=0.0, samples=10)
    for workers in (0, 2, 3):
        with pytest.raises(ValueError, match="workers must be 1"):
            run_sweep(config, workers=workers)


def test_run_qutrit_scan_reports(tmp_path):
    path = tmp_path / "report.txt"
    ket = "(|1,1> + |-1,-1>)/sqrt(2)"
    report = run_qutrit_scan(ket)
    write_criterion_report(report, ket, str(path))
    assert not report.sufficient_entangled  # the only coherence is destroyed
    text = path.read_text()
    assert "sufficient_entangled = false" in text

    report = run_qutrit_scan("(|1,0> + |0,1>)/sqrt(2)")
    assert report.sufficient_entangled
    assert abs(report.min_pt_eigenvalue + 0.5) <= 1e-12

    assert not run_qutrit_scan("|0,0>").sufficient_entangled


_REPORT_HEAD = "mode = qutrit-criterion\ninitial_state = {}\n"


@pytest.mark.parametrize(
    "ket, body",
    [
        (
            "(|1,0> + |0,1>)/sqrt(2)",
            "xi = 0\nzeta = -0.25\neta = 0\nxi_population_squares = 0\n"
            "cubic_has_negative_root = true\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = true\n"
            "min_pt_eigenvalue = -0.5\n",
        ),
        (
            "(|1,1> + |-1,-1>)/sqrt(2)",
            "xi = 1\nzeta = 0.25\neta = 0\nxi_population_squares = 0.5\n"
            "cubic_has_negative_root = false\npt_block_plus_negative = false\n"
            "pt_block_minus_negative = false\nsufficient_entangled = false\n"
            "min_pt_eigenvalue = 0\n",
        ),
        (
            "0.3|1,-1> - 0.7|0,0> + 0.2|-1,1>",
            "xi = 0.790322580645\nzeta = -0.00936524453694\neta = 0.00740156423081\n"
            "xi_population_squares = 0.624609781478\ncubic_has_negative_root = true\n"
            "pt_block_plus_negative = true\npt_block_minus_negative = true\n"
            "sufficient_entangled = true\nmin_pt_eigenvalue = -0.338709677419\n",
        ),
    ],
    ids=["coherent-pair", "dephased-pair", "three-term"],
)
def test_qutrit_report_bytes(tmp_path, ket, body):
    path = tmp_path / "report.txt"
    write_criterion_report(run_qutrit_scan(ket), ket, str(path))
    assert path.read_bytes() == (_REPORT_HEAD.format(ket) + body).encode("utf-8")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(initial_state="|00>", samples=1)
    with pytest.raises(ValueError):
        SweepConfig(initial_state="|00>", gamma_t_max=0.0)


@pytest.mark.parametrize("field", ["omega_ratio", "gamma_t_max"])
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), np.float32("inf"), np.float16("inf")],
    ids=["nan", "inf", "-inf", "float32-inf", "float16-inf"],
)
def test_sweep_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be finite"):
        SweepConfig(initial_state="|00>", **{field: value})


@pytest.mark.parametrize("dtype", [np.float32, np.float16], ids=lambda dtype: dtype.__name__)
def test_a_narrow_float_config_sweeps_as_its_float64_value(dtype):
    ket = "(|10> - |01>)/sqrt(2)"
    narrow = run_sweep(SweepConfig(ket, omega_ratio=dtype(31.25), gamma_t_max=dtype(2.1), samples=50))
    wide = run_sweep(SweepConfig(ket, omega_ratio=31.25, gamma_t_max=float(dtype(2.1)), samples=50))
    for name in ("gamma_t", "concurrence", "mutual_information"):
        assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes(), name
    assert narrow.transitions and (narrow.transitions, narrow.maxima) == (wide.transitions, wide.maxima)


@pytest.mark.parametrize("samples", [3.0, 2e3, "5"])
def test_sweep_config_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match=rf"samples must be an integer, got {samples!r}"):
        SweepConfig(initial_state="|00>", samples=samples)


_EACH_PARAMETER_CHECK = pytest.mark.parametrize(
    "name, call",
    [
        ("omega_ratio", lambda v: SweepConfig("|10>", omega_ratio=v)),
        ("gamma_t_max", lambda v: SweepConfig("|10>", gamma_t_max=v)),
        ("omega1", lambda v: stationary_xforms(parse_ket_expression("|10>", (2, 2)), v, [0.5])),
        ("time", lambda v: stationary_xforms(parse_ket_expression("|10>", (2, 2)), 1.0, [v])),
    ],
    ids=["omega_ratio", "gamma_t_max", "omega1", "time"],
)


def _refusal(name, shown, dtype):
    """The message refusing a value: a scalar check shows it, and a list of times holding it is refused by its dtype."""
    if name == "time":
        return rf"^times must be real, got dtype {re.escape(dtype)}$"
    return rf"\b{name} must be finite and \w+, got {re.escape(shown)}$"


# Each check names the parameter and rejects any value that is not a real number.
@pytest.mark.parametrize(
    "value, dtype",
    [
        ("5", "<U1"),
        (1j, "complex128"),
        (None, "object"),
        (True, "bool"),
        (np.True_, "bool"),
        (Fraction(1, 2), "object"),
    ],
    ids=["5", "1j", "None", "True", "np.True_", "Fraction"],
)
@_EACH_PARAMETER_CHECK
def test_non_real_parameters_are_value_errors(name, call, value, dtype):
    with pytest.raises(ValueError, match=_refusal(name, repr(value), dtype)):
        call(value)


# math.isfinite would convert these to float and raise OverflowError, and repr
# raises ValueError on an int of more than sys.get_int_max_str_digits() digits.
_TOO_LONG = "<int too long to print>"


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**400, repr(10**400)),
        (-(10**400), repr(-(10**400))),
        (2 * int(sys.float_info.max), repr(2 * int(sys.float_info.max))),
        (10**5000, _TOO_LONG),
        (-(10**5000), _TOO_LONG),
    ],
    ids=["1e400", "-1e400", "2max", "1e5000", "-1e5000"],
)
@_EACH_PARAMETER_CHECK
def test_integers_too_large_for_a_float_are_value_errors(name, call, value, shown):
    with pytest.raises(ValueError, match=_refusal(name, shown, "object")):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SweepConfig("|10>", samples=-(10**5000)), "samples must be at least 2"),
        (
            lambda: stationary_xforms(parse_ket_expression("|10>", (2, 2)), 1.0, 10**5000),
            "times must be a one-dimensional sequence",
        ),
        (lambda: run_sweep(SweepConfig("|10>", samples=3), workers=10**5000), "run_sweep is serial; workers must be 1"),
    ],
    ids=["samples", "times", "workers"],
)
def test_an_int_too_long_to_print_is_named_by_its_parameter(call, message):
    with pytest.raises(ValueError, match=rf"^{message}, got {re.escape(_TOO_LONG)}$"):
        call()


def test_a_repr_of_up_to_500_characters_is_shown_in_full():
    assert errors._shown("x" * 498) == repr("x" * 498)
    assert errors._shown("x" * 499) == "<str too long to print>"


@pytest.mark.parametrize(
    "times, shown",
    [([[0.0] * 2000] * 2, "<list too long to print>"), ([np.zeros((16, 16))], "<list too long to print>")],
    ids=["2x2000-list", "list-of-16x16-array"],
)
def test_a_value_with_a_long_repr_is_shown_by_its_type(times, shown):
    # Each repr runs to over a thousand characters; the message prints a placeholder instead.
    rho0 = parse_ket_expression("|10>", (2, 2))
    with pytest.raises(ValueError, match=rf"^times must be a one-dimensional sequence, got {re.escape(shown)}$"):
        stationary_xforms(rho0, 1.0, times)


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("", None),  # header only
        ("0,1,2\n0.5,1\n", 3),  # short row
        ("0,1,2\n0.5,1,2,3\n", 3),  # long row
        ("0,1,x\n", 2),  # non-numeric cell
        ("0,1,2\n# transition gamma_T\n", 3),  # comment without a value
        ("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5\n", 4),  # maximum with one value
        # maximum with four values
        ("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 1 mutual_information = 2 x = 3\n", 4),
        ("0,1,2\nnan,1,2\n", 3),  # grid value that is not a number
        ("0,1,2\ninf,1,2\n", 3),  # grid value that is not finite
        ("0,1,2\n0.5,-inf,2\n", 3),  # non-finite concurrence
        ("0,1,2\n0.5,1,nan\n", 3),  # non-finite mutual information
        ("0,1,2\n# transition gamma_T = inf\n", 3),  # non-finite transition
        # a maximum outside every entangled window
        ("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 0 mutual_information = 2\n", None),
    ],
)
def test_read_csv_rejects_malformed_files(tmp_path, body, lineno):
    path = tmp_path / "bad.csv"
    path.write_text("gamma_T,concurrence,mutual_information\n" + body)
    where = f"{path}:{lineno}:" if lineno else f"{path}:"
    with pytest.raises(ValueError) as info:
        read_csv(str(path))
    assert str(info.value).startswith(where)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1,2\n# transition gamma_T =\n", "3: expected 1 values, got 0"),
        ("0,1,2\n0.5,1,2\n# maximum gamma_T = 0.5 concurrence = 1 mutual_information =\n",
         "4: expected 3 values, got 2"),
    ],
    ids=["transition", "maximum"],
)
def test_read_csv_names_an_equals_sign_without_a_value(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("gamma_T,concurrence,mutual_information\n" + body)
    with pytest.raises(ValueError) as info:
        read_csv(str(path))
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "comment, message",
    [
        ("# transition foo = 0.3", "expected gamma_T = <value>"),
        ("# transition gamma_T 0.3 =", "expected gamma_T = <value>"),
        (
            "# maximum concurrence = 0.25 gamma_T = 0.5 mutual_information = 0.75",
            "expected gamma_T = <value> concurrence = <value> mutual_information = <value>",
        ),
    ],
    ids=["other-name", "misplaced-equals", "out-of-order"],
)
def test_read_csv_reads_feature_values_by_the_names_write_csv_writes(tmp_path, comment, message):
    path = tmp_path / "bad.csv"
    path.write_text("gamma_T,concurrence,mutual_information\n0,1,2\n0.5,1,2\n" + comment + "\n")
    with pytest.raises(ValueError) as info:
        read_csv(str(path))
    assert str(info.value) == f"{path}:4: {message}"


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


def test_sweep_result_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="row columns must have equal length"):
        SweepResult(np.arange(3.0), np.zeros(3), np.zeros(2))


def test_sweep_result_rejects_a_grid_that_does_not_increase():
    for gamma_t in ([0.0, 0.0], [1.0, 0.5], [0.0, np.nan]):
        with pytest.raises(ValueError, match="^gamma_t values must be strictly increasing$"):
            SweepResult(gamma_t, [0.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize(
    "columns, name, shape",
    [
        (([[0.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]]), "gamma_t", (1, 2)),
        (([0.0, 1.0], [0.0, 0.0], [[0.0], [0.0]]), "mutual_information", (2, 1)),
        ((0.0, 0.0, 0.0), "gamma_t", ()),
    ],
    ids=["row", "column", "scalar"],
)
def test_sweep_result_rejects_columns_that_are_not_one_dimensional(columns, name, shape):
    message = f"{name} must be one-dimensional, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepResult(*columns)


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


def test_sweep_result_holds_at_least_one_row(tmp_path):
    # write_csv would write a header alone, which read_csv refuses.
    with pytest.raises(ValueError, match="^no data rows$"):
        SweepResult([], [], [])
    path = tmp_path / "empty.csv"
    path.write_text(sweep_module.CSV_HEADER + "\n# transition gamma_T = 0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
        read_csv(str(path))


_TRIPLE = r"^every maximum must be a \(gamma_T, concurrence, mutual_information\) triple$"


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("gamma_t", [0.0, 1.0 + 0.0j], r"^gamma_t must be real, got dtype complex128$"),
        ("concurrence", ["0", "0.5"], r"^concurrence must be real, got dtype <U3$"),
        ("mutual_information", [True, False], r"^mutual_information must be real, got dtype bool$"),
        ("gamma_t", [Fraction(0), Fraction(1)], r"^gamma_t must be real, got dtype object$"),
        ("transitions", [0.25j], r"^transitions must be real, got dtype complex128$"),
        ("transitions", 0.25, r"^transitions must be one-dimensional, got shape \(\)$"),
        ("maxima", [(1.0, 0.5j, 1.5)], r"^maxima must be real, got dtype complex128$"),
        ("maxima", [1.0], _TRIPLE),
        ("maxima", [(1.0, 0.5)], _TRIPLE),
        ("maxima", (1.0, 0.5, 1.5), _TRIPLE),
        ("maxima", [(1.0, 0.5, 1.5, 2.0)], _TRIPLE),
        ("maxima", [(1.0, 0.5, 1.5), (1.0, 0.5)], r"^maxima must be an array of real numbers$"),
    ],
    ids=["complex-row", "str-row", "bool-row", "fraction-row", "complex-transition", "scalar-transitions",
         "complex-maximum", "float-maximum", "pair-maximum", "bare-triple", "quadruple", "ragged-maxima"],
)
def test_sweep_result_names_a_field_that_write_csv_could_not_write(name, value, message):
    with pytest.raises(ValueError, match=message):
        SweepResult(**dict(_FINITE_RESULT, **{name: value}))


def test_sweep_result_takes_integer_rows_and_no_features(tmp_path):
    result = SweepResult([0, 1], [0, 1], [0, 2])
    assert result.gamma_t.dtype == float and (result.transitions, result.maxima) == ([], [])
    path = tmp_path / "ints.csv"
    write_csv(result, str(path))
    assert read_csv(str(path)).gamma_t.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("text", ["", "0,1,2\n", "\ngamma_T,concurrence\n0,1,2\n"])
def test_read_csv_requires_the_header_first(tmp_path, text):
    path = tmp_path / "headless.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{path}: missing header"):
        read_csv(str(path))


def test_qutrit_report_keeps_a_multiline_ket_on_one_line(tmp_path):
    path = tmp_path / "report.txt"
    assert main(["qutrit", "--initial-state", "|0,0> +\n|1,1>", "--output", str(path)]) == 0
    lines = path.read_text().split("\n")
    assert len(lines) == 12 and lines[-1] == ""  # 11 lines, each ending in a newline
    assert lines[1] == "initial_state = |0,0> + |1,1>"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_and_compare(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["sweep", "--omega-ratio", "31.25", "--gamma-t-max", "0.3", "--samples", "100"]
    assert main(base + ["--initial-state", "(|10> - |01>)/sqrt(2)", "--output", str(out_a)]) == 0
    assert main(base + ["--initial-state", "(|11> + |00>)/sqrt(2)", "--output", str(out_b)]) == 0
    assert main(["compare", "--a", str(out_a), "--b", str(out_b)]) == 0
    captured = capsys.readouterr().out
    assert "simultaneously entangled: 0" in captured


def test_cli_qutrit_report(tmp_path):
    path = tmp_path / "crit.txt"
    code = main(["qutrit", "--initial-state", "(|1,0> + |0,1>)/sqrt(2)", "--output", str(path)])
    assert code == 0
    assert "sufficient_entangled = true" in path.read_text()


def test_cli_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "sweep.cfg"
    out = tmp_path / "from_config.csv"
    config_path.write_text(
        "# fig-style sweep\n"
        "initial_state = (|10> - |01>)/sqrt(2)\n"
        "omega_ratio = 31.25\n"
        "gamma_t_max = 0.25\n"
        "samples = 200\n"
        f"output = {out}\n"
        "gamma_t_max = 0.5  # a repeated key takes its last line\n"
    )
    assert main(["sweep", "--config", str(config_path), "--samples", "80"]) == 0
    gamma_t = read_csv(str(out)).gamma_t
    assert (len(gamma_t), gamma_t[-1]) == (80, 0.5)


def test_cli_config_keeps_a_hash_inside_a_value(tmp_path):
    # a "#" starts a comment only at the start of a line or after whitespace
    out = tmp_path / "res#1.csv"
    config_path = tmp_path / "hash.cfg"
    config_path.write_text(f"initial_state = |10>  # comment\nsamples = 3\noutput = {out}\n")
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["hash.cfg", "res#1.csv"]


def test_cli_reads_config_and_csv_files_that_start_with_a_byte_order_mark(tmp_path, capsys):
    out = tmp_path / "bom.csv"
    config_path = tmp_path / "bom.cfg"
    config_path.write_text(f"initial_state = |10>\nsamples = 3\noutput = {out}\n", encoding="utf-8-sig")
    assert main(["sweep", "--config", str(config_path)]) == 0
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    assert main(["compare", "--a", str(out), "--b", str(marked)]) == 0
    assert capsys.readouterr().err == ""


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


def test_cli_help_exits_0_and_shows_the_minus_sign_form(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option, so no flag is wrapped
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{sweep,qutrit,compare}" in out
    assert f"compare entangled windows (C > {sweep_module.ENTANGLEMENT_THRESHOLD:g})" in out
    for command in ("sweep", "qutrit"):
        assert main([command, "--help"]) == 0
        assert '--initial-state="-|10>"' in capsys.readouterr().out


@pytest.fixture(scope="module")
def cli_fault_inputs(tmp_path_factory):
    """A directory of the files the CLI-fault rows read: two grids that differ, malformed CSVs, Latin-1 inputs."""
    inputs = tmp_path_factory.mktemp("cli_fault_inputs")
    for name, samples in (("good.csv", 10), ("longer.csv", 12)):
        config = SweepConfig("|00>", omega_ratio=0.0, gamma_t_max=1.0, samples=samples)
        write_csv(run_sweep(config), str(inputs / name))
    header = sweep_module.CSV_HEADER
    (inputs / "header_only.csv").write_text(f"{header}\n")
    (inputs / "short_row.csv").write_text(f"{header}\n0,1,2\n0.5,1\n")
    (inputs / "nan_row.csv").write_text(f"{header}\n0,nan,0.1\n")
    (inputs / "latin1.csv").write_bytes((inputs / "good.csv").read_bytes() + "# r\xe9sum\xe9\n".encode("latin-1"))
    (inputs / "latin1.cfg").write_bytes("# r\xe9sum\xe9\ninitial_state = |00>\n".encode("latin-1"))
    return inputs


_TYPED = "initial_state = |00>\n# typed values follow\n"
# Each CLI fault: its argv, split as a shell splits it; its config file's text, or None; its exit
# code; and its one stderr line after "dephasim: ". Each text is formatted with the row's directory
# {tmp}, which holds cli_fault_inputs' files, its config file {config} and its output path {out}.
# A line that ends in "..." is checked up to there: the rest is text that numpy or Python writes.
_CLI_FAULTS = {
    "unknown-flag": ("sweep --bogus", None, 1, "unrecognized arguments: '--bogus'"),
    "removed-workers": ("sweep --initial-state |00> --output {out} --workers 2", None, 1,
                        "unrecognized arguments: '--workers 2'"),
    "removed-threshold": ("compare --a {out} --b {out} --threshold 0.1", None, 1,
                          "unrecognized arguments: '--threshold 0.1'"),
    "no-initial-state": ("sweep --output {out}", None, 1,
                         "an initial state is required (flag --initial-state or config file)"),
    "config-no-initial-state": ("sweep --config {config}", "output = {out}\n", 1,
                                "an initial state is required (flag --initial-state or config file)"),
    "config-no-output": ("sweep --config {config}", "initial_state = |00>\n", 1,
                         "an output path is required (flag --output or config file)"),
    "config-line-without-equals": ("sweep --config {config} --output {out}", "initial_state = |00>\nsamples 5\n", 1,
                                   "{config}:2: expected 'key = value', got 'samples 5'"),
    "unclosed-ket": ("sweep --initial-state (|10> --output {out} --samples 10", None, 1, "unclosed '(' (at position 0)"),
    "sweep-cancelled-ket": ("sweep --initial-state '|10> - |10>' --output {out}", None, 1,
                            "all amplitudes cancel (at position 0)"),
    "qutrit-cancelled-ket": ("qutrit --initial-state '|0,0> - |0,0>' --output {out}", None, 1,
                             "all amplitudes cancel (at position 0)"),
    **{
        f"flag-{flag}-{value}": (f"sweep --initial-state |00> --{flag}={value} --output {{out}}", None, 1,
                                 f"{flag.replace('-', '_')} must be finite and {sign}, got {value}")
        for flag, sign in (("omega-ratio", "nonnegative"), ("gamma-t-max", "positive"))
        for value in ("nan", "inf", "-inf")
    },
    "flag-samples-1": ("sweep --initial-state |00> --samples=1 --output {out}", None, 1,
                       "samples must be at least 2, got 1"),
    "flag-gamma-t-max--1": ("sweep --initial-state |00> --gamma-t-max=-1 --output {out}", None, 1,
                            "gamma_t_max must be finite and positive, got -1.0"),
    # 10**18 samples exceed the address space, so the grid fails at once
    # without taking memory; never try a count that could be allocated.
    "samples-too-many-to-allocate": ("sweep --initial-state |10> --samples 1000000000000000000 --output {out}", None,
                                     1, "Unable to allocate ..."),
    "overflowing-drive": ("sweep --initial-state |10> --omega-ratio 1e300 --samples 3 --gamma-t-max 1 --output {out}",
                          None, 2, "matrix is not Hermitian (magnitude nan)"),
    "unwritable-output": ("sweep --initial-state |00> --omega-ratio 0 --samples 10 --output {tmp}/missing/x.csv", None,
                          3, "[Errno 2] No such file or directory: ..."),
    "qutrit-config-mode-key": ("qutrit --config {config} --output {out}",
                               "initial_state = |0,0>\nmode = qutrit-criterion\n", 1,
                               "{config}:2: unknown config key 'mode'"),
    # qutrit has no flag for the sweep-only keys, so its config file may not set them
    **{
        f"qutrit-config-{key}": ("qutrit --config {config} --output {out}", f"initial_state = |0,0>\n{key} = 2\n", 1,
                                 f"{{config}}:2: unknown config key '{key}'")
        for key in ("omega_ratio", "gamma_t_max", "samples")
    },
    # neither a later line with the same key nor a flag excuses an earlier line
    "repeated-out-of-range": ("sweep --config {config} --initial-state |10> --output {out}",
                              "samples = 1\nsamples = 20\n", 1,
                              "{config}:1: samples: samples must be at least 2, got 1"),
    "repeated-wrong-type": ("sweep --config {config} --initial-state |10> --output {out}",
                            "samples = x\nsamples = 20\n", 1,
                            "{config}:1: samples: invalid literal for int() with base 10: 'x'"),
    "repeated-sweep-ket": ("sweep --config {config} --initial-state |10> --output {out}",
                           "initial_state = |1x>\ninitial_state = |10>\n", 1,
                           "{config}:1: initial_state: ket label '1x' is outside the 2x2 level alphabet (at position 0)"),
    "repeated-qutrit-ket": ("qutrit --config {config} --initial-state |1,0> --output {out}",
                            "initial_state = |1,2>\ninitial_state = |1,0>\n", 1,
                            "{config}:1: initial_state: ket label '1,2' is outside the 3x3 level alphabet (at position 0)"),
    "config-samples-x": ("sweep --config {config} --output {out}", _TYPED + "samples = x\n", 1,
                         "{config}:3: samples: invalid literal for int() with base 10: 'x'"),
    "config-samples-1.5": ("sweep --config {config} --output {out}", _TYPED + "samples = 1.5\n", 1,
                           "{config}:3: samples: invalid literal for int() with base 10: '1.5'"),
    "config-omega-ratio-fast": ("sweep --config {config} --output {out}", _TYPED + "omega_ratio = fast\n", 1,
                                "{config}:3: omega_ratio: could not convert string to float: 'fast'"),
    "config-samples-x-under-flag": ("sweep --config {config} --output {out} --samples 5", _TYPED + "samples = x\n", 1,
                                    "{config}:3: samples: invalid literal for int() with base 10: 'x'"),
    "config-samples-1": ("sweep --config {config} --output {out}", "initial_state = |00>\nsamples = 1\n", 1,
                         "{config}:2: samples: samples must be at least 2, got 1"),
    "config-gamma-t-max--1": ("sweep --config {config} --output {out}", "initial_state = |00>\ngamma_t_max = -1\n", 1,
                              "{config}:2: gamma_t_max: gamma_t_max must be finite and positive, got -1.0"),
    "config-omega-ratio-nan": ("sweep --config {config} --output {out}", "initial_state = |00>\nomega_ratio = nan\n", 1,
                               "{config}:2: omega_ratio: omega_ratio must be finite and nonnegative, got nan"),
    "config-samples-1-under-flag": ("sweep --config {config} --output {out} --samples 5",
                                    "initial_state = |00>\nsamples = 1\n", 1,
                                    "{config}:2: samples: samples must be at least 2, got 1"),
    "config-sweep-ket": ("sweep --config {config} --output {out}",
                         '# the sweep ket\ninitial_state = "(|10> - |01>)/sqrt(2)"\n', 1,
                         "{config}:2: initial_state: unexpected character '\"' (at position 0)"),
    "config-sweep-ket-under-flag": ("sweep --config {config} --output {out} --initial-state |10>",
                                    '# the sweep ket\ninitial_state = "(|10> - |01>)/sqrt(2)"\n', 1,
                                    "{config}:2: initial_state: unexpected character '\"' (at position 0)"),
    "config-qutrit-ket": ("qutrit --config {config} --output {out}", "# the qutrit ket\ninitial_state = |1,2>\n", 1,
                          "{config}:2: initial_state: ket label '1,2' is outside the 3x3 level alphabet (at position 0)"),
    "config-qutrit-ket-under-flag": ("qutrit --config {config} --output {out} --initial-state |1,0>",
                                     "# the qutrit ket\ninitial_state = |1,2>\n", 1,
                                     "{config}:2: initial_state: ket label '1,2' is outside the 3x3 level alphabet "
                                     "(at position 0)"),
    "config-latin1": ("sweep --config {tmp}/latin1.cfg --output {out}", None, 1,
                      "{tmp}/latin1.cfg: 'utf-8' codec can't decode ..."),
    "compare-grid-mismatch": ("compare --a {tmp}/good.csv --b {tmp}/longer.csv", None, 1,
                              "sweeps do not share the same gamma_T grid"),
    "compare-header-only": ("compare --a {tmp}/good.csv --b {tmp}/header_only.csv", None, 1,
                            "{tmp}/header_only.csv: no data rows"),
    "compare-short-row": ("compare --a {tmp}/good.csv --b {tmp}/short_row.csv", None, 1,
                          "{tmp}/short_row.csv:3: expected 3 cells, got 2"),
    "compare-nan-row": ("compare --a {tmp}/good.csv --b {tmp}/nan_row.csv", None, 1,
                        "{tmp}/nan_row.csv:2: non-finite value 'nan'"),
    "compare-latin1": ("compare --a {tmp}/good.csv --b {tmp}/latin1.csv", None, 1,
                       "{tmp}/latin1.csv: 'utf-8' codec can't decode ..."),
}


@pytest.mark.parametrize("argv, config, code, text", _CLI_FAULTS.values(), ids=_CLI_FAULTS)
def test_a_cli_fault_exits_with_its_code_and_one_line_and_writes_nothing(
    tmp_path, capsys, cli_fault_inputs, argv, config, code, text
):
    shutil.copytree(cli_fault_inputs, tmp_path, dirs_exist_ok=True)
    names = dict(tmp=tmp_path, config=tmp_path / "c.cfg", out=tmp_path / "out")
    if config is not None:
        names["config"].write_text(config.format(**names))
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert main([arg.format(**names) for arg in shlex.split(argv)]) == code
    captured = capsys.readouterr()
    line = f"dephasim: {text.format(**names)}\n"
    if text.endswith("..."):
        assert captured.err.startswith(line[:-4]) and captured.err.count("\n") == 1 and captured.err.endswith("\n")
    else:
        assert captured.err == line
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


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


@pytest.mark.parametrize("command, ket", [("sweep", "|10>"), ("qutrit", "|1,0>")])
def test_cli_deeply_nested_ket_exits_1_without_a_traceback(tmp_path, command, ket):
    nested = "(" * 400 + ket + ")" * 400
    proc = subprocess.run(
        [sys.executable, "-m", "dephasim.cli", command, f"--initial-state={nested}",
         "--output", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "dephasim: parentheses nested more than 200 deep (at position 200)\n"


# Each input puts 5000 characters of the user's text where its message shows it.
@pytest.mark.parametrize(
    "kind, text, fresh",
    [
        ("csv", "0,1," + "x" * 5000, False),
        ("csv", "0,1," + "1" * 5000, False),  # reads as inf
        ("config", "samples = " + "x" * 5000, False),
        ("config", "omega_ratio = " + "x" * 5000, False),
        ("config", "x" * 5000, False),
        ("config", "k" * 5000 + " = 1", False),
        ("ket", "|" + ",".join("1" * 2500) + ">", False),
        ("ket", "|" + "1" * 5000 + ">", False),
        ("ket", "|" + "2" * 5000 + ",1>", False),
        ("ket", "a" * 5000, False),
        ("ket", "1/|" + "1" * 5000 + ">", False),
        ("ket", "1/|" + "1" * 5000 + ">", True),
    ],
    ids=["csv-cell", "csv-non-finite", "config-int", "config-float", "config-no-equals", "config-key",
         "ket-subsystems", "ket-levels", "ket-alphabet", "ket-word", "ket-found", "ket-found-fresh"],
)
def test_a_long_input_is_shown_on_one_short_line(tmp_path, capsys, kind, text, fresh):
    path, out = tmp_path / "input", str(tmp_path / "out")
    path.write_text(f"{sweep_module.CSV_HEADER}\n{text}\n" if kind == "csv" else text)
    argv = {
        "csv": ["compare", "--a", str(path), "--b", str(path)],
        "config": ["sweep", "--config", str(path), "--initial-state", "|10>", "--output", out],
        "ket": ["sweep", f"--initial-state={text}", "--output", out],
    }[kind]
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "dephasim.cli", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert err.startswith("dephasim: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "<str too long to print>" in err and len(err) <= 600, err[:600]


# argparse's own errors: a value of each typed flag, a stray argument, an unknown command, an
# abbreviation that could match two flags (also with spaces in its value), and a value given to --help.
@pytest.mark.parametrize(
    "argv, names",
    [
        (["sweep", "--omega-ratio=" + "x" * 5000], "argument --omega-ratio: "),
        (["sweep", "--gamma-t-max=" + "x" * 5000], "argument --gamma-t-max: "),
        (["sweep", "--samples=" + "x" * 5000], "argument --samples: "),
        (["sweep", "x" * 5000], "unrecognized arguments: "),
        (["x" * 5000], "invalid choice: "),
        (["sweep", "--o=" + "x" * 5000], "ambiguous option: "),
        (["sweep", "--help=" + "x" * 5000], "argument -h/--help: ignored explicit argument "),
        (["sweep", "--o=" + "x " * 2500], "ambiguous option: "),
    ],
    ids=["omega-ratio", "gamma-t-max", "samples", "stray", "command", "ambiguous", "help", "ambiguous-spaces"],
)
def test_a_long_argument_is_shown_on_one_short_line(tmp_path, capsys, argv, names):
    assert main([*argv, "--initial-state", "|10>", "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dephasim: ") and err.count("\n") == 1 and err.endswith("\n")
    assert names in err and "<str too long to print>" in err and len(err) < 600, err[:600]


@pytest.mark.parametrize(
    "run", [lambda: run_sweep(SweepConfig(5)), lambda: run_qutrit_scan(None)], ids=["sweep", "qutrit"]
)
def test_a_ket_that_is_not_a_str_is_a_usage_error(run):
    with pytest.raises(errors.ParseError, match="ket expression must be a str"):
        run()


def test_sweep_overflowing_mid_block_fails_as_point_by_point(tmp_path, capsys):
    # Point 1 is the first to overflow, inside a block of 64 whose later
    # propagators overflow too. The sweep stops with point 1's own error and,
    # as the suite fails on RuntimeWarnings, with no warning.
    rho0 = parse_ket_expression("|10>", (2, 2))
    with pytest.raises(errors.StateValidationError, match="not Hermitian") as point_by_point:
        oracles.per_point_xforms(rho0, 1e17, np.linspace(0.0, 1e4, 200))
    argv = ["sweep", "--initial-state", "|10>", "--omega-ratio", "1e17", "--gamma-t-max", "1e4"]
    argv += ["--samples", "200", "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"dephasim: {point_by_point.value}\n"


def test_cli_grid_too_fine_for_floats_is_refused_by_name_before_any_propagation(tmp_path, capsys, monkeypatch):
    # np.linspace(0, 1e-322, 100) repeats subnormal values, so the grid does
    # not increase; the sweep names both inputs and propagates no point.
    monkeypatch.setattr(sweep_module, "stationary_xforms", None)
    out = tmp_path / "t.csv"
    argv = ["sweep", "--initial-state", "|10>", "--gamma-t-max", "1e-322", "--samples", "100", "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "dephasim: gamma_t_max 1e-322 is too small for 100 distinct samples\n"
    assert not out.exists()


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
