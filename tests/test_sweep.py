from dataclasses import replace

import numpy as np
import pytest

from dephasim import (
    GridMismatchError,
    SweepConfig,
    SweepResult,
    compare_windows,
    detect_local_maxima,
    detect_transitions,
    read_csv,
    run_qutrit_scan,
    run_sweep,
    write_csv,
)
from dephasim.cli import main


def synthetic_result(profile, gamma_t_max=1.0, samples=201, mutual=None):
    grid = np.linspace(0.0, gamma_t_max, samples)
    c = np.array([profile(g) for g in grid])
    mi = np.array([mutual(g) for g in grid]) if mutual else np.maximum(c, 0.0) + 0.1
    return SweepResult(grid, c, mi)


def test_detect_transitions_constant_curve_has_none():
    result = synthetic_result(lambda g: 1.0)
    assert detect_transitions(result, lambda g: 1.0) == []


def test_detect_transitions_synthetic_sine():
    profile = lambda g: max(0.0, np.sin(10.0 * g))
    result = synthetic_result(profile)
    transitions = detect_transitions(result, profile)
    expected = [0.0, np.pi / 10.0, 2 * np.pi / 10.0, 3 * np.pi / 10.0]
    assert len(transitions) == len(expected)
    for got, want in zip(transitions, expected):
        assert abs(got - want) <= 1e-6


def test_detect_local_maxima_monotone_profile_has_none():
    result = synthetic_result(lambda g: g)
    assert detect_local_maxima(result) == []


def test_detect_local_maxima_single_bump():
    result = synthetic_result(lambda g: np.exp(-((g - 0.5) ** 2) / 0.01))
    maxima = detect_local_maxima(result)
    assert len(maxima) == 1
    gamma_t, c_value, mi_value = maxima[0]
    assert abs(gamma_t - 0.5) <= 0.01
    assert c_value > 0 and mi_value > 0


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
    with pytest.raises(GridMismatchError):
        compare_windows(a, b)


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
    from dephasim import ModelParams, extract_xform, stationary_state, pure_density
    from dephasim import concurrence_xform, parse_ket_expression

    config = SweepConfig(
        initial_state="(|10> - |01>)/sqrt(2)", omega_ratio=31.25, gamma_t_max=0.3, samples=151
    )
    result = run_sweep(config)
    rho0 = pure_density(parse_ket_expression(config.initial_state, (2, 2)))
    for transition in result.transitions:
        params = ModelParams(omega1=config.omega_ratio, T=transition)
        c_value = concurrence_xform(extract_xform(stationary_state(rho0, params)))
        assert abs(c_value) <= 1e-6


def test_detect_local_maxima_stable_under_grid_refinement():
    profile = lambda g: max(0.0, np.sin(10.0 * g)) * np.exp(-g)
    coarse = detect_local_maxima(synthetic_result(profile, gamma_t_max=1.5, samples=151))
    fine = detect_local_maxima(synthetic_result(profile, gamma_t_max=1.5, samples=1501))
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
    report = run_qutrit_scan("(|1,1> + |-1,-1>)/sqrt(2)", str(path))
    assert not report.sufficient_entangled  # the only coherence is destroyed
    text = path.read_text()
    assert "sufficient_entangled = false" in text

    report = run_qutrit_scan("(|1,0> + |0,1>)/sqrt(2)")
    assert report.sufficient_entangled
    assert abs(report.min_pt_eigenvalue + 0.5) <= 1e-12

    assert not run_qutrit_scan("|0,0>").sufficient_entangled


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(initial_state="|00>", samples=1)
    with pytest.raises(ValueError):
        SweepConfig(initial_state="|00>", gamma_t_max=0.0)


@pytest.mark.parametrize("field", ["omega_ratio", "gamma_t_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_sweep_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be finite"):
        SweepConfig(initial_state="|00>", **{field: value})


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("", None),  # header only
        ("0,1,2\n0.5,1\n", 3),  # short row
        ("0,1,2\n0.5,1,2,3\n", 3),  # long row
        ("0,1,x\n", 2),  # non-numeric cell
        ("0,1,2\n# transition gamma_T\n", 3),  # comment without a value
        ("0,1,2\nnan,1,2\n", None),  # grid value that is not a number
    ],
)
def test_read_csv_rejects_malformed_files(tmp_path, body, lineno):
    path = tmp_path / "bad.csv"
    path.write_text("gamma_T,concurrence,mutual_information\n" + body)
    where = f"{path}:{lineno}:" if lineno else f"{path}:"
    with pytest.raises(ValueError) as info:
        read_csv(str(path))
    assert str(info.value).startswith(where)


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
        "gamma_t_max = 0.5\n"
        "samples = 200\n"
        f"output = {out}\n"
    )
    assert main(["sweep", "--config", str(config_path), "--samples", "80"]) == 0
    assert len(read_csv(str(out)).gamma_t) == 80


def test_cli_exit_codes(tmp_path):
    # usage error: unknown flag
    assert main(["sweep", "--bogus"]) == 1
    # usage error: missing initial state
    assert main(["sweep", "--output", str(tmp_path / "x.csv")]) == 1
    # parse error in the ket expression
    assert (
        main(
            ["sweep", "--initial-state", "(|10>", "--output", str(tmp_path / "x.csv"), "--samples", "10"]
        )
        == 1
    )
    # numerical failure: mismatching grids
    short = SweepConfig(initial_state="|00>", omega_ratio=0.0, gamma_t_max=1.0, samples=10)
    longer = SweepConfig(initial_state="|00>", omega_ratio=0.0, gamma_t_max=1.0, samples=12)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(short), str(a_path))
    write_csv(run_sweep(longer), str(b_path))
    assert main(["compare", "--a", str(a_path), "--b", str(b_path)]) == 2
    # i/o failure: unwritable output directory
    assert (
        main(
            [
                "sweep",
                "--initial-state",
                "|00>",
                "--omega-ratio",
                "0",
                "--samples",
                "10",
                "--output",
                str(tmp_path / "missing" / "x.csv"),
            ]
        )
        == 3
    )


def test_cli_rejects_removed_options(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--initial-state", "|00>", "--output", out, "--workers", "2"]) == 1
    assert main(["compare", "--a", out, "--b", out, "--threshold", "0.1"]) == 1
    assert capsys.readouterr().err.count("unrecognized arguments") == 2


def test_cli_overflowing_drive_is_a_numerical_error(tmp_path, capsys):
    argv = ["sweep", "--initial-state", "|10>", "--omega-ratio", "1e300", "--samples", "3"]
    argv += ["--gamma-t-max", "1", "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("dephasim: ")


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for flag in ("--omega-ratio", "--gamma-t-max"):
        for value in ("nan", "inf", "-inf"):
            argv = ["sweep", "--initial-state", "|00>", f"{flag}={value}", "--output", out]
            assert main(argv) == 1
            field = flag[2:].replace("-", "_")
            assert f"dephasim: {field} must be finite" in capsys.readouterr().err


def test_cli_compare_rejects_malformed_csv(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_csv(run_sweep(SweepConfig("|00>", omega_ratio=0.0, samples=10)), str(good))
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("gamma_T,concurrence,mutual_information\n")
    short_row = tmp_path / "short_row.csv"
    short_row.write_text("gamma_T,concurrence,mutual_information\n0,1,2\n0.5,1\n")
    for bad, where in ((header_only, f"{header_only}:"), (short_row, f"{short_row}:3:")):
        assert main(["compare", "--a", str(good), "--b", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"dephasim: {where}")


def test_cli_config_file_rejects_mode_key(tmp_path, capsys):
    config_path = tmp_path / "qutrit.cfg"
    config_path.write_text("initial_state = |0,0>\nmode = qutrit-criterion\n")
    argv = ["qutrit", "--config", str(config_path), "--output", str(tmp_path / "r.txt")]
    assert main(argv) == 1
    assert "unknown config key 'mode'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["omega_ratio", "gamma_t_max", "samples"])
def test_cli_qutrit_config_file_rejects_sweep_only_keys(tmp_path, capsys, key):
    # qutrit has no flag for the sweep-only keys, so its config file may not set them
    config_path = tmp_path / "qutrit.cfg"
    config_path.write_text(f"initial_state = |0,0>\n{key} = 2\n")
    argv = ["qutrit", "--config", str(config_path), "--output", str(tmp_path / "r.txt")]
    assert main(argv) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
