import builtins
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dephasim
from dephasim import errors
from dephasim.cli import main
from dephasim.sweep import CSV_HEADER

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI in a fresh interpreter exactly as `python -m dephasim.cli` does
# (or, with no arguments, only imports the package), then prints the exit code
# and whether scipy was loaded as the last line of stdout.
_PROBE = """
import runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("dephasim.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import dephasim
print(code, "scipy" in sys.modules)
"""


def _fresh(args, cwd):
    """Exit code, scipy-loaded flag and stdout of one cold dephasim process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    *output, last = proc.stdout.splitlines()
    code, loaded = last.split()
    return int(code), loaded == "True", "\n".join(output)


def test_every_public_name_resolves():
    assert [name for name in dephasim.__all__ if not hasattr(dephasim, name)] == []


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dephasim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(dephasim.__all__) == public
    assert len(dephasim.__all__) == 29
    # The general measures and the generator wrapper live only in tests/oracles.py;
    # the cubic coefficients are fields of CriterionReport.
    removed = [
        "Superoperator",
        "concurrence",
        "von_neumann_entropy",
        "mutual_information",
        "partial_trace",
        "qutrit_cubic_coefficients",
    ]
    for namespace in (dephasim, dephasim.measures, dephasim.linalg, dephasim.engine):
        assert [name for name in removed if hasattr(namespace, name)] == []
    # Not public, but defined where the benchmark's tracer and the tests look them up:
    # stationary_xforms is the one public step from pulse times to X-forms.
    internal = [(dephasim.engine, "collective_jz"), (dephasim.linalg, "matrix_exponential")]
    internal += [(dephasim.engine, name) for name in ("evolve", "propagators", "stationary_state", "extract_xform")]
    for module, name in internal:
        assert not hasattr(dephasim, name)
        assert callable(getattr(module, name))


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    assert (tmp_path / "report.txt").is_file()


def test_readme_exit_codes_name_exactly_the_error_classes():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    named = {name for name in re.findall(r"\b\w+Error\b", section) if not hasattr(builtins, name)}
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    assert named == defined


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("dephasim ")]
    assert [argv[1] for argv in commands] == ["sweep", "sweep", "compare", "qutrit"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        if "--output" in argv:
            assert (tmp_path / argv[argv.index("--output") + 1]).is_file()


def test_import_leaves_scipy_unloaded(tmp_path):
    assert _fresh([], tmp_path) == (0, False, "")


def test_cold_qutrit_leaves_scipy_unloaded(tmp_path):
    report = tmp_path / "report.txt"
    code, loaded, _ = _fresh(
        ["qutrit", "--initial-state", "(|1,0> + |0,1>)/sqrt(2)", "--output", str(report)],
        tmp_path,
    )
    assert (code, loaded) == (0, False)
    assert "sufficient_entangled = true" in report.read_text()


def test_cold_compare_leaves_scipy_unloaded(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(f"{CSV_HEADER}\n0,0.5,0.1\n0.1,0,0.2\n0.2,0.3,0.3\n")
    b.write_text(f"{CSV_HEADER}\n0,0,0.1\n0.1,0.4,0.2\n0.2,0.3,0.3\n")
    code, loaded, out = _fresh(["compare", "--a", str(a), "--b", str(b)], tmp_path)
    assert (code, loaded) == (0, False)
    assert "simultaneously entangled: 1" in out


def test_cold_sweep_with_malformed_ket_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "never.csv"
    code, loaded, _ = _fresh(
        ["sweep", "--initial-state", "(|10> - |01>", "--omega-ratio", "31.25",
         "--gamma-t-max", "1", "--samples", "3", "--output", str(out)],
        tmp_path,
    )
    assert (code, loaded) == (1, False)
    assert not out.exists()


@pytest.mark.parametrize("ket", ["(|10> - |01>)/sqrt(2)", "(|11> + |00>)/sqrt(2)"])
def test_cold_sweep_loads_scipy_and_matches_in_process_bytes(tmp_path, ket):
    args = ["sweep", "--initial-state", ket, "--omega-ratio", "31.25",
            "--gamma-t-max", "4", "--samples", "3", "--output"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    code, loaded, _ = _fresh(args + [str(cold)], tmp_path)
    assert (code, loaded) == (0, True)
    assert main(args + [str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()


def test_cold_overflowing_sweep_prints_one_error_line(tmp_path):
    # A fresh process uses Python's default warning filters, so any numpy
    # RuntimeWarning would reach stderr ahead of the typed error.
    proc = subprocess.run(
        [sys.executable, "-m", "dephasim.cli", "sweep", "--initial-state", "|10>",
         "--omega-ratio", "1e10", "--gamma-t-max", "1e10", "--samples", "3",
         "--output", str(tmp_path / "x.csv")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("dephasim: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
