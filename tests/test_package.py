import builtins
import errno
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
# and the names of the loaded scipy modules as the last line of stdout. The CLI
# ends its process with os._exit, so the probe prints from inside that call.
_PROBE = """
import os, runpy, sys
real_exit = os._exit
def probe_exit(code):
    print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), flush=True)
    real_exit(code)
os._exit = probe_exit
if len(sys.argv) > 1:
    runpy.run_module("dephasim.cli", run_name="__main__", alter_sys=True)
else:
    import dephasim
    os._exit(0)
"""


_KERNELS = "scipy.linalg._matfuncs_expm"


def _fresh(args, cwd):
    """Exit code, loaded scipy modules and stdout of one cold dephasim process."""
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
    code, *loaded = last.split()
    assert proc.returncode == int(code)
    return int(code), loaded, "\n".join(output)


def _cli_process(argv, cwd, **kwargs):
    """Run `python -m dephasim.cli argv` on this source tree with buffered stdout.

    PYTHONUNBUFFERED would make a write to a full device fail inside main,
    which already exits 3, instead of at the final flush. COLUMNS fixes the
    width argparse wraps --help to.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "dephasim.cli", *argv],
        cwd=cwd,
        env=env,
        text=True,
        timeout=120,
        **kwargs,
    )


def test_every_public_name_resolves():
    assert [name for name in dephasim.__all__ if not hasattr(dephasim, name)] == []


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dephasim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(dephasim.__all__) == public
    assert len(dephasim.__all__) == 25
    # The general measures and the generator wrapper live only in tests/oracles.py;
    # the cubic coefficients are fields of CriterionReport; the engine's private
    # _propagators(omega1, times) forms every propagator.
    removed = [
        "Superoperator",
        "concurrence",
        "von_neumann_entropy",
        "mutual_information",
        "partial_trace",
        "qutrit_cubic_coefficients",
        "propagators",
    ]
    for namespace in (dephasim, dephasim.measures, dephasim.linalg, dephasim.engine):
        assert [name for name in removed if hasattr(namespace, name)] == []
    # Not public, but defined where the benchmark's tracer and the tests look them up:
    # stationary_xforms is the one public step from a drive and pulse times to X-forms.
    # The exponential's own check is in tests/test_linalg.py.
    internal = [(dephasim.engine, "collective_jz")]
    internal += [
        (dephasim.engine, name)
        for name in ("build_liouvillian", "_propagators", "evolve", "stationary_state", "extract_xform")
    ]
    internal += [(dephasim.sweep, name) for name in ("detect_transitions", "detect_local_maxima")]
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
    assert _fresh([], tmp_path) == (0, [], "")


def test_cold_qutrit_leaves_scipy_unloaded(tmp_path):
    report = tmp_path / "report.txt"
    code, loaded, _ = _fresh(
        ["qutrit", "--initial-state", "(|1,0> + |0,1>)/sqrt(2)", "--output", str(report)],
        tmp_path,
    )
    assert (code, loaded) == (0, [])
    assert "sufficient_entangled = true" in report.read_text()


def test_cold_compare_leaves_scipy_unloaded(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(f"{CSV_HEADER}\n0,0.5,0.1\n0.1,0,0.2\n0.2,0.3,0.3\n")
    b.write_text(f"{CSV_HEADER}\n0,0,0.1\n0.1,0.4,0.2\n0.2,0.3,0.3\n")
    code, loaded, out = _fresh(["compare", "--a", str(a), "--b", str(b)], tmp_path)
    assert (code, loaded) == (0, [])
    assert "simultaneously entangled: 1" in out


def test_cold_sweep_with_malformed_ket_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "never.csv"
    code, loaded, _ = _fresh(
        ["sweep", "--initial-state", "(|10> - |01>", "--omega-ratio", "31.25",
         "--gamma-t-max", "1", "--samples", "3", "--output", str(out)],
        tmp_path,
    )
    assert (code, loaded) == (1, [])
    assert not out.exists()


@pytest.mark.parametrize("ket", ["(|10> - |01>)/sqrt(2)", "(|11> + |00>)/sqrt(2)"])
def test_cold_sweep_loads_only_the_pade_kernels_and_matches_in_process_bytes(tmp_path, ket):
    args = ["sweep", "--initial-state", ket, "--omega-ratio", "31.25",
            "--gamma-t-max", "4", "--samples", "3", "--output"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    code, loaded, _ = _fresh(args + [str(cold)], tmp_path)
    assert code == 0
    assert _KERNELS in loaded and "scipy.linalg" not in loaded
    assert main(args + [str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()


# Prints the BLAS thread count after importing the CLI and again inside main, run by the
# command's entry point.
_BLAS_PROBE = """
import os
from dephasim import cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
cli.main = lambda: print(os.environ.get("OPENBLAS_NUM_THREADS")) or 0
cli.run()
"""


@pytest.mark.parametrize("preset, seen", [(None, "None\n1\n"), ("2", "2\n2\n")], ids=["unset", "user-set"])
def test_the_command_runs_one_blas_thread_unless_the_user_set_a_count(tmp_path, monkeypatch, preset, seen):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, seen, "")


def test_cold_overflowing_sweep_prints_one_error_line(tmp_path):
    # A fresh process uses Python's default warning filters, so any numpy
    # RuntimeWarning would reach stderr ahead of the typed error.
    proc = _cli_process(
        ["sweep", "--initial-state", "|10>", "--omega-ratio", "1e10", "--gamma-t-max", "1e10",
         "--samples", "3", "--output", str(tmp_path / "x.csv")],
        tmp_path,
        capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("dephasim: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


_B300 = "1" + "0" * 300  # 1e300 in digits


# Each case runs in this process, where filterwarnings = error fails any numpy
# warning, then in a fresh one: exit code, stdout, stderr and output bytes
# must agree. `lines` counts the lines of the output file, None where none is written.
@pytest.mark.parametrize(
    "argv, expected, lines",
    [
        (["--help"], 0, None),
        (["sweep", "--initial-state", "|10>", "--omega-ratio", "31.25", "--gamma-t-max", "4",
          "--samples", "3", "--output", "{out}"], 0, 4),
        (["sweep", "--initial-state", "(|10>", "--samples", "3", "--output", "{out}"], 1, None),
        (["sweep", "--initial-state", "|10>", "--omega-ratio", "1e300", "--gamma-t-max", "1",
          "--samples", "3", "--output", "{out}"], 2, None),
        (["sweep", "--initial-state", "|10>", "--samples", "3", "--output", "{missing}"], 3, None),
        # long pulses drift the propagated trace; evolve rescales it
        (["sweep", "--initial-state", "|11>", "--omega-ratio", "1e4", "--gamma-t-max", "1e6",
          "--samples", "5", "--output", "{out}"], 0, 6),
        # a coefficient times a summed ket that overflows is a parse error at the '*'
        (["sweep", "--initial-state", f"({_B300}|10> + {_B300}|01>)*10000000000",
          "--samples", "3", "--output", "{out}"], 1, None),
        # an amplitude 1e-9 of its terms' scale is kept where that scale times 1e10 overflows
        (["sweep", "--initial-state", f"({_B300}|10> - 0.999999999*{_B300}|10>)*10000000000",
          "--samples", "3", "--output", "{out}"], 0, 4),
        (["sweep", "--initial-state", "|10> - |10>", "--samples", "3", "--output", "{out}"], 1, None),
    ],
    ids=["help", "sweep", "malformed-ket", "overflowing-drive", "unwritable-output",
         "long-pulse", "overflowing-ket-product", "cancellation-scale", "cancelled-ket"],
)
def test_cli_process_matches_in_process_main(tmp_path, monkeypatch, capsys, argv, expected, lines):
    out = tmp_path / "out.csv"
    argv = [arg.format(out=out, missing=tmp_path / "missing" / "x.csv") for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == expected
    captured = capsys.readouterr()
    # a failure is one "dephasim: " line on stderr; a success writes none
    assert re.fullmatch(r"dephasim: [^\n]*\n" if expected else "", captured.err), captured.err
    written = out.read_bytes() if out.exists() else None
    assert (None if written is None else written.count(b"\n")) == lines
    out.unlink(missing_ok=True)
    proc = _cli_process(argv, tmp_path, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (expected, captured.out, captured.err)
    assert (out.read_bytes() if out.exists() else None) == written


_ERROR_RUNS = pytest.mark.parametrize(
    "argv, expected",
    [
        (["sweep", "--initial-state", "(|10>", "--samples", "3", "--output", "{out}"], 1),
        (["sweep", "--initial-state", "|10>", "--omega-ratio", "1e300", "--gamma-t-max", "1",
          "--samples", "3", "--output", "{out}"], 2),
        (["sweep", "--initial-state", "|10>", "--samples", "3", "--output", "{dir}"], 3),
    ],
    ids=["malformed-ket", "overflowing-drive", "output-is-a-directory"],
)


class _UnwritableStream:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@_ERROR_RUNS
def test_main_returns_its_error_code_when_stderr_cannot_be_written(tmp_path, monkeypatch, argv, expected):
    argv = [arg.format(out=tmp_path / "out.csv", dir=tmp_path) for arg in argv]
    monkeypatch.setattr(sys, "stderr", _UnwritableStream())
    assert main(argv) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@_ERROR_RUNS
def test_cli_process_exits_with_its_error_code_when_stderr_is_full(tmp_path, argv, expected):
    argv = [arg.format(out=tmp_path / "out.csv", dir=tmp_path) for arg in argv]
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, tmp_path, stdout=subprocess.PIPE, stderr=full)
    assert (proc.returncode, proc.stdout) == (expected, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["compare", "qutrit"])
@pytest.mark.parametrize("stderr_full", [False, True], ids=["stderr-pipe", "stderr-full"])
def test_cli_output_that_cannot_be_flushed_exits_3(tmp_path, command, stderr_full):
    csv = tmp_path / "a.csv"
    csv.write_text(f"{CSV_HEADER}\n0,0.5,0.1\n0.1,0,0.2\n")
    argv = {
        "compare": ["compare", "--a", str(csv), "--b", str(csv)],
        "qutrit": ["qutrit", "--initial-state", "(|1,0> + |0,1>)/sqrt(2)", "--output", str(tmp_path / "r.txt")],
    }[command]
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, tmp_path, stdout=full, stderr=full if stderr_full else subprocess.PIPE)
    if not stderr_full:
        # one dephasim line, with no traceback and no "Exception ignored" from teardown
        assert proc.stderr == f"dephasim: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 3
