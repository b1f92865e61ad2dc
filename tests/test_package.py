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


def _fresh(args, cwd, **kwargs):
    """Run `python args` on this source tree in text mode; stdout and stderr are piped unless kwargs name them.

    The environment is read at call time, so a test sets its own variables
    with monkeypatch. PYTHONUNBUFFERED would make a write to a full device
    fail inside main, which already exits 3, instead of at the final flush.
    COLUMNS fixes the width argparse wraps --help to.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True, timeout=120, **kwargs)


# Runs the CLI in a fresh interpreter exactly as `python -m dephasim.cli` does
# (or, with no arguments, only imports the package), then writes the exit code
# and the names of the loaded scipy modules to the file named by its first
# argument, so stdout and stderr hold only the command's own bytes. The CLI
# ends its process with os._exit, so the probe writes from inside that call.
_PROBE = """
import os, runpy, sys
report, real_exit = sys.argv.pop(1), os._exit
def probe_exit(code):
    with open(report, "w") as file:
        print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), file=file)
    real_exit(code)
os._exit = probe_exit
if len(sys.argv) > 1:
    runpy.run_module("dephasim.cli", run_name="__main__", alter_sys=True)
else:
    import dephasim
    os._exit(0)
"""


_KERNELS = "scipy.linalg._matfuncs_expm"


def _cold(argv, cwd, **kwargs):
    """One fresh `dephasim argv` process through _PROBE, and the scipy modules it loaded."""
    report = cwd / "probe"
    proc = _fresh(["-c", _PROBE, str(report), *argv], cwd, **kwargs)
    assert report.exists(), proc.stderr  # the process ended through os._exit
    code, *loaded = report.read_text().split()
    report.unlink()
    assert proc.returncode == int(code)
    return proc, loaded


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
    proc, loaded = _cold([], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr, loaded) == (0, "", "", [])


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
    proc = _fresh(["-c", _BLAS_PROBE], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, seen, "")


_B300 = "1" + "0" * 300  # 1e300 in digits
_NESTED = "(" * 400 + "{}" + ")" * 400
# Each command-line run: its argv, split as a shell splits it and run in cli_dir; its exit code;
# the number of lines it writes to `out`, None where it writes no file; the scipy modules a fresh
# process loads for it; and, in some rows, one line that its stdout or stderr holds.
_CLI_RUNS = {
    "help": ("--help", 0, None, []),
    # the robust ket's sweep crosses the threshold once between its samples: one transition line
    **{
        label: (f"sweep --initial-state '{ket}' --omega-ratio 31.25 --gamma-t-max 4 --samples 3 --output out", 0,
                lines, [_KERNELS])
        for label, ket, lines in (("robust", "(|10> - |01>)/sqrt(2)", 5), ("fragile", "(|11> + |00>)/sqrt(2)", 4))
    },
    "malformed-ket": ("sweep --initial-state (|10> --samples 3 --output out", 1, None, []),
    "overflowing-drive": ("sweep --initial-state |10> --omega-ratio 1e300 --gamma-t-max 1 --samples 3 --output out", 2,
                          None, [_KERNELS]),
    # a fresh process keeps Python's default warning filters, so a numpy
    # RuntimeWarning would reach stderr ahead of the typed error
    "overflowing-sweep": ("sweep --initial-state |10> --omega-ratio 1e10 --gamma-t-max 1e10 --samples 3 --output out",
                          2, None, [_KERNELS], "dephasim: matrix is not Hermitian (magnitude nan)"),
    "unwritable-output": ("sweep --initial-state |10> --samples 3 --output missing/x.csv", 3, None, [_KERNELS]),
    "output-is-a-directory": ("sweep --initial-state |10> --samples 3 --output .", 3, None, [_KERNELS]),
    # long pulses drift the propagated trace; evolve rescales it
    "long-pulse": ("sweep --initial-state |11> --omega-ratio 1e4 --gamma-t-max 1e6 --samples 5 --output out", 0, 6,
                   [_KERNELS]),
    # a coefficient times a summed ket that overflows is a parse error at the '*'
    "overflowing-ket-product": (f"sweep --initial-state '({_B300}|10> + {_B300}|01>)*10000000000' --samples 3 "
                                "--output out", 1, None, []),
    # an amplitude 1e-9 of its terms' scale is kept where that scale times 1e10 overflows
    "cancellation-scale": (f"sweep --initial-state '({_B300}|10> - 0.999999999*{_B300}|10>)*10000000000' --samples 3 "
                           "--output out", 0, 4, [_KERNELS]),
    "cancelled-ket": ("sweep --initial-state '|10> - |10>' --samples 3 --output out", 1, None, []),
    "ket-found": ("sweep --initial-state=1/|" + "1" * 5000 + "> --output out", 1, None, [],
                  "dephasim: expected a number or sqrt(...), found <str too long to print> (at position 2)"),
    **{
        f"nested-{command}": (f"{command} '--initial-state={_NESTED.format(ket)}' --output out", 1, None, [],
                              "dephasim: parentheses nested more than 200 deep (at position 200)")
        for command, ket in (("sweep", "|10>"), ("qutrit", "|1,0>"))
    },
    "qutrit": ("qutrit --initial-state '(|1,0> + |0,1>)/sqrt(2)' --output out", 0, 11, [],
               "wrote out (stationary state entangled, min PT eigenvalue -0.5)"),
    "compare": ("compare --a a.csv --b b.csv", 0, None, [], "simultaneously entangled: 1"),
}


@pytest.fixture
def cli_dir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the two sweep CSVs a.csv and b.csv."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text(f"{CSV_HEADER}\n0,0.5,0.1\n0.1,0,0.2\n0.2,0.3,0.3\n")
    (tmp_path / "b.csv").write_text(f"{CSV_HEADER}\n0,0,0.1\n0.1,0.4,0.2\n0.2,0.3,0.3\n")
    return tmp_path


# Each row runs in this process, where filterwarnings = error fails any numpy
# warning, then in a fresh one: exit code, stdout, stderr and output bytes
# must agree, and the fresh one loads exactly the row's scipy modules.
@pytest.mark.parametrize("row", _CLI_RUNS.values(), ids=_CLI_RUNS)
def test_cli_process_matches_in_process_main(cli_dir, monkeypatch, capsys, row):
    argv, code, lines, loaded, *held = row
    argv, out = shlex.split(argv), cli_dir / "out"
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    # a failure is one "dephasim: " line on stderr; a success writes none
    assert re.fullmatch(r"dephasim: [^\n]*\n" if code else "", captured.err), captured.err
    assert [line for line in held if line not in (captured.out + captured.err).splitlines()] == []
    written = out.read_bytes() if out.exists() else None
    assert (None if written is None else written.count(b"\n")) == lines
    out.unlink(missing_ok=True)
    proc, cold_loaded = _cold(argv, cli_dir)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert (out.read_bytes() if out.exists() else None) == written
    assert cold_loaded == loaded


_ERRORS = ("malformed-ket", "overflowing-drive", "output-is-a-directory")
_ERROR_RUNS = pytest.mark.parametrize("argv, expected", [_CLI_RUNS[name][:2] for name in _ERRORS], ids=_ERRORS)


class _UnwritableStream:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@_ERROR_RUNS
def test_main_returns_its_error_code_when_stderr_cannot_be_written(cli_dir, monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "stderr", _UnwritableStream())
    assert main(shlex.split(argv)) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@_ERROR_RUNS
def test_cli_process_exits_with_its_error_code_when_stderr_is_full(cli_dir, argv, expected):
    with open("/dev/full", "w") as full:
        proc, _ = _cold(shlex.split(argv), cli_dir, stderr=full)
    assert (proc.returncode, proc.stdout) == (expected, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["compare", "qutrit"])
@pytest.mark.parametrize("stderr_full", [False, True], ids=["stderr-pipe", "stderr-full"])
def test_cli_output_that_cannot_be_flushed_exits_3(cli_dir, command, stderr_full):
    with open("/dev/full", "w") as full:
        stderr = full if stderr_full else subprocess.PIPE
        proc, _ = _cold(shlex.split(_CLI_RUNS[command][0]), cli_dir, stdout=full, stderr=stderr)
    if not stderr_full:
        # one dephasim line, with no traceback and no "Exception ignored" from teardown
        assert proc.stderr == f"dephasim: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 3
