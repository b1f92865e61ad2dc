import builtins
import errno
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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
_LONG = "x" * 5000
_TYPED = "initial_state = |00>\n# typed values follow\n"


class _Run(NamedTuple):
    """One command-line run in cli_dir. A failure writes only its stderr line `dephasim: <err>`, checked up to an
    ending "..." where numpy or Python write the rest; a success writes no stderr, and its stdout holds `stdout`.
    The run changes no file but `out`, which holds `lines` lines (None: no `out`). A row that names the scipy
    modules a fresh process loads also runs in one, which must give the same bytes."""

    argv: str  # split as a shell splits it
    code: int
    err: str | None = None
    input: str | None = None  # the text of the file `input`, written into cli_dir before the run
    stdout: tuple[str, ...] = ()
    lines: int | None = None
    loaded: list[str] | None = None


_CLI_RUNS = {
    "help": _Run("--help", 0, stdout=(
        "usage: dephasim [-h] {sweep,qutrit,compare} ...",
        "    compare             compare entangled windows (C > 1e-09) of two CSVs",
    ), loaded=[]),
    # a ket that starts with "-" needs the = form, which each command's help shows
    **{
        f"{command}-help": _Run(f"{command} --help", 0,
                                stdout=('                        "-" needs the = form: --initial-state="-|10>"',))
        for command in ("sweep", "qutrit")
    },
    # the robust ket's sweep crosses the threshold once between its samples: one transition line
    **{
        label: _Run(f"sweep --initial-state '{ket}' --omega-ratio 31.25 --gamma-t-max 4 --samples 3 --output out", 0,
                    stdout=(f"wrote out (3 samples, {transitions} transitions, 0 maxima)",), lines=lines,
                    loaded=[_KERNELS])
        for label, ket, transitions, lines in (
            ("robust", "(|10> - |01>)/sqrt(2)", 1, 5), ("fragile", "(|11> + |00>)/sqrt(2)", 0, 4)
        )
    },
    "malformed-ket": _Run("sweep --initial-state (|10> --samples 3 --output out", 1, "unclosed '(' (at position 0)",
                          loaded=[]),
    # np.linspace(0, 1e-322, 100) repeats subnormal values, so the grid does not increase: the sweep names both
    # inputs before any propagation, so scipy stays unloaded
    "grid-too-fine-for-floats": _Run("sweep --initial-state |10> --gamma-t-max 1e-322 --samples 100 --output out", 1,
                                     "gamma_t_max 1e-322 is too small for 100 distinct samples", loaded=[]),
    # every input fault is reported before an output that cannot be written
    "malformed-ket-and-unwritable-output": _Run("sweep --initial-state (|10> --samples 3 --output missing/x.csv", 1,
                                                "unclosed '(' (at position 0)"),
    "overflowing-drive": _Run("sweep --initial-state |10> --omega-ratio 1e300 --gamma-t-max 1 --samples 3 --output out",
                              2, "matrix is not Hermitian (magnitude nan)", loaded=[_KERNELS]),
    # a fresh process keeps Python's default warning filters, so a numpy
    # RuntimeWarning would reach stderr ahead of the typed error
    "overflowing-sweep": _Run("sweep --initial-state |10> --omega-ratio 1e10 --gamma-t-max 1e10 --samples 3 "
                              "--output out", 2, "matrix is not Hermitian (magnitude nan)", loaded=[_KERNELS]),
    # an output that cannot be written is refused before any propagation, so scipy stays unloaded
    "unwritable-output": _Run("sweep --initial-state |10> --samples 3 --output missing/x.csv", 3,
                              "[Errno 2] No such file or directory: 'missing/x.csv'", loaded=[]),
    "output-is-a-directory": _Run("sweep --initial-state |10> --samples 3 --output .", 3,
                                  "[Errno 21] Is a directory: '.'", loaded=[]),
    # long pulses drift the propagated trace; evolve rescales it
    "long-pulse": _Run("sweep --initial-state |11> --omega-ratio 1e4 --gamma-t-max 1e6 --samples 5 --output out", 0,
                       stdout=("wrote out (5 samples, 0 transitions, 0 maxima)",), lines=6, loaded=[_KERNELS]),
    # a coefficient times a summed ket that overflows is a parse error at the '*'
    "overflowing-ket-product": _Run(f"sweep --initial-state '({_B300}|10> + {_B300}|01>)*10000000000' --samples 3 "
                                    "--output out", 1, "coefficient does not fit a float (at position 615)", loaded=[]),
    # an amplitude 1e-9 of its terms' scale is kept where that scale times 1e10 overflows
    "cancellation-scale": _Run(f"sweep --initial-state '({_B300}|10> - 0.999999999*{_B300}|10>)*10000000000' "
                               "--samples 3 --output out", 0,
                               stdout=("wrote out (3 samples, 0 transitions, 0 maxima)",), lines=4, loaded=[_KERNELS]),
    "cancelled-ket": _Run("sweep --initial-state '|10> - |10>' --samples 3 --output out", 1,
                          "all amplitudes cancel (at position 0)", loaded=[]),
    "ket-found": _Run(f"sweep --initial-state=1/|{'1' * 5000}> --output out", 1,
                      "expected a number or sqrt(...), found <str too long to print> (at position 2)", loaded=[]),
    **{
        f"nested-{command}": _Run(f"{command} '--initial-state={_NESTED.format(ket)}' --output out", 1,
                                  "parentheses nested more than 200 deep (at position 200)", loaded=[])
        for command, ket in (("sweep", "|10>"), ("qutrit", "|1,0>"))
    },
    "qutrit": _Run("qutrit --initial-state '(|1,0> + |0,1>)/sqrt(2)' --output out", 0,
                   stdout=("wrote out (stationary state entangled, min PT eigenvalue -0.5)",), lines=11, loaded=[]),
    "compare": _Run("compare --a a.csv --b b.csv", 0, stdout=(
        "grid points: 3", "entangled in a.csv: 2", "entangled in b.csv: 2", "simultaneously entangled: 1",
        "  overlap at gamma_T = 0.2",
    ), loaded=[]),
    # The rows from here on run in this process only.
    # a config or CSV file may start with a UTF-8 byte order mark
    "config-byte-order-mark": _Run("sweep --config input --output out", 0, None,
                                   "\ufeffinitial_state = |10>\nsamples = 3\n",
                                   stdout=("wrote out (3 samples, 0 transitions, 0 maxima)",), lines=4),
    "csv-byte-order-mark": _Run("compare --a a.csv --b input", 0, None,
                                f"\ufeff{CSV_HEADER}\n0,0.5,0.1\n0.1,0,0.2\n0.2,0.3,0.3\n",
                                stdout=("grid points: 3", "simultaneously entangled: 2")),
    # a flag overrides the file, and a repeated key takes its last line: gamma_t_max 0.25 would give 3 transitions
    # and 1 maximum
    "config-flag-override": _Run("sweep --config input --samples 80", 0, None,
                                 "# fig-style sweep\ninitial_state = (|10> - |01>)/sqrt(2)\nomega_ratio = 31.25\n"
                                 "gamma_t_max = 0.25\nsamples = 200\noutput = out\n"
                                 "gamma_t_max = 0.5  # a repeated key takes its last line\n",
                                 stdout=("wrote out (80 samples, 5 transitions, 2 maxima)",), lines=88),
    # point 1 is the first to overflow, inside a block of 64 whose later propagators overflow too; the sweep
    # stops with point 1's own error (test_engine.py's _PARITY checks it against the per-point path)
    "overflowing-mid-block": _Run("sweep --initial-state |10> --omega-ratio 1e17 --gamma-t-max 1e4 --samples 200 "
                                  "--output out", 2, "matrix is not Hermitian (magnitude 2.086e+00)"),
    "unknown-flag": _Run("sweep --bogus", 1, "unrecognized arguments: '--bogus'"),
    "removed-workers": _Run("sweep --initial-state |00> --output out --workers 2", 1,
                            "unrecognized arguments: '--workers 2'"),
    "removed-threshold": _Run("compare --a a.csv --b b.csv --threshold 0.1", 1,
                              "unrecognized arguments: '--threshold 0.1'"),
    **{
        name: _Run(argv, 1, "an initial state is required (flag --initial-state or config file)", text)
        for name, argv, text in (("no-initial-state", "sweep --output out", None),
                                 ("config-no-initial-state", "sweep --config input", "output = out\n"))
    },
    "config-no-output": _Run("sweep --config input", 1, "an output path is required (flag --output or config file)",
                             "initial_state = |00>\n"),
    "config-line-without-equals": _Run("sweep --config input --output out", 1,
                                       "input:2: expected 'key = value', got 'samples 5'",
                                       "initial_state = |00>\nsamples 5\n"),
    "qutrit-cancelled-ket": _Run("qutrit --initial-state '|0,0> - |0,0>' --output out", 1,
                                 "all amplitudes cancel (at position 0)"),
    **{
        f"flag-{flag}-{value}": _Run(f"sweep --initial-state |00> --{flag}={value} --output out", 1,
                                     f"{flag.replace('-', '_')} must be finite and {sign}, got {value}")
        for flag, sign in (("omega-ratio", "nonnegative"), ("gamma-t-max", "positive"))
        for value in ("nan", "inf", "-inf")
    },
    "flag-samples-1": _Run("sweep --initial-state |00> --samples=1 --output out", 1,
                           "samples must be at least 2, got 1"),
    "flag-gamma-t-max--1": _Run("sweep --initial-state |00> --gamma-t-max=-1 --output out", 1,
                                "gamma_t_max must be finite and positive, got -1.0"),
    # 10**18 samples exceed the address space, so the grid fails at once
    # without taking memory; never try a count that could be allocated.
    "samples-too-many-to-allocate": _Run("sweep --initial-state |10> --samples 1000000000000000000 --output out", 1,
                                         "Unable to allocate ..."),
    "qutrit-config-mode-key": _Run("qutrit --config input --output out", 1, "input:2: unknown config key 'mode'",
                                   "initial_state = |0,0>\nmode = qutrit-criterion\n"),
    # qutrit has no flag for the sweep-only keys, so its config file may not set them
    **{
        f"qutrit-config-{key}": _Run("qutrit --config input --output out", 1, f"input:2: unknown config key '{key}'",
                                     f"initial_state = |0,0>\n{key} = 2\n")
        for key in ("omega_ratio", "gamma_t_max", "samples")
    },
    # neither a later line with the same key nor a flag excuses an earlier line
    **{
        f"repeated-{name}": _Run(f"{command} --config input --initial-state {ket} --output out", 1, f"input:1: {err}",
                                 f"{key} = {first}\n{key} = {second}\n")
        for name, command, ket, key, first, second, err in (
            ("out-of-range", "sweep", "|10>", "samples", 1, 20, "samples: samples must be at least 2, got 1"),
            ("wrong-type", "sweep", "|10>", "samples", "x", 20,
             "samples: invalid literal for int() with base 10: 'x'"),
            ("sweep-ket", "sweep", "|10>", "initial_state", "|1x>", "|10>",
             "initial_state: ket label '1x' is outside the 2x2 level alphabet (at position 0)"),
            ("qutrit-ket", "qutrit", "|1,0>", "initial_state", "|1,2>", "|1,0>",
             "initial_state: ket label '1,2' is outside the 3x3 level alphabet (at position 0)"),
        )
    },
    # a value is checked on its own line, also where a flag overrides it
    **{
        f"config-{name}{under}": _Run(f"sweep --config input --output out{flag}", 1, f"input:{lineno}: {err}", text)
        for name, text, lineno, err, over in (  # over: also under a --samples flag
            ("samples-x", _TYPED + "samples = x\n", 3, "samples: invalid literal for int() with base 10: 'x'", True),
            ("samples-1.5", _TYPED + "samples = 1.5\n", 3, "samples: invalid literal for int() with base 10: '1.5'",
             False),
            ("omega-ratio-fast", _TYPED + "omega_ratio = fast\n", 3,
             "omega_ratio: could not convert string to float: 'fast'", False),
            ("samples-1", "initial_state = |00>\nsamples = 1\n", 2, "samples: samples must be at least 2, got 1", True),
            ("gamma-t-max--1", "initial_state = |00>\ngamma_t_max = -1\n", 2,
             "gamma_t_max: gamma_t_max must be finite and positive, got -1.0", False),
            ("omega-ratio-nan", "initial_state = |00>\nomega_ratio = nan\n", 2,
             "omega_ratio: omega_ratio must be finite and nonnegative, got nan", False),
        )
        for under, flag in (("", ""), ("-under-flag", " --samples 5")) if over or not flag
    },
    **{
        f"config-{command}-ket{under}": _Run(f"{command} --config input --output out{flag}", 1,
                                             f"input:2: initial_state: {err}",
                                             f"# the {command} ket\ninitial_state = {ket}\n")
        for command, ket, err, flag_ket in (
            ("sweep", '"(|10> - |01>)/sqrt(2)"', "unexpected character '\"' (at position 0)", "|10>"),
            ("qutrit", "|1,2>", "ket label '1,2' is outside the 3x3 level alphabet (at position 0)", "|1,0>"),
        )
        for under, flag in (("", ""), ("-under-flag", f" --initial-state {flag_ket}"))
    },
    "config-latin1": _Run("sweep --config latin1.cfg --output out", 1, "latin1.cfg: 'utf-8' codec can't decode ..."),
    "compare-grid-mismatch": _Run("compare --a good.csv --b longer.csv", 1,
                                  "sweeps do not share the same gamma_T grid"),
    "compare-header-only": _Run("compare --a good.csv --b header_only.csv", 1, "header_only.csv: no data rows"),
    "compare-short-row": _Run("compare --a good.csv --b short_row.csv", 1, "short_row.csv:3: expected 3 cells, got 2"),
    "compare-nan-row": _Run("compare --a good.csv --b nan_row.csv", 1, "nan_row.csv:2: non-finite value 'nan'"),
    "compare-latin1": _Run("compare --a good.csv --b latin1.csv", 1, "latin1.csv: 'utf-8' codec can't decode ..."),
    # an input file that cannot be read is an I/O error
    "compare-absent-csv": _Run("compare --a absent.csv --b good.csv", 3,
                               "[Errno 2] No such file or directory: 'absent.csv'"),
    "sweep-absent-config": _Run("sweep --config absent.cfg --output out", 3,
                                "[Errno 2] No such file or directory: 'absent.cfg'"),
    "compare-csv-is-a-directory": _Run("compare --a . --b good.csv", 3, "[Errno 21] Is a directory: '.'"),
    "qutrit-config-is-a-directory": _Run("qutrit --config . --output out", 3, "[Errno 21] Is a directory: '.'"),
    # 5000 characters of the user's text, each where its message shows it
    **{
        f"long-csv-{name}": _Run("compare --a input --b input", 1, f"input:2: {err}", f"{CSV_HEADER}\n{row}\n")
        for name, row, err in (
            ("cell", f"0,1,{_LONG}", "could not convert string to float: <str too long to print>"),
            ("non-finite", f"0,1,{'1' * 5000}", "non-finite value <str too long to print>"),  # inf
        )
    },
    **{
        f"long-config-{name}": _Run("sweep --config input --initial-state |10> --output out", 1, f"input:1: {err}",
                                    config)
        for name, config, err in (
            ("int", f"samples = {_LONG}", "samples: invalid literal for int() with base 10: <str too long to print>"),
            ("float", f"omega_ratio = {_LONG}",
             "omega_ratio: could not convert string to float: <str too long to print>"),
            ("no-equals", _LONG, "expected 'key = value', got <str too long to print>"),
            ("key", f"{'k' * 5000} = 1", "unknown config key <str too long to print>"),
        )
    },
    **{
        f"long-ket-{name}": _Run(f"sweep --initial-state={ket} --output out", 1, err)
        for name, ket, err in (
            ("subsystems", f"|{','.join('1' * 2500)}>",
             "ket label <str too long to print> must name exactly two subsystems (at position 0)"),
            ("levels", f"|{'1' * 5000}>",
             "ket label <str too long to print> needs two levels (use a comma for multi-character levels) "
             "(at position 0)"),
            ("alphabet", f"|{'2' * 5000},1>",
             "ket label <str too long to print> is outside the 2x2 level alphabet (at position 0)"),
            ("word", "a" * 5000, "unknown word <str too long to print> (at position 0)"),
        )
    },
    # argparse's own errors: a value of each typed flag, a stray argument, an unknown command, an abbreviation
    # that could match two flags (also with spaces in its value), and a value given to --help
    **{
        f"long-argument-{name}": _Run(f"{argv} --initial-state |10> --output out", 1, err)
        for name, argv, err in (
            *((flag, f"sweep --{flag}={_LONG}", f"argument --{flag}: {error}: <str too long to print>")
              for flag, error in (("omega-ratio", "could not convert string to float"),
                                  ("gamma-t-max", "could not convert string to float"),
                                  ("samples", "invalid literal for int() with base 10"))),
            ("stray", f"sweep {_LONG}", "unrecognized arguments: <str too long to print>"),
            # Python 3.12 and later print the choices without quotes
            ("command", _LONG, "argument command: invalid choice: <str too long to print> (choose from ..."),
            *((name, f"sweep '--o={value}'",
               "ambiguous option: --o=<str too long to print> could match --omega-ratio, --output")
              for name, value in (("ambiguous", _LONG), ("ambiguous-spaces", "x " * 2500))),
            ("help", f"sweep --help={_LONG}", "argument -h/--help: ignored explicit argument <str too long to print>"),
        )
    },
}


def _tree(root):
    """Each path under root, with its bytes, or None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.fixture
def cli_dir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding every input file the _CLI_RUNS rows read: sweep CSVs on one grid
    (a.csv, b.csv) and on two others (good.csv, longer.csv), malformed CSVs and Latin-1 inputs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    rows = {
        "a.csv": "0,0.5,0.1\n0.1,0,0.2\n0.2,0.3,0.3\n",
        "b.csv": "0,0,0.1\n0.1,0.4,0.2\n0.2,0.3,0.3\n",
        **{name: "".join(f"{k / (n - 1):.12g},0,0\n" for k in range(n))
           for name, n in (("good.csv", 10), ("longer.csv", 12))},
        "header_only.csv": "",
        "short_row.csv": "0,1,2\n0.5,1\n",
        "nan_row.csv": "0,nan,0.1\n",
    }
    for name, text in rows.items():
        (tmp_path / name).write_text(f"{CSV_HEADER}\n{text}")
    (tmp_path / "latin1.csv").write_bytes(f"{CSV_HEADER}\n{rows['good.csv']}# r\xe9sum\xe9\n".encode("latin-1"))
    (tmp_path / "latin1.cfg").write_bytes("# r\xe9sum\xe9\ninitial_state = |00>\n".encode("latin-1"))
    return tmp_path


# Each row runs in this process, where filterwarnings = error fails any numpy warning; a row that names its
# scipy modules then runs in a fresh one, which must give the same exit code, stdout, stderr and files.
@pytest.mark.parametrize("run", _CLI_RUNS.values(), ids=_CLI_RUNS)
def test_a_cli_run_gives_its_code_lines_and_files(cli_dir, capsys, run):
    if run.input is not None:
        (cli_dir / "input").write_text(run.input, encoding="utf-8")
    argv, out, before = shlex.split(run.argv), cli_dir / "out", _tree(cli_dir)
    assert main(argv) == run.code
    captured = capsys.readouterr()
    if run.code:
        head, dots, _ = f"dephasim: {run.err}\n".partition("...\n")
        assert re.fullmatch(re.escape(head) + ("[^\n]*\n" if dots else ""), captured.err), captured.err[:600]
        assert captured.out == ""
    else:
        assert (captured.err, run.err) == ("", None)
        assert [line for line in run.stdout if line not in captured.out.splitlines()] == []
    after = _tree(cli_dir)
    assert {path: data for path, data in after.items() if path != out} == before
    assert (after[out].count(b"\n") if out in after else None) == run.lines
    if run.loaded is not None:
        out.unlink(missing_ok=True)
        proc, loaded = _cold(argv, cli_dir)
        assert (proc.returncode, proc.stdout, proc.stderr, loaded) == (run.code, captured.out, captured.err, run.loaded)
        assert _tree(cli_dir) == after


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
        proc, _ = _cold(shlex.split(_CLI_RUNS[command].argv), cli_dir, stdout=full, stderr=stderr)
    if not stderr_full:
        # one dephasim line, with no traceback and no "Exception ignored" from teardown
        assert proc.stderr == f"dephasim: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 3
