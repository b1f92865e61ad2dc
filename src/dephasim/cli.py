"""Command-line front end: sweep, qutrit criterion, and window comparison."""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from functools import partial
from typing import Iterator, NoReturn

from .errors import DephasimError, _parsed, _shown
from .states import parse_ket_expression
from .sweep import (
    ENTANGLEMENT_THRESHOLD,
    _FMT,
    SweepConfig,
    compare_windows,
    read_csv,
    read_text_lines,
    run_qutrit_scan,
    run_sweep,
    write_criterion_report,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Each config key, which is also a flag's destination, with its type and help.
_OPTIONS = {
    "initial_state": (
        str,
        'initial state as a ket expression, e.g. "(|10> - |01>)/sqrt(2)"; qutrit levels '
        'are comma-separated: "(|1,1> + |-1,-1>)/sqrt(2)"; a ket that starts with "-" '
        'needs the = form: --initial-state="-|10>"',
    ),
    "omega_ratio": (float, "drive intensity over decay rate"),
    "gamma_t_max": (float, "upper bound of the scaled time grid"),
    "samples": (int, "number of uniform grid samples"),
    "output": (str, "output path: the sweep CSV or the qutrit report"),
}
_QUTRIT_KEYS = ("initial_state", "output")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Every argparse message ends here; one may quote an argument, or its part after "=", whole.
        for text in (part for arg in self._argv for part in (arg, arg.partition("=")[2])):
            if _shown(text) != repr(text):
                message = message.replace(repr(text), _shown(text)).replace(text, _shown(text))
        raise ValueError(message)

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self._argv, namespace)

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_shown(' '.join(extras))}")
        # argparse drops a "--" value, so --flag=-- arrives as an empty list.
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dephasim",
        description=(
            "Stationary states of driven qubit/qutrit pairs under collective "
            "dephasing: entanglement and total-correlation sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("sweep", "sweep gamma_T and write a CSV of (C, I) samples", _cmd_sweep, tuple(_OPTIONS), (2, 2)),
        ("qutrit", "evaluate the two-qutrit stationary criterion", _cmd_qutrit, _QUTRIT_KEYS, (3, 3)),
    )
    for name, text, run, keys, dims in commands:
        command = sub.add_parser(name, help=text)
        command.set_defaults(run=run, keys=keys, dims=dims)
        command.add_argument("--config", help="key = value config file; flags override its entries")
        for key in keys:  # argparse prints an ArgumentTypeError's message as it is
            flag_type = partial(_parsed, _OPTIONS[key][0], error=argparse.ArgumentTypeError)
            command.add_argument("--" + key.replace("_", "-"), type=flag_type, help=_OPTIONS[key][1])

    compare = sub.add_parser("compare", help=f"compare entangled windows (C > {ENTANGLEMENT_THRESHOLD:g}) of two CSVs")
    compare.set_defaults(run=_cmd_compare)
    compare.add_argument("--a", required=True, help="first sweep CSV")
    compare.add_argument("--b", required=True, help="second sweep CSV")
    return parser


def _load_config_file(path: str) -> Iterator[tuple[int, str, str]]:
    """Yield the line number, key and raw value of each entry of a config file, in order."""
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # a "#" inside a value is kept
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {_shown(raw.strip())}")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _merge_config(args: argparse.Namespace) -> dict[str, object]:
    merged: dict[str, object] = {}
    if args.config:
        # Every line is checked; a repeated key's last line wins.
        for lineno, key, value in _load_config_file(args.config):
            if key not in args.keys:
                raise ValueError(f"{args.config}:{lineno}: unknown config key {_shown(key)}")
            try:
                merged[key] = _parsed(_OPTIONS[key][0], value)
                # Check the value on its own (a ket on the command's pair, a
                # range beside SweepConfig's valid defaults), so that its
                # error names this line even when a flag overrides it.
                if key == "initial_state":
                    parse_ket_expression(value, args.dims)
                elif key in SweepConfig.__dataclass_fields__:
                    SweepConfig("", **{key: merged[key]})
            except ValueError as exc:
                raise ValueError(f"{args.config}:{lineno}: {key}: {exc}") from None
    merged.update((key, getattr(args, key)) for key in args.keys if getattr(args, key) is not None)
    if "initial_state" not in merged:
        raise ValueError("an initial state is required (flag --initial-state or config file)")
    if "output" not in merged:
        raise ValueError("an output path is required (flag --output or config file)")
    merged["output_path"] = merged.pop("output")
    return merged


def _cmd_sweep(args: argparse.Namespace) -> int:
    # main reports SweepConfig's ValueError as a usage error.
    config = SweepConfig(**_merge_config(args))
    result = run_sweep(config)
    write_csv(result, config.output_path)
    print(
        f"wrote {config.output_path} ({config.samples} samples, "
        f"{len(result.transitions)} transitions, {len(result.maxima)} maxima)"
    )
    return EXIT_OK


def _cmd_qutrit(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    report = run_qutrit_scan(config["initial_state"])
    write_criterion_report(report, config["initial_state"], config["output_path"])
    verdict = "entangled" if report.sufficient_entangled else "not detected"
    print(
        f"wrote {config['output_path']} (stationary state {verdict}, "
        f"min PT eigenvalue {report.min_pt_eigenvalue:.6g})"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_windows(read_csv(args.a), read_csv(args.b))
    print(f"grid points: {report.samples}")
    print(f"entangled in {args.a}: {report.a_entangled}")
    print(f"entangled in {args.b}: {report.b_entangled}")
    print(f"simultaneously entangled: {report.overlap_count}")
    if 0 < report.overlap_count <= 20:
        for gamma_t in report.overlap_gamma_t:
            print(f"  overlap at gamma_T = {_FMT % gamma_t}")
    return EXIT_OK


def _report(exc: BaseException) -> None:
    """Print `dephasim: <exc>` on stderr, unless stderr itself cannot be written."""
    with contextlib.suppress(OSError):
        print(f"dephasim: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, MemoryError) as exc:
        _report(exc)
        return EXIT_USAGE
    except OSError as exc:
        _report(exc)
        return EXIT_IO
    except DephasimError as exc:
        _report(exc)
        return EXIT_NUMERICAL


def run() -> NoReturn:
    """Process entry of the `dephasim` command: main, a flush of its output, os._exit.

    Every file main writes is closed by its `with` block and dephasim registers
    no atexit handler, so the hard exit skips only Python's module-by-module
    teardown of numpy and the rest of what the process loaded. Output that
    cannot be flushed turns a successful run into an I/O error, reported on
    stderr where stderr itself can still be written; a run that already
    failed keeps its own code, even when its report could not be written.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            code = code or EXIT_IO
            _report(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
