"""Command-line front end: sweep, qutrit criterion, and window comparison."""

from __future__ import annotations

import argparse
import sys

from .errors import DephasimError, ParseError, ZeroNormError
from .sweep import (
    SweepConfig,
    compare_windows,
    read_csv,
    read_text_lines,
    run_qutrit_scan,
    run_sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_KET_HELP = (
    'initial state as a ket expression, e.g. "(|10> - |01>)/sqrt(2)"; '
    'qutrit levels are comma-separated: "(|1,1> + |-1,-1>)/sqrt(2)"'
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dephasim",
        description=(
            "Stationary states of driven qubit/qutrit pairs under collective "
            "dephasing: entanglement and total-correlation sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep gamma_T and write a CSV of (C, I) samples")
    sweep.add_argument("--config", help="key = value config file; flags override its entries")
    sweep.add_argument("--initial-state", help=_KET_HELP)
    sweep.add_argument("--omega-ratio", type=float, help="drive intensity over decay rate")
    sweep.add_argument("--gamma-t-max", type=float, help="upper bound of the scaled time grid")
    sweep.add_argument("--samples", type=int, help="number of uniform grid samples")
    sweep.add_argument("--output", help="CSV output path")

    qutrit = sub.add_parser("qutrit", help="evaluate the two-qutrit stationary criterion")
    qutrit.add_argument("--config", help="key = value config file; flags override its entries")
    qutrit.add_argument("--initial-state", help=_KET_HELP)
    qutrit.add_argument("--output", help="report output path")

    compare = sub.add_parser("compare", help="compare entangled windows (C > 1e-9) of two CSVs")
    compare.add_argument("--a", required=True, help="first sweep CSV")
    compare.add_argument("--b", required=True, help="second sweep CSV")
    return parser


def _load_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Map each key of a config file to its line number and raw value."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = (lineno, value.strip())
    return entries


# Config-file keys, which are also the flag destinations, and their types.
_CONFIG_KEYS = {
    "initial_state": str,
    "omega_ratio": float,
    "gamma_t_max": float,
    "samples": int,
    "output": str,
}
# The keys whose range SweepConfig checks.
_RANGED_KEYS = ("omega_ratio", "gamma_t_max", "samples")


def _merge_config(args: argparse.Namespace) -> dict[str, object]:
    flags = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    merged: dict[str, object] = {}
    if getattr(args, "config", None):
        for key, (lineno, value) in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS or not hasattr(args, key):
                raise _UsageError(f"unknown config key {key!r}")
            try:
                merged[key] = _CONFIG_KEYS[key](value)
                if key in _RANGED_KEYS:
                    # Range-check the value alone, beside SweepConfig's valid
                    # defaults, so that its error names this line even when a
                    # flag overrides it.
                    SweepConfig("", **{key: merged[key]})
            except ValueError as exc:
                raise _UsageError(f"{args.config}:{lineno}: {key}: {exc}") from None
    merged.update((key, value) for key, value in flags.items() if value is not None)
    if "initial_state" not in merged:
        raise _UsageError("an initial state is required (flag --initial-state or config file)")
    if "output" not in merged:
        raise _UsageError("an output path is required (flag --output or config file)")
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
    report = run_qutrit_scan(config["initial_state"], config["output_path"])
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
            print(f"  overlap at gamma_T = {gamma_t:.12g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "qutrit":
            return _cmd_qutrit(args)
        return _cmd_compare(args)
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (_UsageError, ParseError, ZeroNormError, ValueError) as exc:
        print(f"dephasim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dephasim: {exc}", file=sys.stderr)
        return EXIT_IO
    except DephasimError as exc:
        print(f"dephasim: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
