"""Scaled-action-time sweeps, feature detection, window comparison, and CSV output."""

from __future__ import annotations

import math
import numbers
import operator
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .engine import _require_nonnegative, build_liouvillian, dephasing_fixed_point, stationary_xforms
from .errors import DephasimError, _shown
from .measures import (
    CriterionReport,
    concurrence_xform,
    mutual_information_xform,
    qutrit_sufficient_entangled,
)
from .states import parse_ket_expression

# Concurrence below this is indistinguishable from propagator noise.
ENTANGLEMENT_THRESHOLD = 1e-9
# Bisection interval width; tight enough that the concurrence at a refined
# transition stays below 1e-6 even at drive-scale slopes.
_REFINE_TOL = 1e-9

CSV_HEADER = "gamma_T,concurrence,mutual_information"


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of one sweep."""

    initial_state: str
    omega_ratio: float = 31.25
    gamma_t_max: float = 4.0
    samples: int = 2000
    output_path: str | None = None

    def __post_init__(self):
        try:
            operator.index(self.samples)
        except TypeError:
            raise ValueError(f"samples must be an integer, got {_shown(self.samples)}") from None
        if self.samples < 2:
            raise ValueError(f"samples must be at least 2, got {_shown(self.samples)}")
        t_max = self.gamma_t_max
        if not (isinstance(t_max, numbers.Real) and 0 < t_max <= sys.float_info.max):
            raise ValueError(f"gamma_t_max must be finite and positive, got {_shown(t_max)}")
        _require_nonnegative("omega_ratio", self.omega_ratio)


@dataclass(frozen=True)
class SweepResult:
    """Sampled (gamma_T, concurrence, mutual information) rows plus detected features."""

    gamma_t: np.ndarray
    concurrence: np.ndarray
    mutual_information: np.ndarray
    transitions: list[float] = field(default_factory=list)
    maxima: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        for name in ("gamma_t", "concurrence", "mutual_information"):
            column = np.asarray(getattr(self, name), dtype=float)
            if column.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
            object.__setattr__(self, name, column)
        gt = self.gamma_t
        if len(gt) != len(self.concurrence) or len(gt) != len(self.mutual_information):
            raise ValueError("row columns must have equal length")
        if not np.all(np.diff(gt) > 0):  # written so that a NaN fails it
            raise ValueError("gamma_t values must be strictly increasing")
        for _, c_value, _ in self.maxima:
            if not c_value > 0:
                raise ValueError("every maximum must lie inside an entangled window")
        # read_csv refuses non-finite values, so write_csv must never write one.
        for name in ("gamma_t", "concurrence", "mutual_information", "transitions", "maxima"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValueError(f"{name} values must be finite")


@dataclass(frozen=True)
class WindowOverlapReport:
    """Per-grid comparison of simultaneous entanglement between two sweeps."""

    samples: int
    a_entangled: int
    b_entangled: int
    overlap_count: int
    overlap_gamma_t: list[float]


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Sweep gamma_T over a uniform grid and detect transitions and maxima.

    The sweep runs in this process; `workers` is accepted for callers that
    pass 1, and any other value raises ValueError.
    """
    if workers != 1:
        raise ValueError(f"run_sweep is serial; workers must be 1, got {_shown(workers)}")
    rho0 = parse_ket_expression(config.initial_state, (2, 2))
    # One generator serves every grid point and bisection step of the sweep.
    generator = build_liouvillian(config.omega_ratio)
    grid = np.linspace(0.0, config.gamma_t_max, config.samples)
    x = stationary_xforms(rho0, generator, grid)
    result = SweepResult(grid, concurrence_xform(x), mutual_information_xform(x))
    transitions = detect_transitions(
        result, lambda times: concurrence_xform(stationary_xforms(rho0, generator, times))
    )
    return replace(result, transitions=transitions, maxima=detect_local_maxima(result))


def detect_transitions(
    result: SweepResult, concurrence_of: Callable[[np.ndarray], np.ndarray]
) -> list[float]:
    """Entangled/separable crossing points, bisection-refined on the exact map.

    Each grid cell where the concurrence crosses ENTANGLEMENT_THRESHOLD is
    bisected until it is below 1e-9 in gamma_T, every open cell in each step
    of one `concurrence_of(midpoints)` call, which maps times to concurrences.
    A call that raises ends the bisection with its error: in run_sweep that
    is the error of the step's earliest failing midpoint, in bracket order.
    """
    entangled = result.concurrence > ENTANGLEMENT_THRESHOLD
    cells = np.flatnonzero(entangled[:-1] != entangled[1:])
    lo, hi, lo_entangled = result.gamma_t[cells], result.gamma_t[cells + 1], entangled[cells]
    while True:
        mid = 0.5 * (lo + hi)
        # Above gamma_T ~ 8e6 the float spacing exceeds _REFINE_TOL, and the
        # midpoint of two neighbouring floats is one of them: that closes the bracket.
        open_ = np.flatnonzero((hi - lo > _REFINE_TOL) & (mid != lo) & (mid != hi))
        if not open_.size:
            return [float(t) for t in mid]
        same = (concurrence_of(mid[open_]) > ENTANGLEMENT_THRESHOLD) == lo_entangled[open_]
        lo[open_[same]] = mid[open_[same]]
        hi[open_[~same]] = mid[open_[~same]]


def detect_local_maxima(result: SweepResult) -> list[tuple[float, float, float]]:
    """Interior grid points where the concurrence strictly exceeds both neighbors."""
    c = result.concurrence
    peaks = np.flatnonzero((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])) + 1
    return [
        (float(result.gamma_t[i]), float(c[i]), float(result.mutual_information[i]))
        for i in peaks
    ]


def compare_windows(a: SweepResult, b: SweepResult) -> WindowOverlapReport:
    """Count grid points where both sweeps are simultaneously entangled.

    A point is entangled when its concurrence exceeds ENTANGLEMENT_THRESHOLD.
    """
    if len(a.gamma_t) != len(b.gamma_t) or not np.allclose(
        a.gamma_t, b.gamma_t, rtol=0.0, atol=1e-9
    ):
        raise DephasimError("sweeps do not share the same gamma_T grid")
    a_on = a.concurrence > ENTANGLEMENT_THRESHOLD
    b_on = b.concurrence > ENTANGLEMENT_THRESHOLD
    both = a_on & b_on
    return WindowOverlapReport(
        samples=len(a.gamma_t),
        a_entangled=int(np.count_nonzero(a_on)),
        b_entangled=int(np.count_nonzero(b_on)),
        overlap_count=int(np.count_nonzero(both)),
        overlap_gamma_t=[float(g) for g in a.gamma_t[both]],
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_csv(result: SweepResult, path: str) -> None:
    """Write rows at 12 significant digits; transitions and maxima as '#' comments."""
    rows = zip(result.gamma_t.tolist(), result.concurrence.tolist(), result.mutual_information.tolist())
    lines = [CSV_HEADER, *("%.12g,%.12g,%.12g" % row for row in rows)]  # _fmt's text for a Python float
    for transition in result.transitions:
        lines.append(f"# transition gamma_T = {_fmt(transition)}")
    for gamma_t, c_value, mi_value in result.maxima:
        lines.append(
            f"# maximum gamma_T = {_fmt(gamma_t)} concurrence = {_fmt(c_value)}"
            f" mutual_information = {_fmt(mi_value)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_text_lines(path: str) -> list[str]:
    """Lines of a UTF-8 text file, BOM dropped; one that does not decode raises ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_csv(path: str) -> SweepResult:
    """Parse a file produced by write_csv back into a SweepResult.

    Raises ValueError naming the path, and the line where there is one, when
    the file is not in that format.
    """
    rows = []
    transitions = []
    maxima = []
    numbered = enumerate(read_text_lines(path), start=1)
    lines = [(n, line.rstrip("\n")) for n, line in numbered if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: missing header {CSV_HEADER!r}")
    for lineno, line in lines[1:]:
        try:
            if line.startswith("#"):
                parts = line.split()
                for kind, n, found in (("transition", 1, transitions), ("maximum", 3, maxima)):
                    if kind in parts:
                        values = [_finite(parts[i + 1]) for i, tok in enumerate(parts[:-1]) if tok == "="]
                        if len(values) != n:
                            raise ValueError(f"expected {n} values, got {len(values)}")
                        found.append(values[0] if n == 1 else tuple(values))
                        break
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise ValueError(f"expected 3 cells, got {len(cells)}")
            rows.append([_finite(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    data = np.asarray(rows, dtype=float)
    try:
        return SweepResult(data[:, 0], data[:, 1], data[:, 2], transitions, maxima)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def run_qutrit_scan(initial_state: str) -> CriterionReport:
    """Dephase the initial two-qutrit state and evaluate the entanglement criterion."""
    rho0 = parse_ket_expression(initial_state, (3, 3))
    return qutrit_sufficient_entangled(dephasing_fixed_point(rho0))


def write_criterion_report(report: CriterionReport, initial_state: str, path: str) -> None:
    """Write a CriterionReport as flat `key = value` text."""
    # Whitespace carries no meaning in a ket; one space per run keeps it on its line.
    ket = re.sub(r"\s+", " ", initial_state)
    lines = ["mode = qutrit-criterion", f"initial_state = {ket}"]
    # CriterionReport's declared field order is the file's line order.
    for name, value in asdict(report).items():
        text = str(value).lower() if isinstance(value, bool) else _fmt(value)
        lines.append(f"{name} = {text}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
