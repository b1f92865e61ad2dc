"""Scaled-action-time sweeps, feature detection, window comparison, and CSV output."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .engine import _bisection_xforms, _checked_float, dephasing_fixed_point, stationary_xforms
from .errors import _numbers, _parsed, _shown
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
_FMT = "%.12g"  # the text of every number in the CSV, the reports and the overlap listing
# The first word of each feature comment, and the names of its values in order.
_FEATURES = {"transition": ("gamma_T",), "maximum": tuple(CSV_HEADER.split(","))}


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of one sweep, held as the numbers its checks return, not as the caller's objects."""

    initial_state: str
    omega_ratio: float = 31.25
    gamma_t_max: float = 4.0
    samples: int = 2000
    output_path: str | None = None

    def __post_init__(self):
        try:
            samples = operator.index(self.samples)
        except TypeError:
            raise ValueError(f"samples must be an integer, got {_shown(self.samples)}") from None
        if samples < 2:
            raise ValueError(f"samples must be at least 2, got {_shown(self.samples)}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "gamma_t_max", _checked_float("gamma_t_max", self.gamma_t_max, positive=True))
        object.__setattr__(self, "omega_ratio", _checked_float("omega_ratio", self.omega_ratio))


@dataclass(frozen=True)
class SweepResult:
    """Sampled (gamma_T, concurrence, mutual information) rows plus detected features."""

    gamma_t: np.ndarray
    concurrence: np.ndarray
    mutual_information: np.ndarray
    transitions: list[float] = field(default_factory=list)
    maxima: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        arrays = {f.name: _numbers(f.name, getattr(self, f.name)) for f in fields(self)}
        for name in ("gamma_t", "concurrence", "mutual_information", "transitions"):
            if arrays[name].ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {arrays[name].shape}")
        for name in ("gamma_t", "concurrence", "mutual_information"):
            object.__setattr__(self, name, arrays[name])
        gt, maxima = self.gamma_t, arrays["maxima"]
        if len(gt) != len(self.concurrence) or len(gt) != len(self.mutual_information):
            raise ValueError("row columns must have equal length")
        if not len(gt):
            raise ValueError("no data rows")
        if not np.all(gt[1:] > gt[:-1]):  # written so that a NaN fails it, and inf unwarned
            raise ValueError("gamma_t values must be strictly increasing")
        if maxima.size and maxima.shape[1:] != (3,):
            raise ValueError(f"every maximum must be a ({', '.join(_FEATURES['maximum'])}) triple")
        if not np.all(maxima.reshape(-1, 3)[:, 1] > 0):
            raise ValueError("every maximum must lie inside an entangled window")
        # read_csv refuses non-finite values, so write_csv must never write one.
        for name, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} values must be finite")
        object.__setattr__(self, "transitions", arrays["transitions"].tolist())
        object.__setattr__(self, "maxima", [tuple(m) for m in maxima.reshape(-1, 3).tolist()])


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
    grid = np.linspace(0.0, config.gamma_t_max, config.samples)
    if not np.all(np.diff(grid) > 0):  # written so that a NaN fails it
        raise ValueError(f"gamma_t_max {_shown(config.gamma_t_max)} is too small for {config.samples} distinct samples")
    x = stationary_xforms(rho0, config.omega_ratio, grid)
    c, mi = concurrence_xform(x), mutual_information_xform(x)
    midpoint_xforms = _bisection_xforms(rho0, config.omega_ratio)
    transitions = detect_transitions(grid, c, lambda lows, mids: concurrence_xform(midpoint_xforms(lows, mids)))
    return SweepResult(grid, c, mi, transitions, detect_local_maxima(grid, c, mi))


def detect_transitions(
    gamma_t: np.ndarray, concurrence: np.ndarray, concurrence_of: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Entangled/separable crossing points of the sampled concurrence, bisection-refined with `concurrence_of`.

    Each grid cell where the concurrence crosses ENTANGLEMENT_THRESHOLD is
    bisected until it is below 1e-9 in gamma_T, every open cell in each step
    of one `concurrence_of(lows, mids)` call, which is handed each open
    bracket's low end and midpoint, in bracket order, and returns the
    concurrences at the midpoints. A call that raises ends the bisection
    with its error.
    """
    entangled = concurrence > ENTANGLEMENT_THRESHOLD
    cells = np.flatnonzero(entangled[:-1] != entangled[1:])
    lo, hi, lo_entangled = gamma_t[cells], gamma_t[cells + 1], entangled[cells]
    while True:
        mid = 0.5 * (lo + hi)
        # Above gamma_T ~ 8e6 the float spacing exceeds _REFINE_TOL, and the
        # midpoint of two neighbouring floats is one of them: that closes the bracket.
        open_ = np.flatnonzero((hi - lo > _REFINE_TOL) & (mid != lo) & (mid != hi))
        if not open_.size:
            return mid
        same = (concurrence_of(lo[open_], mid[open_]) > ENTANGLEMENT_THRESHOLD) == lo_entangled[open_]
        lo[open_[same]] = mid[open_[same]]
        hi[open_[~same]] = mid[open_[~same]]


def detect_local_maxima(gamma_t: np.ndarray, concurrence: np.ndarray, mutual_information: np.ndarray) -> np.ndarray:
    """(gamma_T, C, I) rows of the interior grid points where the concurrence strictly exceeds both neighbors."""
    peaks = np.flatnonzero((concurrence[1:-1] > concurrence[:-2]) & (concurrence[1:-1] > concurrence[2:])) + 1
    return np.column_stack((gamma_t[peaks], concurrence[peaks], mutual_information[peaks]))


def compare_windows(a: SweepResult, b: SweepResult) -> WindowOverlapReport:
    """Count grid points where both sweeps are simultaneously entangled.

    A point is entangled when its concurrence exceeds ENTANGLEMENT_THRESHOLD.
    """
    if len(a.gamma_t) != len(b.gamma_t) or not np.allclose(a.gamma_t, b.gamma_t, rtol=0.0, atol=1e-9):
        raise ValueError("sweeps do not share the same gamma_T grid")
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


def write_csv(result: SweepResult, path: str) -> None:
    """Write rows at 12 significant digits; transitions and maxima as '#' comments."""
    rows = zip(result.gamma_t.tolist(), result.concurrence.tolist(), result.mutual_information.tolist())
    lines = [CSV_HEADER, *map(",".join([_FMT] * 3).__mod__, rows)]  # one % per row, _FMT's text in each cell
    features = [("transition", (t,)) for t in result.transitions] + [("maximum", m) for m in result.maxima]
    for kind, values in features:
        lines.append(f"# {kind} " + " ".join(f"{n} = {_FMT % v}" for n, v in zip(_FEATURES[kind], values)))
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
    value = _parsed(float, text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {_shown(text)}")
    return value


def _feature_values(words: list[str], names: tuple[str, ...]) -> tuple[float, ...]:
    """The values of a feature comment's words, which must read `name = value` for each of names, in order."""
    values = words[2::3]
    if len(values) != len(names):
        raise ValueError(f"expected {len(names)} values, got {len(values)}")
    if words[0::3] != list(names) or words[1::3] != ["="] * len(names):
        raise ValueError("expected " + " ".join(f"{name} = <value>" for name in names))
    return tuple(_finite(value) for value in values)


def read_csv(path: str) -> SweepResult:
    """Parse a file produced by write_csv back into a SweepResult.

    Raises ValueError naming the path, and the line where there is one, when
    the file is not in that format.
    """
    rows = []
    features = {kind: [] for kind in _FEATURES}
    numbered = enumerate(read_text_lines(path), start=1)
    lines = [(n, line.rstrip("\n")) for n, line in numbered if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: missing header {CSV_HEADER!r}")
    for lineno, line in lines[1:]:
        try:
            if line.startswith("#"):
                kind, *words = line[1:].split() or [None]  # a comment is a feature only by its first word
                if kind in _FEATURES:
                    features[kind].append(_feature_values(words, _FEATURES[kind]))
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise ValueError(f"expected 3 cells, got {len(cells)}")
            rows.append([_finite(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    data = np.asarray(rows, dtype=float).reshape(-1, 3)
    transitions = [t for (t,) in features["transition"]]
    try:
        return SweepResult(data[:, 0], data[:, 1], data[:, 2], transitions, features["maximum"])
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
        text = str(value).lower() if isinstance(value, bool) else _FMT % value
        lines.append(f"{name} = {text}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
