"""Acceptance gate: every criterion at its stated tolerance, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dephasim import (
    SweepConfig,
    StationaryXForm,
    compare_windows,
    concurrence_xform,
    dephasing_fixed_point,
    mutual_information_xform,
    parse_ket_expression,
    qutrit_sufficient_entangled,
    run_sweep,
    validate,
    write_csv,
)
from dephasim.engine import _propagators, evolve, stationary_state
from dephasim.sweep import _FMT
from oracles import (
    ConcurrenceMargin, concurrence, mutual_information, per_point_xforms, random_xform_entries, rk4_stationary_grid
)
from test_measures import embed_xform

OMEGA_RATIO = 31.25
ROBUST = ["(|10> + |01>)/sqrt(2)", "(|10> - |01>)/sqrt(2)"]
FRAGILE = ["(|11> + |00>)/sqrt(2)", "(|11> - |00>)/sqrt(2)"]

ROBUST_SWEEP = SweepConfig(
    initial_state="(|10> - |01>)/sqrt(2)", omega_ratio=OMEGA_RATIO, gamma_t_max=4.0, samples=2000
)
FRAGILE_SWEEP = SweepConfig(
    initial_state="(|11> + |00>)/sqrt(2)", omega_ratio=OMEGA_RATIO, gamma_t_max=4.0, samples=2000
)

_SWEEP_CACHE = {}


def sweep_cached(config, workers=1):
    key = (config, workers)
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_sweep(config, workers=workers)
    return _SWEEP_CACHE[key]


class Criterion:
    """Collects named checks, prints one line, and enforces the runtime bound."""

    def __init__(self, label: str, runtime_bound: float):
        self.label = label
        self.runtime_bound = runtime_bound
        self.failures = []
        self.started = time.perf_counter()

    def check(self, name: str, ok: bool):
        if not ok:
            self.failures.append(name)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        if elapsed > self.runtime_bound:
            self.failures.append(f"runtime {elapsed:.1f}s > {self.runtime_bound:g}s")
        verdict = "PASS" if not self.failures else "FAIL " + "; ".join(self.failures)
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s)")
        assert not self.failures, f"{self.label}: {self.failures}"


def zero_window_runs(concurrence_values, threshold=1e-9):
    """Maximal separable runs bounded by entangled runs on both sides."""
    on = concurrence_values > threshold
    runs = []
    i = 0
    while i < len(on):
        j = i
        while j < len(on) and on[j] == on[i]:
            j += 1
        runs.append((bool(on[i]), i, j))
        i = j
    return [run for k, run in enumerate(runs) if not run[0] and 0 < k < len(runs) - 1]


def test_criterion_1_bell_state_classification():
    crit = Criterion("1 robust/fragile Bell classification", 1.0)
    for texts, want in ((ROBUST, 1.0), (FRAGILE, 0.0)):
        for text in texts:
            (c,) = concurrence_xform(per_point_xforms(parse_ket_expression(text, (2, 2)), 0.0, [1.0]))
            crit.check(text, abs(c - want) <= 1e-9)
    crit.finish()


def test_criterion_2_analytic_dephasing_decay():
    crit = Criterion("2 analytic dephasing decay", 1.0)
    rho0 = parse_ket_expression("(|11> + |00>)/sqrt(2)", (2, 2))
    times = (0.1, 0.5, 1.0, 2.0)
    for gamma_t, propagator in zip(times, _propagators(0.0, times)):
        coherence = abs(evolve(rho0.matrix, propagator)[0, 3])
        crit.check(
            f"gamma_t={gamma_t}", abs(coherence - 0.5 * np.exp(-2.0 * gamma_t)) <= 1e-8
        )
    crit.finish()


def test_criterion_3_propagator_cross_validation():
    crit = Criterion("3 propagator vs fixed-step integrator", 30.0)
    rho0 = parse_ket_expression("(|10> - |01>)/sqrt(2)", (2, 2))
    grid = np.linspace(0.0, 2.0, 50)
    reference = rk4_stationary_grid(rho0.matrix, OMEGA_RATIO, grid)
    worst = 0.0
    for k, propagator in enumerate(_propagators(OMEGA_RATIO, grid)):
        ours = stationary_state(rho0.matrix, propagator)
        worst = max(worst, float(np.max(np.abs(ours - reference[k]))))
    crit.check(f"max-norm {worst:.2e}", worst <= 1e-6)
    crit.finish()


def test_criterion_4_robust_sweep_structure():
    crit = Criterion("4 robust-state sweep structure", 120.0)
    result = sweep_cached(ROBUST_SWEEP)
    crit.check("C(0) = 1", abs(result.concurrence[0] - 1.0) <= 1e-9)

    zero_windows = zero_window_runs(result.concurrence)
    crit.check(f"complete zero windows ({len(zero_windows)})", len(zero_windows) >= 3)

    peak_c = [m[1] for m in result.maxima]
    crit.check("maxima strictly decreasing", all(b < a for a, b in zip(peak_c, peak_c[1:])))
    crit.check("at least one interior maximum", len(result.maxima) >= 1)

    mi = result.mutual_information
    grid = list(result.gamma_t)
    mi_also_peaks = True
    for gamma_t, _, _ in result.maxima:
        i = grid.index(gamma_t)
        local = any(
            0 < j < len(mi) - 1 and mi[j] > mi[j - 1] and mi[j] > mi[j + 1]
            for j in (i - 1, i, i + 1)
        )
        mi_also_peaks = mi_also_peaks and local
    crit.check("mutual information peaks with concurrence", mi_also_peaks)

    crit.check(
        "I >= C on every sample", bool(np.all(mi >= result.concurrence - 1e-9))
    )

    transitions = result.transitions
    lengths = [
        transitions[2 * k + 1] - transitions[2 * k] for k in range(len(transitions) // 2)
    ]
    crit.check(
        "zero-window lengths non-decreasing",
        all(b >= a - 1e-9 for a, b in zip(lengths, lengths[1:])),
    )
    crit.finish()


def test_criterion_5_fragile_sweep_and_disjoint_windows():
    crit = Criterion("5 fragile-state sweep and window disjointness", 120.0)
    robust = sweep_cached(ROBUST_SWEEP)
    fragile = sweep_cached(FRAGILE_SWEEP)
    crit.check("separable near gamma_T = 0", bool(np.all(fragile.concurrence[:5] <= 1e-9)))
    entangled_runs = []
    on = fragile.concurrence > 1e-9
    i = 0
    while i < len(on):
        j = i
        while j < len(on) and on[j] == on[i]:
            j += 1
        if on[i]:
            entangled_runs.append((i, j))
        i = j
    crit.check(f"entangled windows ({len(entangled_runs)})", len(entangled_runs) >= 3)
    overlap = compare_windows(robust, fragile).overlap_count
    crit.check(f"simultaneous entanglement points ({overlap})", overlap == 0)
    crit.finish()


# SHA-256 of each paper sweep's CSV; perfbench/run.py checks the same values.
PAPER_GOLDEN = {
    "robust": "a2c5c653396bf4f94ca16874f0b64721df4611dd0d7d79a35156446d130289a4",
    "fragile": "e49df3425804e4172932794550723e7d9f2257d8d3ed3765e69af76e7376dfcf",
}


@pytest.mark.parametrize("label, config", [("robust", ROBUST_SWEEP), ("fragile", FRAGILE_SWEEP)])
def test_paper_sweeps_write_the_golden_bytes(tmp_path, label, config):
    path = tmp_path / f"{label}.csv"
    write_csv(sweep_cached(config), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_GOLDEN[label]


@functools.cache
def concurrence_margin(ket: str) -> ConcurrenceMargin:
    return ConcurrenceMargin(parse_ket_expression(ket, (2, 2)).matrix, OMEGA_RATIO)


@functools.cache
def margin_roots(ket: str, gamma_t_max: float) -> list:
    return concurrence_margin(ket).roots(gamma_t_max)


@pytest.mark.parametrize("config", [ROBUST_SWEEP, FRAGILE_SWEEP], ids=["robust", "fragile"])
def test_paper_sweep_transitions_lie_within_5e_10_of_their_40_digit_roots(config):
    # Bisection stops once its bracket is below 1e-9 and returns the midpoint, which is printed
    # at 12 significant digits: within half the bracket of the root, plus half a unit of the 12th digit.
    margin = concurrence_margin(config.initial_state)
    for t in sweep_cached(config).transitions:
        printed = float(_FMT % t)
        rounding = 0.5 * 10.0 ** (math.floor(math.log10(printed)) - 11)
        assert abs(printed - margin.root_in(printed - 2e-9, printed + 2e-9)) <= 5e-10 + rounding, t


@pytest.mark.parametrize(
    "config",
    [
        ROBUST_SWEEP,
        FRAGILE_SWEEP,
        pytest.param(
            replace(FRAGILE_SWEEP, samples=100),
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="known defect: at 100 samples the fragile ket reports 18 of its 20 transitions; "
                "two entanglement windows fall between grid points (ROADMAP item 6 certifies each cell)",
            ),
        ),
    ],
    ids=["robust", "fragile", "fragile-100"],
)
def test_a_sweep_reports_every_root_of_the_concurrence_margin(config):
    roots = margin_roots(config.initial_state, config.gamma_t_max)
    assert len(sweep_cached(config).transitions) == len(roots)


@pytest.mark.parametrize("omega_ratio", [OMEGA_RATIO, 20.0, 50.0])
@pytest.mark.parametrize("config", [ROBUST_SWEEP, FRAGILE_SWEEP], ids=["robust", "fragile"])
def test_concurrence_maxima_are_one_drive_period_apart(config, omega_ratio):
    # The paper's damped oscillation with gamma_T: the mean spacing of the
    # concurrence maxima is 2 pi / omega within one grid step. The maxima are
    # the same on every BLAS kernel tried, so this holds where the golden bytes
    # may not.
    result = sweep_cached(replace(config, omega_ratio=omega_ratio))
    peaks = [gamma_t for gamma_t, _, _ in result.maxima]
    step = config.gamma_t_max / (config.samples - 1)
    assert len(peaks) >= 2
    assert abs(np.mean(np.diff(peaks)) - 2.0 * np.pi / omega_ratio) <= step, peaks


def test_criterion_6_closed_form_equivalences():
    crit = Criterion("6 closed-form equivalences", 5.0)
    rng = np.random.default_rng(606)
    worst_c = worst_i = 0.0
    for _ in range(200):
        x = StationaryXForm(*random_xform_entries(rng))
        rho = validate(embed_xform(x), (2, 2))
        worst_c = max(worst_c, abs(concurrence_xform(x) - concurrence(rho)))
        worst_i = max(worst_i, abs(mutual_information_xform(x) - mutual_information(rho)))
    crit.check(f"concurrence closed form ({worst_c:.2e})", worst_c <= 1e-10)
    crit.check(f"mutual information closed form ({worst_i:.2e})", worst_i <= 1e-10)
    crit.finish()


def test_criterion_7_qutrit_criterion_exact_on_dephased_family():
    crit = Criterion("7 qutrit criterion exactness on dephased states", 60.0)
    rng = np.random.default_rng(707)
    counterexamples = 0
    for _ in range(10_000):
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        rho = dephasing_fixed_point(validate(np.outer(psi, psi.conj()), (3, 3)))
        report = qutrit_sufficient_entangled(rho)
        if report.sufficient_entangled != (report.min_pt_eigenvalue < -1e-10):
            counterexamples += 1
    crit.check(f"counterexamples ({counterexamples})", counterexamples == 0)
    crit.finish()


def test_criterion_8_qutrit_criterion_soundness():
    crit = Criterion("8 qutrit criterion soundness on arbitrary states", 60.0)
    rng = np.random.default_rng(808)
    counterexamples = 0
    for k in range(10_000):
        rank = (k % 9) + 1
        g = rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        report = qutrit_sufficient_entangled(validate(rho, (3, 3)))
        if report.sufficient_entangled and not report.min_pt_eigenvalue < 1e-10:
            counterexamples += 1
    crit.check(f"counterexamples ({counterexamples})", counterexamples == 0)
    crit.finish()


def test_criterion_9_byte_identical_determinism(tmp_path):
    crit = Criterion("9 byte-identical sweep determinism", 240.0)
    paths = []
    for label in ("serial-1", "serial-2"):
        path = tmp_path / f"{label}.csv"
        write_csv(run_sweep(ROBUST_SWEEP), str(path))
        paths.append(path)
    crit.check("two serial runs identical", paths[0].read_bytes() == paths[1].read_bytes())
    crit.finish()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
