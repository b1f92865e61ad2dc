"""The names and call structure that perfbench's tracer relies on.

perfbench/run.py counts propagations as calls to `engine.stationary_state` and
splits them into grid and refine evaluations by whether `detect_transitions`
is on the stack; `Tracer.install` raises when a traced name is not bound.
Renaming or bypassing one of them breaks the benchmark's exact-count gate,
so this test fails first.
"""

import sys
from pathlib import Path

import pytest

import dephasim.cli  # noqa: F401  (binds cli.main, a tracer target)
import dephasim.engine
import dephasim.sweep
from dephasim import SweepConfig, run_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_binds_every_target_and_counts_each_propagation(monkeypatch):
    original = dephasim.engine.stationary_state
    detect, steps = dephasim.sweep.detect_transitions, []

    def counting_detect(result, concurrence_of):
        return detect(result, lambda lows, mids: steps.append(len(mids)) or concurrence_of(lows, mids))

    monkeypatch.setattr(dephasim.sweep, "detect_transitions", counting_detect)
    with Tracer() as t:
        run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", omega_ratio=31.25, samples=50))
    grid, refine = t.counts["sweep.grid_evals"], t.counts["sweep.refine_evals"]
    assert t.calls["engine.stationary_state"] == grid + refine
    assert t.calls["engine.build_liouvillian"] == 1 + len(steps)  # one generator for the grid and one per lockstep step
    assert grid == 50
    assert refine == sum(steps) > 0
    assert dephasim.engine.stationary_state is original


@pytest.mark.parametrize(
    "ket, propagations, transitions, maxima",
    [("(|10> - |01>)/sqrt(2)", 2399, 19, 9), ("(|11> + |00>)/sqrt(2)", 2420, 20, 10)],
    ids=["robust", "fragile"],
)
def test_paper_sweeps_give_the_traced_gate_counts(ket, propagations, transitions, maxima):
    # perfbench's paper-sweeps gate checks exactly these counts on a traced run.
    with Tracer() as t:
        result = run_sweep(SweepConfig(ket, omega_ratio=31.25, gamma_t_max=4.0, samples=2000))
    assert t.calls["engine.stationary_state"] == propagations
    assert t.counts["sweep.grid_evals"] == 2000
    assert (len(result.transitions), len(result.maxima)) == (transitions, maxima)
